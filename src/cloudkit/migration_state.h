#ifndef QUICK_CLOUDKIT_MIGRATION_STATE_H_
#define QUICK_CLOUDKIT_MIGRATION_STATE_H_

#include <optional>
#include <string>
#include <string_view>

#include "cloudkit/database_id.h"
#include "fdb/transaction.h"
#include "tuple/subspace.h"

namespace quick::ck {

/// Durable state of an in-flight tenant move, persisted on the SOURCE
/// cluster under a key OUTSIDE the tenant's "ck"-prefixed database
/// subspace (so bulk copy/delete of the tenant never touches it).
///
/// The record doubles as the migration fence: once the move is sealed
/// (phase >= kSealed), every enqueue, every consumer dequeue and the
/// placement flip read it through ReadFence inside their transactions and
/// back off when the fence is up. Serializability then guarantees the
/// source zone is quiescent — any writer that raced the seal either saw
/// the fence or conflicted with the seal transaction's write and retried
/// into seeing it.
struct MoveState {
  enum Phase : int {
    kCopying = 1,  // bulk copy / catch-up rounds in progress; traffic flows
    kSealed = 2,   // fence up: source frozen, draining leases, final copy
    kFlipped = 3,  // placement points at dest; source data pending delete
  };

  int phase = kCopying;
  std::string dest_cluster;
  int catchup_rounds = 0;

  bool FencesEnqueues() const { return phase >= kSealed; }

  /// Fence key for `id`, ("ckmv", app, user, kind) — same bytes on every
  /// cluster, but the record only ever exists on the move's source
  /// cluster.
  static std::string Key(const DatabaseId& id) {
    static constexpr tup::StringTag kMovesTag{"ckmv"};
    std::string key;
    key.reserve(kMovesTag.size() + id.EncodedSize());
    key.append(kMovesTag);
    id.AppendTo(&key);
    return key;
  }

  /// The migration fence: one strong (conflict-registering) read of
  /// Key(id) in `txn`. Returns the move's state when it has sealed the
  /// tenant, nothing otherwise. The read is what makes a transaction that
  /// races the seal conflict with it, so it must never be a snapshot read.
  static Result<std::optional<MoveState>> ReadFence(fdb::Transaction& txn,
                                                    const DatabaseId& id) {
    QUICK_ASSIGN_OR_RETURN(std::optional<std::string> raw, txn.Get(Key(id)));
    std::optional<MoveState> state;
    if (raw.has_value()) state = Decode(*raw);
    if (state.has_value() && !state->FencesEnqueues()) state.reset();
    return state;
  }

  std::string Encode() const {
    return std::to_string(phase) + "|" + dest_cluster + "|" +
           std::to_string(catchup_rounds);
  }

  static std::optional<MoveState> Decode(std::string_view s) {
    const size_t p1 = s.find('|');
    if (p1 == std::string_view::npos) return std::nullopt;
    const size_t p2 = s.rfind('|');
    if (p2 == p1) return std::nullopt;
    MoveState out;
    out.phase = 0;
    for (char c : s.substr(0, p1)) {
      if (c < '0' || c > '9') return std::nullopt;
      out.phase = out.phase * 10 + (c - '0');
    }
    out.dest_cluster = std::string(s.substr(p1 + 1, p2 - p1 - 1));
    out.catchup_rounds = 0;
    for (char c : s.substr(p2 + 1)) {
      if (c < '0' || c > '9') return std::nullopt;
      out.catchup_rounds = out.catchup_rounds * 10 + (c - '0');
    }
    if (out.phase < kCopying || out.phase > kFlipped) return std::nullopt;
    return out;
  }
};

}  // namespace quick::ck

#endif  // QUICK_CLOUDKIT_MIGRATION_STATE_H_
