#ifndef QUICK_FDB_VERSIONED_STORE_H_
#define QUICK_FDB_VERSIONED_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "fdb/types.h"

namespace quick::fdb {

/// One buffered transaction mutation, resolved against storage at apply
/// time (atomic ops read their base value only when the commit applies, so
/// they never create read conflicts).
struct Mutation {
  enum class Type {
    kSet,
    kClear,
    kClearRange,
    kAtomic,
    /// Key = key ("prefix") + 10-byte versionstamp + end_key ("suffix"),
    /// with the stamp filled in from the commit version at apply time
    /// (FoundationDB's SET_VERSIONSTAMPED_KEY).
    kSetVersionstampedKey,
    /// Value = value ("prefix") + 10-byte versionstamp.
    kSetVersionstampedValue,
  };

  Type type = Type::kSet;
  std::string key;      // begin key for kClearRange; prefix for vs-key
  std::string end_key;  // kClearRange end; suffix for vs-key
  std::string value;    // kSet value, atomic operand, or vs-value prefix
  AtomicOp op = AtomicOp::kAdd;
  /// For kAtomic: the base value was cleared earlier in the same
  /// transaction, so the op applies to "missing" regardless of storage.
  bool base_cleared = false;
};

/// The 10-byte versionstamp of a commit: 8 bytes big-endian version + 2
/// bytes big-endian batch order. With group commit the batch order
/// distinguishes the transactions that share one storage version (in their
/// intra-batch commit order); a batch of one gets order 0. Lexicographic
/// order == commit order, within and across batches.
std::string VersionstampFor(Version version, uint16_t batch_order = 0);

/// Applies an atomic operation to an optional existing value, FDB-style
/// (missing values are treated as zero / empty as appropriate).
std::string ApplyAtomicOp(AtomicOp op, const std::optional<std::string>& base,
                          const std::string& operand);

/// Streaming range-read sink: receives each live key-value pair in scan
/// order; return false to stop the scan early. Views are only valid for
/// the duration of the call.
using RangeSink =
    std::function<bool(std::string_view key, std::string_view value)>;

/// MVCC storage for one cluster: every key maps to a version chain and
/// reads are served at an arbitrary retained version. NOT thread-safe; the
/// Database serializes access (shared lock for reads, exclusive for
/// commits).
///
/// Housekeeping costs what changed, not the store's size:
/// - A chain whose newest entry is a tombstone lives in a second map, so a
///   scan walks the live chains plus only the dead chains whose death is
///   newer than its read version (found from the log of deaths).
/// - Every appended entry is logged in commit order, so Prune visits only
///   the chains written at or below its floor.
class VersionedStore {
 public:
  /// Applies a committed transaction's mutations at `version` (must be >=
  /// every previously applied version; members of one commit batch share a
  /// version and are applied in batch order, later members superseding
  /// earlier ones). `batch_order` feeds the versionstamp of
  /// versionstamped mutations.
  void Apply(const std::vector<Mutation>& mutations, Version version,
             uint16_t batch_order = 0);

  /// Value of `key` as of `version`; nullopt when absent or cleared.
  std::optional<std::string> Get(const std::string& key, Version version) const;

  /// Streams key-value pairs in [range.begin, range.end) as of `version`
  /// to `sink`, in key order (reverse order when options.reverse), up to
  /// options.limit. This is the copy-light hot path: values are handed out
  /// as views into the version chains, with no intermediate
  /// materialization, and limit/reverse are honored during iteration.
  /// Returns the version chains stepped over, emitted or not, plus the
  /// newer deaths examined to find the chains dead now but live at
  /// `version`.
  size_t ScanRange(const KeyRange& range, Version version,
                   const RangeOptions& options, const RangeSink& sink) const;

  /// Key-value pairs in [range.begin, range.end) as of `version`
  /// (materializing convenience wrapper over ScanRange).
  std::vector<KeyValue> GetRange(const KeyRange& range, Version version,
                                 const RangeOptions& options = {}) const;

  /// Retires what no read version >= `min_version` can see: a chain drops
  /// its hidden entries once they are half of it (all of them once its
  /// newest entry is at or below the floor), and a chain dead at the floor
  /// is erased, so sustained write-then-clear churn cannot grow the key
  /// map without bound. Reads at older versions become incorrect; the
  /// Database enforces the floor before reading. Floors must not decrease.
  /// Costs O(entries and deaths retired), amortized, and returns that
  /// count: the chains it stepped over.
  size_t Prune(Version min_version);

  /// Bulk-loads one checkpointed key-value pair as a single-entry chain at
  /// `version`. Recovery only: the store must not contain `key` yet, and
  /// checkpoint entries arrive in key order.
  void LoadSnapshotEntry(std::string key, Version version, std::string value);

  /// Copies live key-value pairs as of `version` into `out`, visiting at
  /// most `max_keys` keys starting after `*resume_key` (empty = from the
  /// start). Returns true when the key space is exhausted; otherwise
  /// updates `*resume_key` so the next call continues where this one
  /// stopped. The checkpoint writer streams the store through this in
  /// chunks so commits interleave with the snapshot.
  bool CollectSnapshotChunk(Version version, std::string* resume_key,
                            size_t max_keys, std::vector<KeyValue>* out) const;

  /// Number of live keys at the latest version (for tests/stats).
  size_t LiveKeyCount() const;

  /// Total version-chain entries, hidden ones a chain has not dropped yet
  /// included (for prune tests).
  size_t TotalEntryCount() const;

 private:
  struct Entry {
    Version version;
    std::optional<std::string> value;  // nullopt == tombstone
  };
  using Chain = std::vector<Entry>;
  using ChainMap = std::map<std::string, Chain, std::less<>>;
  /// A chain's map node. Node pointers survive moves between live_ and
  /// dead_ (node handles), so the logs below hold them as handles.
  using Node = ChainMap::value_type;

  /// An entry appended at `version` to `node`'s chain.
  struct Appended {
    Version version;
    Node* node;
  };
  /// A live chain that took a tombstone at `version` and moved into dead_
  /// at `in_dead`. `node` is null once the chain is revived: only the
  /// chain's latest death, while it is still dead, keeps its handles.
  struct Death {
    Version version;
    Node* node;
    ChainMap::iterator in_dead;
  };

  const std::optional<std::string>* GetInChain(const Chain& chain,
                                               Version version) const;
  /// The chain of `key` in either map; null when the key has none.
  const Node* Find(std::string_view key) const;
  /// Appends a value to `key`'s chain, creating or reviving it.
  void Put(const std::string& key, Version version, std::string value);
  /// Appends a tombstone to the live chain at `it` and moves the chain into
  /// dead_; returns the live chain after it.
  ChainMap::iterator Kill(ChainMap::iterator it, Version version);
  /// Chains dead now that may hold a value at `version` (their death is
  /// newer) and whose key `keep` accepts, in key order.
  template <typename Keep>
  std::vector<const Node*> DiedAfter(Version version, const Keep& keep,
                                     size_t* examined) const;

  ChainMap live_;  // chains whose newest entry is a value
  ChainMap dead_;  // chains whose newest entry is a tombstone
  std::deque<Appended> appended_;  // every retained entry, in commit order
  std::deque<Death> deaths_;       // in commit order
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_VERSIONED_STORE_H_
