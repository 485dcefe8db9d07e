#ifndef QUICK_CONTROL_BALANCER_H_
#define QUICK_CONTROL_BALANCER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "cloudkit/migration_state.h"
#include "common/metrics.h"
#include "control/load_monitor.h"
#include "quick/quick.h"

namespace quick::control {

struct BalancerConfig {
  /// Catch-up copy rounds between the bulk copy and the seal: each round
  /// re-copies the (still-changing) source so the sealed window's final
  /// copy is small.
  int catchup_rounds = 1;
  /// How long MoveTenant waits for in-flight item leases to drain after
  /// the seal before aborting the move.
  int64_t drain_timeout_millis = 10000;
  /// Poll interval while draining.
  int64_t drain_poll_millis = 20;
};

/// Public phases of the migration state machine (ck::MoveState persists
/// the on-disk subset; kIdle/kDone are the endpoints).
enum class MovePhase {
  kIdle,     // no move in flight
  kCopying,  // bulk copy / catch-up rounds; traffic still flows
  kSealed,   // fence up; draining leases, then the exact final copy + flip
  kFlipped,  // placement flipped; source data pending delete
  kDone,     // move complete
};

/// Orchestrated, resumable live tenant migration (§6 "User-move and local
/// work items"), the only code that moves a tenant between clusters:
///
///   kIdle -> kCopying:  persist MoveState on the source, bulk copy.
///   kCopying (xN):      catch-up rounds — re-copy while traffic flows.
///   kCopying -> kSealed: one transaction raises the fence and removes the
///       source's Q_C pointer. Every enqueue/dequeue reads the fence key
///       strongly, so post-seal the source zone only changes through
///       lease-fenced transitions by pre-seal lease holders.
///   kSealed (drain):    expired ("zombie") leases are superseded by an
///       unfenced requeue (their holders' late transitions then fence);
///       live leases are waited out. When zero leases remain the zone is
///       immutable.
///   kSealed -> kFlipped: exact final copy (queue items AND dead-letter
///       records ride the database prefix), destination pointer created
///       iff the zone is non-empty, placement flipped.
///   kFlipped -> kDone:  source data deleted, fence lowered.
///
/// Every phase transition is persisted in the MoveState record on the
/// SOURCE cluster, so Resume() can pick up a crashed move at any point —
/// including the crash window between the placement flip and the state
/// update (detected by placement already naming the destination).
///
/// Lossless by construction: an item is deleted at the source only after
/// the flip (single delete site), and the final copy runs on a provably
/// quiescent zone — no item can be lost or executed from both clusters.
class TenantBalancer {
 public:
  explicit TenantBalancer(core::Quick* quick, BalancerConfig config = {},
                          MetricsRegistry* registry =
                              MetricsRegistry::Default());

  /// Drives a move end-to-end: steps the state machine, polling through
  /// the drain window; aborts (and restores the source) on drain timeout.
  /// A move already in flight runs forward only to its own destination;
  /// asking for another one fails kFailedPrecondition (see Step).
  Status MoveTenant(const ck::DatabaseId& db_id,
                    const std::string& dest_cluster);

  /// Resumes a crashed move found in any cluster's MoveState records;
  /// kNotFound when no move is in flight for the tenant.
  Status Resume(const ck::DatabaseId& db_id);

  /// Executes one transition of the state machine and returns the phase
  /// now reached. Returns kSealed repeatedly while leases drain. Exposed
  /// for tests (and crash-injection) to stop a move at any boundary. When
  /// a move is in flight, `dest_cluster` must name its persisted
  /// destination: anything else is refused with kFailedPrecondition
  /// (Resume() or Abort() it first).
  Result<MovePhase> Step(const ck::DatabaseId& db_id,
                         const std::string& dest_cluster);

  /// Aborts an in-flight move BEFORE the placement flip: lowers the
  /// fence, restores the source's Q_C pointer when the zone is non-empty,
  /// and clears the partial destination copy. kFailedPrecondition once
  /// flipped (the move must then run forward to completion via Resume).
  Status Abort(const ck::DatabaseId& db_id);

  /// Asks `monitor` for a rebalance plan and executes it; false when the
  /// monitor proposes nothing.
  Result<bool> RunPolicyOnce(LoadMonitor* monitor);

  /// Current phase of the tenant's move (kIdle when none).
  Result<MovePhase> Phase(const ck::DatabaseId& db_id);

 private:
  struct FoundState {
    std::string cluster;  // cluster holding the MoveState record
    ck::MoveState state;
  };

  /// Scans every cluster for the tenant's MoveState record. Post-flip the
  /// record lives on the OLD source while placement already names the
  /// destination, so placement alone cannot locate it.
  Result<std::optional<FoundState>> FindState(const ck::DatabaseId& db_id);

  Status WriteState(const std::string& cluster, const ck::DatabaseId& db_id,
                    const ck::MoveState& state);
  Status ClearState(const std::string& cluster, const ck::DatabaseId& db_id);
  Status ClearDestData(const ck::DatabaseId& db_id, const std::string& dest);
  /// In `txn` on `cluster`: creates the tenant's Q_C pointer there iff its
  /// queue zone carries work. Idempotent: a retry overwrites the same
  /// pointer record by id.
  Status PointToQueuedWork(fdb::Transaction& txn, const std::string& cluster,
                           const ck::DatabaseId& db_id);

  core::Quick* quick_;
  ck::CloudKitService* ck_;
  BalancerConfig config_;

  Counter* moves_started_;
  Counter* moves_completed_;
  Counter* moves_aborted_;
  Counter* moves_resumed_;
  Counter* catchup_rounds_run_;
  Counter* drain_waits_;
  Counter* zombie_requeues_;
};

}  // namespace quick::control

#endif  // QUICK_CONTROL_BALANCER_H_
