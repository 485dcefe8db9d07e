#include "control/balancer.h"

#include <vector>

#include "fdb/retry.h"
#include "quick/pointer.h"

namespace quick::control {

TenantBalancer::TenantBalancer(core::Quick* quick, BalancerConfig config,
                               MetricsRegistry* registry)
    : quick_(quick),
      ck_(quick->cloudkit()),
      config_(config),
      moves_started_(registry->GetCounter("quick.balancer.moves_started")),
      moves_completed_(
          registry->GetCounter("quick.balancer.moves_completed")),
      moves_aborted_(registry->GetCounter("quick.balancer.moves_aborted")),
      moves_resumed_(registry->GetCounter("quick.balancer.moves_resumed")),
      catchup_rounds_run_(
          registry->GetCounter("quick.balancer.catchup_rounds")),
      drain_waits_(registry->GetCounter("quick.balancer.drain_waits")),
      zombie_requeues_(
          registry->GetCounter("quick.balancer.zombie_requeues")) {}

Result<std::optional<TenantBalancer::FoundState>> TenantBalancer::FindState(
    const ck::DatabaseId& db_id) {
  const std::string key = ck::MoveState::Key(db_id);
  for (const std::string& name : ck_->clusters()->names()) {
    fdb::Database* cluster = ck_->clusters()->Get(name);
    std::optional<ck::MoveState> found;
    Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
      QUICK_ASSIGN_OR_RETURN(std::optional<std::string> raw,
                             txn.Get(key, /*snapshot=*/true));
      found = raw.has_value() ? ck::MoveState::Decode(*raw) : std::nullopt;
      return Status::OK();
    });
    QUICK_RETURN_IF_ERROR(st);
    if (found.has_value()) {
      return std::optional<FoundState>(FoundState{name, *found});
    }
  }
  return std::optional<FoundState>(std::nullopt);
}

Status TenantBalancer::WriteState(const std::string& cluster,
                                  const ck::DatabaseId& db_id,
                                  const ck::MoveState& state) {
  fdb::Database* db = ck_->clusters()->Get(cluster);
  return fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
    txn.Set(ck::MoveState::Key(db_id), state.Encode());
    return Status::OK();
  });
}

Status TenantBalancer::ClearState(const std::string& cluster,
                                  const ck::DatabaseId& db_id) {
  fdb::Database* db = ck_->clusters()->Get(cluster);
  return fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
    txn.Clear(ck::MoveState::Key(db_id));
    return Status::OK();
  });
}

Status TenantBalancer::ClearDestData(const ck::DatabaseId& db_id,
                                     const std::string& dest) {
  fdb::Database* db = ck_->clusters()->Get(dest);
  if (db == nullptr) return Status::InvalidArgument("unknown cluster " + dest);
  const KeyRange range = ck::CloudKitService::DatabaseSubspace(db_id).Range();
  return fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
    txn.ClearRange(range);
    return Status::OK();
  });
}

Status TenantBalancer::PointToQueuedWork(fdb::Transaction& txn,
                                         const std::string& cluster,
                                         const ck::DatabaseId& db_id) {
  const std::string& zone_name = quick_->config().queue_zone_name;
  ck::QueueZone zone(&txn, ck::CloudKitService::ZoneSubspace(db_id, zone_name),
                     quick_->clock(), quick_->config().fifo_tenant_zones);
  QUICK_ASSIGN_OR_RETURN(int64_t count, zone.Count());
  if (count <= 0) return Status::OK();
  return quick_->CreatePointer(&txn, ck_->OpenClusterDb(cluster),
                               core::Pointer{db_id, zone_name},
                               /*vesting_delay_millis=*/0);
}

Result<MovePhase> TenantBalancer::Phase(const ck::DatabaseId& db_id) {
  QUICK_ASSIGN_OR_RETURN(std::optional<FoundState> found, FindState(db_id));
  if (!found.has_value()) return MovePhase::kIdle;
  switch (found->state.phase) {
    case ck::MoveState::kCopying:
      return MovePhase::kCopying;
    case ck::MoveState::kSealed:
      return MovePhase::kSealed;
    case ck::MoveState::kFlipped:
      return MovePhase::kFlipped;
  }
  return Status::Internal("corrupt move state");
}

Result<MovePhase> TenantBalancer::Step(const ck::DatabaseId& db_id,
                                       const std::string& dest_cluster) {
  const std::string& zone_name = quick_->config().queue_zone_name;
  const bool fifo = quick_->config().fifo_tenant_zones;
  QUICK_ASSIGN_OR_RETURN(std::optional<FoundState> found, FindState(db_id));

  // --- kIdle -> kCopying: validate, persist state, bulk copy. ---
  if (!found.has_value()) {
    if (db_id.kind == ck::DatabaseKind::kCluster) {
      return Status::InvalidArgument("ClusterDBs are pinned and cannot move");
    }
    const std::optional<std::string> src = ck_->placement()->Get(db_id);
    if (!src.has_value()) {
      return Status::NotFound("database " + db_id.ToString() + " not placed");
    }
    if (ck_->clusters()->Get(dest_cluster) == nullptr) {
      return Status::InvalidArgument("unknown cluster " + dest_cluster);
    }
    if (*src == dest_cluster) return MovePhase::kDone;
    ck::MoveState state;
    state.phase = ck::MoveState::kCopying;
    state.dest_cluster = dest_cluster;
    QUICK_RETURN_IF_ERROR(WriteState(*src, db_id, state));
    moves_started_->Increment();
    QUICK_RETURN_IF_ERROR(ck_->CopyDatabaseData(db_id, dest_cluster));
    return MovePhase::kCopying;
  }

  const std::string src = found->cluster;
  ck::MoveState state = found->state;
  const std::string dest = state.dest_cluster;
  if (dest_cluster != dest) {
    return Status::FailedPrecondition(
        "a move of " + db_id.ToString() + " to " + dest +
        " is in flight; Resume() or Abort() it before moving to " +
        dest_cluster);
  }
  fdb::Database* src_db = ck_->clusters()->Get(src);

  // --- kCopying: catch-up rounds, then seal. ---
  if (state.phase == ck::MoveState::kCopying) {
    if (state.catchup_rounds < config_.catchup_rounds) {
      // Re-copy over a cleared destination: the source changed while the
      // previous round ran, and deletes must not survive the overlay.
      QUICK_RETURN_IF_ERROR(ClearDestData(db_id, dest));
      QUICK_RETURN_IF_ERROR(ck_->CopyDatabaseData(db_id, dest));
      state.catchup_rounds++;
      catchup_rounds_run_->Increment();
      QUICK_RETURN_IF_ERROR(WriteState(src, db_id, state));
      return MovePhase::kCopying;
    }
    // Seal: raise the fence and take the source pointer off Q_C in one
    // transaction. Any enqueue/dequeue serialized after this commit sees
    // the fence (or conflicted with it and retries into seeing it).
    const core::Pointer pointer{db_id, zone_name};
    state.phase = ck::MoveState::kSealed;
    QUICK_RETURN_IF_ERROR(
        fdb::RunTransaction(src_db, [&](fdb::Transaction& txn) {
          txn.Set(ck::MoveState::Key(db_id), state.Encode());
          const ck::DatabaseRef src_cluster_db = ck_->OpenClusterDb(src);
          ck::QueueZone top_zone =
              quick_->OpenTopZoneFor(src_cluster_db, pointer.Key(), &txn);
          Status c = top_zone.Complete(pointer.Key());
          if (c.IsNotFound()) return Status::OK();
          return c;
        }));
    return MovePhase::kSealed;
  }

  // --- kSealed: drain leases, then the exact final copy + flip. ---
  if (state.phase == ck::MoveState::kSealed) {
    // Crash window: the flip committed but the state update did not.
    // Placement already names the destination — the destination is LIVE;
    // never touch its data again, just advance the state machine.
    if (ck_->placement()->Get(db_id) == dest) {
      state.phase = ck::MoveState::kFlipped;
      QUICK_RETURN_IF_ERROR(WriteState(src, db_id, state));
      return MovePhase::kFlipped;
    }

    const tup::Subspace zone_subspace =
        ck::CloudKitService::ZoneSubspace(db_id, zone_name);
    const int64_t now = quick_->clock()->NowMillis();
    std::vector<std::string> zombies;
    bool live_leases = false;
    QUICK_RETURN_IF_ERROR(
        fdb::RunTransaction(src_db, [&](fdb::Transaction& txn) {
          zombies.clear();
          live_leases = false;
          ck::QueueZone zone(&txn, zone_subspace, quick_->clock(), fifo);
          QUICK_ASSIGN_OR_RETURN(std::vector<ck::QueuedItem> all,
                                 zone.SnapshotAll());
          for (const ck::QueuedItem& item : all) {
            if (!item.leased()) continue;
            if (item.vesting_time <= now) {
              zombies.push_back(item.id);  // expired lease: supersede it
            } else {
              live_leases = true;  // in-flight execution: wait it out
            }
          }
          return Status::OK();
        }));

    if (!zombies.empty()) {
      // Supersede expired leases with an unfenced requeue: the zombie
      // holder's eventual complete/requeue/quarantine then fails
      // kLeaseLost, and the item becomes a plain unleased item the fence
      // protects. (The crashed consumer's execution may already have run:
      // at-least-once, exactly as a non-migrating lease expiry behaves.)
      QUICK_RETURN_IF_ERROR(
          fdb::RunTransaction(src_db, [&](fdb::Transaction& txn) {
            ck::QueueZone zone(&txn, zone_subspace, quick_->clock(), fifo);
            for (const std::string& id : zombies) {
              Status st = zone.Requeue(id, 0, /*increment_error_count=*/false);
              if (!st.ok() && !st.IsNotFound()) return st;
            }
            return Status::OK();
          }));
      zombie_requeues_->Increment(static_cast<int64_t>(zombies.size()));
      return MovePhase::kSealed;
    }
    if (live_leases) {
      drain_waits_->Increment();
      return MovePhase::kSealed;
    }

    // Quiescent: enqueues and dequeues are fenced, no leases remain, and
    // every lease-fenced transition by a former holder fails — the zone
    // (and its dead-letter store, which only changes through the same
    // fenced paths) cannot change anymore. The copy below is exact.
    QUICK_RETURN_IF_ERROR(ClearDestData(db_id, dest));
    QUICK_RETURN_IF_ERROR(ck_->CopyDatabaseData(db_id, dest));

    // Destination pointer iff the queue carries work.
    fdb::Database* dst_db = ck_->clusters()->Get(dest);
    QUICK_RETURN_IF_ERROR(
        fdb::RunTransaction(dst_db, [&](fdb::Transaction& txn) {
          return PointToQueuedWork(txn, dest, db_id);
        }));

    // The flip. The sealed fence satisfies CommitMove's queued-work guard.
    QUICK_RETURN_IF_ERROR(ck_->CommitMove(db_id, dest, zone_name));
    state.phase = ck::MoveState::kFlipped;
    QUICK_RETURN_IF_ERROR(WriteState(src, db_id, state));
    return MovePhase::kFlipped;
  }

  // --- kFlipped -> kDone: delete source data, lower the fence. ---
  QUICK_RETURN_IF_ERROR(ck_->DeleteDatabaseData(db_id, src));
  QUICK_RETURN_IF_ERROR(ClearState(src, db_id));
  moves_completed_->Increment();
  return MovePhase::kDone;
}

Status TenantBalancer::MoveTenant(const ck::DatabaseId& db_id,
                                  const std::string& dest_cluster) {
  int64_t drained_millis = 0;
  MovePhase prev = MovePhase::kIdle;
  while (true) {
    Result<MovePhase> phase = Step(db_id, dest_cluster);
    QUICK_RETURN_IF_ERROR(phase.status());
    if (*phase == MovePhase::kDone) return Status::OK();
    if (*phase == MovePhase::kSealed && prev == MovePhase::kSealed) {
      // Waiting on lease drain; give holders time to finish or expire.
      if (drained_millis >= config_.drain_timeout_millis) {
        Status abort = Abort(db_id);
        return Status::TimedOut(
            "lease drain did not complete within " +
            std::to_string(config_.drain_timeout_millis) + "ms moving " +
            db_id.ToString() + " (abort: " + abort.ToString() + ")");
      }
      quick_->clock()->SleepMillis(config_.drain_poll_millis);
      drained_millis += config_.drain_poll_millis;
    }
    prev = *phase;
  }
}

Status TenantBalancer::Resume(const ck::DatabaseId& db_id) {
  QUICK_ASSIGN_OR_RETURN(std::optional<FoundState> found, FindState(db_id));
  if (!found.has_value()) {
    return Status::NotFound("no move in flight for " + db_id.ToString());
  }
  moves_resumed_->Increment();
  return MoveTenant(db_id, found->state.dest_cluster);
}

Status TenantBalancer::Abort(const ck::DatabaseId& db_id) {
  QUICK_ASSIGN_OR_RETURN(std::optional<FoundState> found, FindState(db_id));
  if (!found.has_value()) {
    return Status::NotFound("no move in flight for " + db_id.ToString());
  }
  if (found->state.phase >= ck::MoveState::kFlipped ||
      ck_->placement()->Get(db_id) == found->state.dest_cluster) {
    return Status::FailedPrecondition(
        "move already flipped; run Resume() forward instead");
  }
  const std::string src = found->cluster;
  fdb::Database* src_db = ck_->clusters()->Get(src);

  // Restore the source: lower the fence and re-create the Q_C pointer
  // when the zone still carries work (it was removed at the seal), in one
  // transaction so traffic resumes atomically.
  QUICK_RETURN_IF_ERROR(
      fdb::RunTransaction(src_db, [&](fdb::Transaction& txn) {
        txn.Clear(ck::MoveState::Key(db_id));
        if (found->state.phase < ck::MoveState::kSealed) {
          return Status::OK();  // pointer was never removed
        }
        return PointToQueuedWork(txn, src, db_id);
      }));
  // Discard the partial destination copy.
  QUICK_RETURN_IF_ERROR(ClearDestData(db_id, found->state.dest_cluster));
  moves_aborted_->Increment();
  return Status::OK();
}

Result<bool> TenantBalancer::RunPolicyOnce(LoadMonitor* monitor) {
  std::optional<RebalancePlan> plan = monitor->SuggestRebalance();
  if (!plan.has_value()) return false;
  QUICK_RETURN_IF_ERROR(MoveTenant(plan->db_id, plan->dest_cluster));
  return true;
}

}  // namespace quick::control
