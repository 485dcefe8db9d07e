#include "quick/consumer.h"

#include <algorithm>
#include <cmath>

#include "cloudkit/migration_state.h"
#include "cloudkit/outbox.h"
#include "common/logging.h"
#include "fdb/retry.h"

namespace quick::core {

namespace {

/// Lease fencing of a transition out of processing: NotFound/LeaseLost
/// mean another consumer finished or retook the item — not an error, but
/// this consumer must apply nothing.
Status Fenced(const Status& transition, bool* fenced) {
  *fenced = transition.IsNotFound() || transition.IsLeaseLost();
  return *fenced ? Status::OK() : transition;
}

/// A pointer's tenant zone, on the cluster the pointer was found on.
tup::Subspace ZoneSubspaceOf(const Pointer& pointer) {
  return ck::CloudKitService::ZoneSubspace(pointer.db_id, pointer.zone);
}

/// quick.deadletter.* registry counters, resolved on first use.
Counter* QuarantinedMetric() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter("quick.deadletter.quarantined");
  return counter;
}

}  // namespace

Consumer::Consumer(Quick* quick, std::vector<std::string> cluster_names,
                   JobRegistry* registry, ConsumerConfig config,
                   std::string consumer_id, LeaseCache* election_cache)
    : quick_(quick),
      registry_(registry),
      config_(config),
      id_(consumer_id.empty() ? Random::ThreadLocal().NextUuid()
                              : std::move(consumer_id)),
      clusters_(std::move(cluster_names)),
      election_(election_cache),
      health_(config_.breaker, quick->clock(), id_),
      hooks_(quick->tracer(), quick->clock(), id_),
      scanner_rng_(std::hash<std::string>{}(id_)),
      steals_metric_(
          MetricsRegistry::Default()->GetCounter("quick.scanner.steals")),
      shards_owned_gauge_(MetricsRegistry::Default()->GetGauge(
          "quick.scanner.shards_owned." + id_)) {}

Consumer::~Consumer() { Stop(); }

fdb::Database* Consumer::Cluster(const std::string& name) {
  return quick_->cloudkit()->clusters()->Get(name);
}

void Consumer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;

  const ChainMode mode =
      config_.async_pipeline ? ChainMode::kPipelined : ChainMode::kThreaded;
  if (mode == ChainMode::kPipelined) {
    // No Manager pool: chains live in the in-flight window and their
    // continuations run on the executor; Workers still execute handler
    // code on real threads (handlers are arbitrary blocking code). The
    // worker queue is sized to the window so a burst of dequeues does not
    // stall completions.
    cancel_ = fdb::CancelToken();
    exec_ = std::make_unique<fdb::ThreadPoolExecutor>(
        std::max(config_.async_executor_threads, 1), quick_->clock());
    worker_queue_ = std::make_unique<BlockingQueue<WorkerJob>>(
        std::max<size_t>(static_cast<size_t>(config_.num_worker_threads) * 2,
                         static_cast<size_t>(
                             std::max(config_.max_inflight_txns, 1))));
  } else {
    manager_queue_ = std::make_unique<BlockingQueue<TopJob>>(
        static_cast<size_t>(config_.num_manager_threads) * 2);
    worker_queue_ = std::make_unique<BlockingQueue<WorkerJob>>(
        static_cast<size_t>(config_.num_worker_threads) * 2);
  }

  threads_.emplace_back([this, mode] { ScannerLoop(mode); });
  if (mode == ChainMode::kThreaded) {
    for (int i = 0; i < config_.num_manager_threads; ++i) {
      threads_.emplace_back([this] {
        while (auto job = manager_queue_->Pop()) {
          LeaseBatch(job->cluster, {job->item_id}, ChainMode::kThreaded);
        }
      });
    }
  }
  for (int i = 0; i < config_.num_worker_threads; ++i) {
    threads_.emplace_back([this] {
      while (auto job = worker_queue_->Pop()) {
        ProcessWorkItem(*std::move(job));
      }
    });
  }
  threads_.emplace_back([this] { ExtenderLoop(); });
}

void Consumer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  // Stop chains from re-arming (retries, new steps); in-flight commits
  // still resolve — a cancelled chain completes with kCancelled rather
  // than vanishing, so the window below genuinely drains.
  cancel_.Cancel();
  if (manager_queue_) manager_queue_->Close();
  if (worker_queue_) worker_queue_->Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Drain the in-flight window before tearing down the executor: the
  // runner ends every pipelined transaction's slot on every path
  // (success, error, cancel), and SleepMillis advances a ManualClock so
  // scheduled re-arms come due.
  while (inflight_txns_.load(std::memory_order_acquire) > 0) {
    quick_->clock()->SleepMillis(1);
  }
  if (exec_ != nullptr) {
    exec_->Shutdown();
    exec_.reset();
  }
}

// ---------------------------------------------------------------------------
// The transaction runner. Synchronous chains (inline, threaded) keep the
// plain blocking commit on the calling thread: routing them through the
// async pipeline and waiting would hand every commit's acknowledgement to
// the cluster's commit-pump thread. Pipelined chains hold a window slot per
// transaction and continue on the executor.
// ---------------------------------------------------------------------------

void Consumer::RunStep(ChainMode mode, const std::string& cluster,
                       TxnBody body, Continuation then) {
  fdb::Database* db = Cluster(cluster);
  if (mode != ChainMode::kPipelined) {
    then(fdb::RunTransaction(db, body));
    return;
  }
  BeginTxn();
  fdb::RunTransactionAsync(db, std::move(body), exec_.get(), cancel_)
      .OnReady([this, then = std::move(then)](const Status& st) {
        then(st);
        EndTxn();
      });
}

void Consumer::CommitOnce(ChainMode mode, std::shared_ptr<fdb::Transaction> txn,
                          Continuation then) {
  if (mode != ChainMode::kPipelined) {
    then(txn->Commit());
    return;
  }
  BeginTxn();
  // The shared_ptr keeps the transaction alive until the ack lands. It may
  // arrive on the cluster's commit-pump thread, so the continuation is
  // re-posted onto the executor before doing real work.
  txn->CommitAsync().OnReady(
      [this, txn, then = std::move(then)](const Status& st) {
        exec_->Post([this, txn, then, st] {
          then(st);
          EndTxn();
        });
      });
}

bool Consumer::WaitForWindowSlot() {
  if (inflight_txns_.load(std::memory_order_acquire) <
      config_.max_inflight_txns) {
    return true;
  }
  stats_.backpressure_waits.Increment();
  while (running_.load() && inflight_txns_.load(std::memory_order_acquire) >=
                                config_.max_inflight_txns) {
    quick_->clock()->SleepMillis(1);
  }
  return running_.load();
}

// ---------------------------------------------------------------------------
// Algorithm 1: Scanner.
// ---------------------------------------------------------------------------

void Consumer::ScannerLoop(ChainMode mode) {
  std::vector<std::string> order = clusters_;
  while (running_.load()) {
    // shuffle(CIDS): random visiting order each round.
    std::shuffle(order.begin(), order.end(), scanner_rng_.engine());
    int dispatched_this_round = 0;
    for (const std::string& cluster : order) {
      if (!running_.load()) break;
      int processed = 0;
      while (running_.load() && processed < config_.processing_bound) {
        Result<int> n = ScanClusterOnce(cluster, mode);
        if (!n.ok() || *n == 0) break;
        processed += *n;
        dispatched_this_round += *n;
      }
    }
    if (dispatched_this_round == 0) {
      quick_->clock()->SleepMillis(config_.idle_sleep_millis);
    }
  }
}

Result<int> Consumer::ScanClusterOnce(const std::string& cluster_name,
                                      ChainMode mode) {
  if (crashed_.load()) return 0;
  fdb::Database* cluster = Cluster(cluster_name);
  if (cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  // Open-circuit cluster: skip instead of burning retry budgets against a
  // cluster that looks down; ShouldSkip lets the half-open probe through
  // when the breaker's open duration has elapsed.
  if (health_.ShouldSkip(cluster_name)) {
    stats_.scans_skipped_breaker.Increment();
    return 0;
  }
  stats_.scans.Increment();

  // In threaded mode, peek only when Managers and Workers have
  // insufficient tasks (Alg. 1 line 5): scanning is pointless — and, at
  // scale, expensive — while the pipeline is still full.
  if (mode == ChainMode::kThreaded) {
    while (running_.load() &&
           (!manager_queue_->Empty() ||
            worker_queue_->Size() >=
                2 * static_cast<size_t>(config_.num_worker_threads))) {
      quick_->clock()->SleepMillis(1);
    }
    if (!running_.load()) return 0;
  }

  std::vector<std::string> selected =
      PeekAndSelect(cluster, cluster_name, mode);

  // Dispatch the selection as lease batches. Only pipelined chains batch:
  // each batch waits for window room (the backpressure point) and
  // amortizes one commit RTT over lease_batch_size pointers. Inline chains
  // run a batch of one right here; threaded ones hand it to a Manager.
  const size_t batch_max =
      mode == ChainMode::kPipelined
          ? static_cast<size_t>(std::max(config_.lease_batch_size, 1))
          : 1;
  int dispatched = 0;
  std::vector<std::string> batch;
  auto flush = [&]() -> bool {
    if (batch.empty()) return true;
    bool admitted = true;
    if (mode == ChainMode::kThreaded) {
      admitted = manager_queue_->Push(TopJob{cluster_name, batch.front()});
    } else if (mode == ChainMode::kPipelined) {
      admitted = WaitForWindowSlot();
    }
    if (!admitted) {  // shutting down
      for (const std::string& id : batch) {
        UnmarkInFlight(InFlightKey(cluster_name, id));
      }
      dispatched -= static_cast<int>(batch.size());
    } else if (mode != ChainMode::kThreaded) {
      LeaseBatch(cluster_name, std::move(batch), mode);
    }
    batch.clear();
    return admitted;
  };
  for (const std::string& id : selected) {
    if (!MarkInFlight(InFlightKey(cluster_name, id))) continue;
    batch.push_back(id);
    ++dispatched;
    if (batch.size() >= batch_max && !flush()) return dispatched;
  }
  flush();
  return dispatched;
}

bool Consumer::IsSequential(const std::string& cluster_name,
                            const std::string& shard_zone) {
  if (election_ == nullptr) return config_.sequential;
  // Unsharded clusters keep the legacy per-cluster election key; sharded
  // ones elect one sequential scanner per (cluster, shard) so every shard
  // has its own no-starvation scanner (DESIGN.md §12).
  const std::string key =
      shard_zone == quick_->config().top_zone_name
          ? "quick-seq|" + cluster_name
          : "quick-seq|" + cluster_name + "|" + shard_zone;
  return election_->TryAcquire(key, id_, ElectionTtlMillis());
}

Consumer::ShardPlan Consumer::PlanShards(const std::string& cluster_name) {
  ShardPlan plan;
  std::vector<std::string> all = quick_->TopZoneNames(cluster_name);
  const bool striped =
      config_.striped_scanners && election_ != nullptr && all.size() > 1;
  if (!striped) {
    plan.owned = static_cast<int>(all.size());
    plan.visit = std::move(all);
  } else {
    // Announce this consumer to the cluster's membership group, then split
    // the shards by rendezvous (HRW) hashing over the live members: every
    // consumer computes the same owner for every shard from the same
    // membership view, with no coordinator. A member that crashes stops
    // announcing and drops out at TTL expiry; its shards re-rendezvous to
    // the survivors — until then, work-stealing keeps them from starving.
    const std::string group = "quick-stripe|" + cluster_name;
    election_->Announce(group, id_, ElectionTtlMillis());
    const std::vector<std::string> members = election_->Members(group);
    std::vector<std::string> foreign;
    for (std::string& shard : all) {
      const std::string* owner = nullptr;
      size_t best = 0;
      for (const std::string& m : members) {
        const size_t h = std::hash<std::string>{}(m + "|" + shard);
        if (owner == nullptr || h > best || (h == best && m < *owner)) {
          best = h;
          owner = &m;
        }
      }
      if (owner != nullptr && *owner == id_) {
        plan.visit.push_back(std::move(shard));
      } else {
        foreign.push_back(std::move(shard));
      }
    }
    plan.owned = static_cast<int>(plan.visit.size());
    // Work-stealing: a consumer with an empty stripe (more consumers than
    // shards) always peeks one foreign shard; otherwise it steals with
    // probability steal_probability, bounding how long a dead owner's
    // shard waits at (steal_probability * scan rate) across the fleet.
    if (!foreign.empty() &&
        (plan.visit.empty() ||
         scanner_rng_.NextDouble() < config_.steal_probability)) {
      plan.visit.push_back(
          std::move(foreign[scanner_rng_.Uniform(foreign.size())]));
      plan.stolen = 1;
      stats_.steals.Increment();
      steals_metric_->Increment();
    }
  }
  // Rotate the starting shard so no shard is systematically peeked (and
  // thus selected) first when the peek budget runs out mid-pass.
  if (plan.visit.size() > 1) {
    std::rotate(plan.visit.begin(),
                plan.visit.begin() + scanner_rng_.Uniform(plan.visit.size()),
                plan.visit.end());
  }
  {
    std::lock_guard<std::mutex> lock(stripe_mu_);
    owned_shards_[cluster_name] = plan.owned;
    int64_t total = 0;
    for (const auto& [c, n] : owned_shards_) total += n;
    stats_.shards_owned.store(total, std::memory_order_relaxed);
    shards_owned_gauge_->Set(total);
  }
  return plan;
}


std::vector<std::string> Consumer::PeekAndSelect(
    fdb::Database* cluster, const std::string& cluster_name, ChainMode mode) {
  // Peek: snapshot scan of the vesting index only (ids, not records), with
  // relaxed read-version handling (§6 optimizations). With a sharded
  // top-level queue, only the shards in this consumer's plan are peeked
  // (its stripe plus at most one stolen shard; all shards when unstriped),
  // each capped at an equal split of peek_max so no shard can crowd the
  // others out of the peek budget, in rotated order.
  const int64_t scan_start = quick_->clock()->NowMicros();
  const ck::DatabaseRef cluster_db =
      quick_->cloudkit()->OpenClusterDb(cluster_name);
  const ShardPlan plan = PlanShards(cluster_name);
  if (plan.visit.empty()) {
    stats_.scan_micros.Record(quick_->clock()->NowMicros() - scan_start);
    return {};
  }
  const int per_shard = std::max<int>(
      1, config_.peek_max / static_cast<int>(plan.visit.size()));

  std::vector<std::vector<std::string>> shard_ids(plan.visit.size());
  auto peek_shard = [&](const std::string& shard) -> std::vector<std::string> {
    fdb::Transaction txn = cluster->CreateTransaction(PeekOptions());
    ck::QueueZone top_zone =
        quick_->cloudkit()->OpenQueueZone(cluster_db, shard, &txn);
    Result<std::vector<std::string>> ids = top_zone.PeekIds(per_shard);
    health_.Observe(cluster_name, ids.status());
    if (!ids.ok()) return {};  // transient; next round will retry
    return *std::move(ids);
  };
  if (mode == ChainMode::kPipelined && plan.visit.size() > 1) {
    // Pipelined mode: one peek transaction per shard, run concurrently on
    // the executor — the scanner fans out and joins instead of paying the
    // per-shard read latencies serially.
    std::vector<fdb::Future<std::vector<std::string>>> peeks;
    peeks.reserve(plan.visit.size());
    for (const std::string& shard : plan.visit) {
      fdb::Promise<std::vector<std::string>> promise;
      peeks.push_back(promise.GetFuture());
      exec_->Post([&peek_shard, &shard, promise]() mutable {
        promise.Set(peek_shard(shard));
      });
    }
    shard_ids = fdb::WhenAll(std::move(peeks)).Get();
  } else {
    for (size_t i = 0; i < plan.visit.size(); ++i) {
      shard_ids[i] = peek_shard(plan.visit[i]);
    }
  }

  // Per-shard in-flight filter and selection: the shard's elected scanner
  // takes its ids in queue order (no starvation, better tail latency);
  // everyone else samples uniformly at random to avoid contention (§6,
  // per shard since DESIGN.md §12). One selection_max budget spans the
  // whole cluster pass; the rotation above moves which shard draws first.
  std::vector<std::string> selected;
  size_t budget = static_cast<size_t>(std::max(config_.selection_max, 1));
  for (size_t i = 0; i < plan.visit.size() && budget > 0; ++i) {
    std::vector<std::string>& ids = shard_ids[i];
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      std::erase_if(ids, [&](const std::string& id) {
        return in_flight_.count(InFlightKey(cluster_name, id)) > 0;
      });
    }
    if (ids.empty()) continue;
    size_t n_select;
    if (IsSequential(cluster_name, plan.visit[i])) {
      n_select = std::min(ids.size(), budget);
    } else {
      const size_t frac_count = static_cast<size_t>(std::ceil(
          static_cast<double>(ids.size()) * config_.selection_frac));
      n_select =
          std::min({ids.size(), budget, std::max<size_t>(frac_count, 1)});
      // Partial Fisher–Yates: move a random sample to the front.
      for (size_t k = 0; k < n_select; ++k) {
        const size_t j = k + scanner_rng_.Uniform(ids.size() - k);
        std::swap(ids[k], ids[j]);
      }
    }
    selected.insert(selected.end(), ids.begin(), ids.begin() + n_select);
    budget -= n_select;
  }

  stats_.scan_micros.Record(quick_->clock()->NowMicros() - scan_start);
  return selected;
}

Result<int> Consumer::RunOnePass(const std::string& cluster_name) {
  return ScanClusterOnce(cluster_name, ChainMode::kInline);
}

// ---------------------------------------------------------------------------
// Algorithm 2: Manager.
// ---------------------------------------------------------------------------

Status Consumer::ProcessTopItem(const std::string& cluster_name,
                                const std::string& item_id) {
  if (Cluster(cluster_name) == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  if (!MarkInFlight(InFlightKey(cluster_name, item_id))) {
    return Status::FailedPrecondition("already in flight");
  }
  Status result;
  LeaseBatch(cluster_name, {item_id}, ChainMode::kInline, &result);
  return result;
}

void Consumer::LeaseBatch(const std::string& cluster_name,
                          std::vector<std::string> ids, ChainMode mode,
                          Status* result) {
  if (crashed_.load()) {  // the process "died": nothing more is leased
    for (const std::string& id : ids) {
      UnmarkInFlight(InFlightKey(cluster_name, id));
    }
    return;
  }
  // Single attempt, deliberately outside the retry loop: a conflict means
  // another consumer has the pointer, and retrying would only rediscover
  // that. The two failure sites match Figure 7's breakdown — (a) the item
  // is observed leased/unvested at read time, (b) the conditional update
  // loses at commit. Read collisions drop out of the batch before the
  // commit; the survivors share one commit RTT.
  fdb::Database* cluster = Cluster(cluster_name);
  const ck::DatabaseRef cluster_db =
      quick_->cloudkit()->OpenClusterDb(cluster_name);
  const int64_t lease_start = quick_->clock()->NowMicros();
  auto txn = std::make_shared<fdb::Transaction>(
      cluster->CreateTransaction(PeekOptions()));
  std::vector<TopChain> survivors;
  std::vector<TopChain> item_level;
  for (const std::string& id : ids) {
    stats_.pointer_lease_attempts.Increment();
    ck::QueueZone top_zone = quick_->OpenTopZoneFor(cluster_db, id, txn.get());
    Result<std::optional<ck::QueuedItem>> loaded = top_zone.Load(id);
    if (!loaded.ok() || !loaded->has_value()) {
      health_.Observe(cluster_name, loaded.status());
      UnmarkInFlight(InFlightKey(cluster_name, id));
      continue;  // transient read error, or GC'd meanwhile
    }
    TopChain chain{cluster_name, **std::move(loaded), "", mode, result};
    if (config_.item_level_leases_only &&
        chain.pointer.job_type == ck::kPointerJobType) {
      // Ablation A1: skip the pointer lease entirely; consumers contend on
      // individual work items (local items still need the lease).
      chain.lease_id = chain.pointer.lease_id;
      item_level.push_back(std::move(chain));
      continue;
    }
    Result<std::string> lease =
        top_zone.ObtainLease(id, config_.pointer_lease_millis);
    if (!lease.ok()) {
      if (lease.status().IsLeaseLost()) {
        stats_.lease_collisions_read.Increment();
        hooks_.Record(id, stage::kLeaseCollision, lease_start,
                      quick_->clock()->NowMicros(), "read");
      } else {
        health_.Observe(cluster_name, lease.status());
      }
      UnmarkInFlight(InFlightKey(cluster_name, id));
      continue;
    }
    chain.lease_id = *std::move(lease);
    survivors.push_back(std::move(chain));
  }
  for (TopChain& chain : item_level) HandlePointerItemLevel(std::move(chain));
  if (survivors.empty()) {
    stats_.lease_txn_micros.Record(quick_->clock()->NowMicros() - lease_start);
    return;
  }
  CommitOnce(
      mode, txn,
      [this, cluster_name, mode, lease_start,
       survivors = std::move(survivors)](const Status& commit) mutable {
        OnLeaseCommitted(cluster_name, mode, std::move(survivors), lease_start,
                         commit);
      });
}

void Consumer::OnLeaseCommitted(const std::string& cluster_name, ChainMode mode,
                                std::vector<TopChain> survivors,
                                int64_t lease_start, const Status& commit) {
  const int64_t lease_end = quick_->clock()->NowMicros();
  stats_.lease_txn_micros.Record(lease_end - lease_start);
  health_.Observe(cluster_name, commit);
  if (crashed_.load() || (mode == ChainMode::kPipelined && !running_.load())) {
    for (const TopChain& chain : survivors) EndChain(chain, Status::OK());
    return;  // leases abandoned; they expire
  }
  if (!commit.ok()) {
    if (commit.IsNotCommitted() && survivors.size() > 1) {
      // The batch lost a conflict on SOME member, but which one is
      // unknowable from the commit status — retry each pointer in its own
      // transaction so one contended pointer cannot poison the batch.
      stats_.lease_batch_fallbacks.Increment();
      for (const TopChain& chain : survivors) {
        LeaseBatch(cluster_name, {chain.pointer.id}, mode, chain.result);
      }
      return;
    }
    if (commit.IsNotCommitted()) {
      stats_.lease_collisions_commit.Increment();
      hooks_.Record(survivors.front().pointer.id, stage::kLeaseCollision,
                    lease_start, lease_end, "commit");
    }
    for (const TopChain& chain : survivors) EndChain(chain, Status::OK());
    return;
  }

  if (mode == ChainMode::kPipelined) stats_.lease_batches.Increment();
  const ck::DatabaseRef cluster_db =
      quick_->cloudkit()->OpenClusterDb(cluster_name);
  for (TopChain& chain : survivors) {
    const ck::QueuedItem& before = chain.pointer;
    stats_.pointer_leases_acquired.Increment();
    hooks_.Record(before.id, stage::kTopLeased, lease_start, lease_end);
    // Pointer pickup latency: how long it sat vested before a consumer
    // started serving its queue (Figures 5/6 series (a)).
    const int64_t waited_ms =
        quick_->clock()->NowMillis() - before.vesting_time;
    if (waited_ms >= 0) {
      stats_.pointer_latency_micros.Record(waited_ms * 1000);
    }
    if (before.job_type == ck::kPointerJobType) {
      HandlePointer(std::move(chain));
      continue;
    }

    // Local work item (§6): executed directly off the top-level queue.
    WorkerJob job;
    job.cluster = cluster_name;
    job.db_id = cluster_db.id;
    job.zone_name = quick_->TopZoneNameFor(cluster_name, before.id);
    job.zone_subspace = cluster_db.ZoneSubspace(job.zone_name);
    job.leased.item = before;
    job.leased.item.lease_id = chain.lease_id;
    job.leased.item.vesting_time =
        quick_->clock()->NowMillis() + config_.pointer_lease_millis;
    job.leased.lease_id = chain.lease_id;
    job.mode = mode;
    const int64_t latency_ms =
        quick_->clock()->NowMillis() - before.enqueue_time;
    stats_.item_latency_micros.Record(latency_ms * 1000);
    stats_.items_dequeued.Increment();
    quick_->tenant_metrics()->OnDequeued(cluster_db.id, 1);
    DispatchWorkerJob(std::move(job));
    EndChain(chain, Status::OK());
  }
}

void Consumer::HandlePointer(TopChain chain) {
  Result<Pointer> pointer = Pointer::FromItem(chain.pointer);
  if (!pointer.ok()) {
    // Corrupt pointer: move it out of the queue rather than blocking it
    // (§2 "Operations and monitoring") — into the top-level zone's
    // dead-letter quarantine, not the void, so operators can inspect it.
    const ck::DatabaseRef cluster_db =
        quick_->cloudkit()->OpenClusterDb(chain.cluster);
    auto fenced = std::make_shared<bool>(false);
    RunStep(
        chain.mode, chain.cluster,
        [this, cluster_db, chain, fenced,
         why = pointer.status().message()](fdb::Transaction& txn) {
          ck::QueueZone top_zone =
              quick_->OpenTopZoneFor(cluster_db, chain.pointer.id, &txn);
          return Fenced(top_zone.Quarantine(chain.pointer.id, chain.lease_id,
                                            "corrupt_pointer", why),
                        fenced.get());
        },
        [this, chain, fenced](const Status& st) {
          if (st.ok() && *fenced) {
            stats_.terminal_fenced.Increment();
            hooks_.Mark(chain.pointer.id, stage::kFenced, "corrupt_pointer");
          } else if (st.ok()) {
            stats_.items_quarantined.Increment();
            QuarantinedMetric()->Increment();
            hooks_.Mark(chain.pointer.id, stage::kQuarantined,
                        "corrupt_pointer");
          }
          EndChain(chain, st);
        });
    return;
  }

  // Batch-dequeue up to dequeue_max items (Alg. 2 step ii).
  const tup::Subspace zone_subspace = ZoneSubspaceOf(*pointer);
  auto deq = std::make_shared<Dequeued>();
  const int64_t deq_start = quick_->clock()->NowMicros();
  RunStep(
      chain.mode, chain.cluster,
      [this, deq, db_id = pointer->db_id,
       zone_subspace](fdb::Transaction& txn) {
        return DequeueBody(txn, db_id, zone_subspace, deq.get());
      },
      [this, chain, deq, pointer = *pointer, zone_subspace,
       deq_start](const Status& st) {
        const int64_t deq_end = quick_->clock()->NowMicros();
        stats_.dequeue_txn_micros.Record(deq_end - deq_start);
        health_.Observe(chain.cluster, st);
        // Dequeue failed, or the process "died" after dequeuing: item and
        // pointer leases are abandoned and expire — another consumer takes
        // over (§5).
        if (!st.ok() || crashed_.load()) {
          EndChain(chain, st);
          return;
        }
        const bool found_items = !deq->items.empty();
        DispatchDequeued(chain, pointer, std::move(deq->items), deq_start,
                         deq_end, "");
        RequeueOrGcPointer(chain, found_items, deq->min_vesting, zone_subspace);
      });
}

void Consumer::HandlePointerItemLevel(TopChain chain) {
  // Ablation A1: every consumer that selected this pointer dequeues from
  // the zone directly; leases are taken per item, so consumers contend on
  // item records (one wins per item, the rest abort at commit).
  Result<Pointer> pointer = Pointer::FromItem(chain.pointer);
  if (!pointer.ok()) {
    EndChain(chain, pointer.status());
    return;
  }
  const tup::Subspace zone_subspace = ZoneSubspaceOf(*pointer);
  auto txn = std::make_shared<fdb::Transaction>(
      Cluster(chain.cluster)->CreateTransaction(PeekOptions()));
  auto deq = std::make_shared<Dequeued>();
  const int64_t deq_start = quick_->clock()->NowMicros();
  Status body = DequeueBody(*txn, pointer->db_id, zone_subspace, deq.get());
  if (!body.ok()) {
    EndChain(chain, body);
    return;
  }
  CommitOnce(
      chain.mode, txn,
      [this, chain, deq, pointer = *pointer, zone_subspace,
       deq_start](const Status& commit) {
        const int64_t deq_end = quick_->clock()->NowMicros();
        stats_.dequeue_txn_micros.Record(deq_end - deq_start);
        if (commit.IsNotCommitted()) {
          stats_.lease_collisions_commit.Increment();
          EndChain(chain, Status::OK());
          return;
        }
        if (!commit.ok()) {
          EndChain(chain, commit);
          return;
        }
        const bool found_items = !deq->items.empty();
        if (!found_items && deq->min_vesting.has_value()) {
          stats_.lease_collisions_read.Increment();  // everything leased away
        }
        DispatchDequeued(chain, pointer, std::move(deq->items), deq_start,
                         deq_end, "item_level ");
        // Pointer maintenance without a lease: requeue if active, GC when
        // cold.
        RequeueOrGcPointer(chain, found_items, deq->min_vesting, zone_subspace);
      });
}

Status Consumer::DequeueBody(fdb::Transaction& txn, const ck::DatabaseId& db_id,
                             const tup::Subspace& zone_subspace,
                             Dequeued* out) {
  out->items.clear();
  out->min_vesting = std::nullopt;
  // Migration fence, mirror of the enqueue-side read: when the tenant is
  // sealed mid-move, dequeue nothing. The strong read means a dequeue
  // racing the seal transaction conflicts with its write and retries into
  // seeing the fence — so after the seal commits, no dequeue can take
  // items out of the source zone (the balancer's final copy relies on this
  // quiescence).
  QUICK_ASSIGN_OR_RETURN(std::optional<ck::MoveState> fence,
                         ck::MoveState::ReadFence(txn, db_id));
  if (fence.has_value()) return Status::OK();
  const bool fifo = quick_->config().fifo_tenant_zones;
  ck::QueueZone zone(&txn, zone_subspace, quick_->clock(), fifo);
  QUICK_ASSIGN_OR_RETURN(
      out->items,
      fifo ? zone.DequeueFifo(config_.dequeue_max, config_.item_lease_millis)
           : zone.Dequeue(config_.dequeue_max, config_.item_lease_millis));
  QUICK_ASSIGN_OR_RETURN(out->min_vesting, zone.MinVestingTime());
  return Status::OK();
}

void Consumer::DispatchDequeued(const TopChain& chain, const Pointer& pointer,
                                std::vector<ck::LeasedItem> items,
                                int64_t deq_start, int64_t deq_end,
                                const std::string& detail) {
  const int64_t now = quick_->clock()->NowMillis();
  const tup::Subspace zone_subspace = ZoneSubspaceOf(pointer);
  if (!items.empty()) {
    quick_->tenant_metrics()->OnDequeued(pointer.db_id,
                                         static_cast<int64_t>(items.size()));
  }
  for (ck::LeasedItem& li : items) {
    stats_.items_dequeued.Increment();
    stats_.item_latency_micros.Record((now - li.item.enqueue_time) * 1000);
    hooks_.Record(li.item.id, stage::kDequeued, deq_start, deq_end,
                  detail + "batch=" + std::to_string(items.size()),
                  /*parent=*/chain.pointer.id);
    WorkerJob job;
    job.cluster = chain.cluster;
    job.db_id = pointer.db_id;
    job.zone_name = pointer.zone;
    job.zone_subspace = zone_subspace;
    job.fifo_zone = quick_->config().fifo_tenant_zones;
    job.leased = std::move(li);
    job.mode = chain.mode;
    DispatchWorkerJob(std::move(job));
  }
}

void Consumer::RequeueOrGcPointer(const TopChain& chain, bool found_items,
                                  std::optional<int64_t> min_vesting,
                                  const tup::Subspace& zone_subspace) {
  if (crashed_.load()) {  // pointer lease abandoned
    EndChain(chain, Status::OK());
    return;
  }
  const ck::DatabaseRef cluster_db =
      quick_->cloudkit()->OpenClusterDb(chain.cluster);
  const int64_t now = quick_->clock()->NowMillis();

  if (found_items || min_vesting.has_value()) {
    // Requeue so the pointer reappears when the earliest remaining item
    // vests (water-filling: long queues come back immediately). Shared so
    // the trace reports the delay the committed attempt actually chose.
    auto delay = std::make_shared<int64_t>(0);
    RunStep(
        chain.mode, chain.cluster,
        [this, chain, cluster_db, min_vesting, zone_subspace,
         delay](fdb::Transaction& txn) {
          ck::QueueZone top_zone =
              quick_->OpenTopZoneFor(cluster_db, chain.pointer.id, &txn);
          QUICK_ASSIGN_OR_RETURN(std::optional<ck::QueuedItem> loaded,
                                 top_zone.Load(chain.pointer.id));
          if (!loaded.has_value()) return Status::OK();
          if (loaded->lease_id != chain.lease_id) {
            return Status::OK();  // superseded
          }
          // Re-read the earliest vesting time here rather than trusting the
          // dequeue-time snapshot: finish transactions enqueue
          // continuations into this zone after that snapshot, and the
          // enqueue-side pointer fix-up skips leased pointers — this
          // consumer holds the lease — so the stale value would park an
          // already-vested continuation behind a full item lease.
          ck::QueueZone zone(&txn, zone_subspace, quick_->clock(),
                             quick_->config().fifo_tenant_zones);
          QUICK_ASSIGN_OR_RETURN(std::optional<int64_t> fresh,
                                 zone.MinVestingTime());
          const std::optional<int64_t>& effective =
              fresh.has_value() ? fresh : min_vesting;
          const int64_t tnow = quick_->clock()->NowMillis();
          *delay = effective.has_value()
                       ? std::max<int64_t>(0, *effective - tnow)
                       : 0;
          ck::QueuedItem updated = *std::move(loaded);
          updated.vesting_time = tnow + *delay;
          updated.lease_id.clear();
          updated.last_active_time = tnow;
          return top_zone.SaveItem(updated);
        },
        [this, chain, delay](const Status& st) {
          if (st.ok()) {
            stats_.pointers_requeued.Increment();
            hooks_.Mark(chain.pointer.id, stage::kRequeued,
                        "pointer delay_ms=" + std::to_string(*delay));
          }
          EndChain(chain, st);
        });
    return;
  }

  // Queue observed empty.
  if (now - chain.pointer.last_active_time < config_.min_inactive_millis) {
    // Within the GC grace period: do nothing; the pointer re-vests when the
    // lease expires, and a cheap enqueue can reuse it meanwhile (§6
    // "Pointer garbage-collection").
    EndChain(chain, Status::OK());
    return;
  }

  // Delete the pointer — transactionally with a strong emptiness check of
  // the queue zone, so a racing enqueue aborts this transaction (§6
  // "Correctness").
  auto txn = std::make_shared<fdb::Transaction>(
      Cluster(chain.cluster)->CreateTransaction());
  ck::QueueZone zone(txn.get(), zone_subspace, quick_->clock(),
                     quick_->config().fifo_tenant_zones);
  Result<bool> empty = zone.IsEmpty();
  if (!empty.ok() || !*empty) {
    if (empty.ok()) stats_.pointer_gc_aborted.Increment();  // item arrived
    EndChain(chain, empty.status());
    return;
  }
  ck::QueueZone top_zone =
      quick_->OpenTopZoneFor(cluster_db, chain.pointer.id, txn.get());
  bool superseded = false;
  Status st =
      Fenced(top_zone.Complete(chain.pointer.id, chain.lease_id), &superseded);
  if (!st.ok() || superseded) {
    EndChain(chain, st);
    return;
  }
  CommitOnce(chain.mode, txn, [this, chain](const Status& commit) {
    if (commit.IsNotCommitted()) {
      stats_.pointer_gc_aborted.Increment();
      EndChain(chain, Status::OK());
      return;
    }
    if (commit.ok()) {
      stats_.pointers_deleted.Increment();
      hooks_.Mark(chain.pointer.id, stage::kCompleted, "gc");
    }
    EndChain(chain, commit);
  });
}

void Consumer::EndChain(const TopChain& chain, const Status& st) {
  UnmarkInFlight(InFlightKey(chain.cluster, chain.pointer.id));
  if (chain.result != nullptr && !st.ok()) *chain.result = st;
}

// ---------------------------------------------------------------------------
// Algorithm 3: Worker.
// ---------------------------------------------------------------------------

void Consumer::DispatchWorkerJob(WorkerJob job) {
  job.entry = registry_->Find(job.leased.item.job_type);
  job.lease_lost = std::make_shared<std::atomic<bool>>(false);

  // Admission gate on dispatch: a hot tenant's already-dequeued items can
  // be pushed back instead of monopolizing the worker pool. Work is never
  // dropped here — a shed verdict also requeues (the item exists; only a
  // producer-side shed refuses outright) — so the item re-vests after the
  // gate's retry-after hint and any consumer picks it up again.
  if (quick_->admission() != nullptr) {
    const AdmissionDecision d =
        quick_->admission()->AdmitDispatch(job.db_id, job.cluster, 1);
    if (!d.admitted()) {
      stats_.items_dispatch_throttled.Increment();
      const int64_t delay = std::max<int64_t>(0, d.retry_after_millis);
      RequeueBack(job, delay, std::string("admission level=") + d.level +
                                  " delay_ms=" + std::to_string(delay));
      return;
    }
  }

  // Per-type throttling (§7: dynamic allocation with per-topic bounds).
  if (job.entry != nullptr && job.entry->policy.max_concurrent > 0) {
    if (!TryAcquireThrottle(job.leased.item.job_type,
                            job.entry->policy.max_concurrent)) {
      stats_.items_throttled.Increment();
      // Release the lease so any consumer can pick the item up again.
      RequeueBack(job, 0, "throttle");
      return;
    }
    job.throttle_held = true;
  }

  if (job.mode == ChainMode::kInline) {
    ProcessWorkItem(std::move(job));
    return;
  }
  const std::string job_type = job.leased.item.job_type;
  const bool throttled = job.throttle_held;
  if (!worker_queue_->Push(std::move(job)) && throttled) {
    ReleaseThrottle(job_type);  // shutting down
  }
}

void Consumer::RequeueBack(const WorkerJob& job, int64_t delay,
                           std::string why) {
  RunStep(
      job.mode, job.cluster,
      [this, zone_subspace = job.zone_subspace, fifo = job.fifo_zone,
       item_id = job.leased.item.id, lease = job.leased.lease_id,
       delay](fdb::Transaction& txn) {
        ck::QueueZone zone(&txn, zone_subspace, quick_->clock(), fifo);
        Status s = zone.Requeue(item_id, delay,
                                /*increment_error_count=*/false, lease);
        return s.IsNotFound() || s.IsLeaseLost() ? Status::OK() : s;
      },
      [this, item_id = job.leased.item.id,
       why = std::move(why)](const Status& st) {
        if (st.ok()) hooks_.Mark(item_id, stage::kRequeued, why);
      });
}

void Consumer::ProcessWorkItem(WorkerJob job) {
  if (crashed_.load()) return;  // item lease abandoned, never executed
  const std::string ext_key = InFlightKey(job.cluster, job.leased.item.id);
  Status final_status;

  if (job.entry == nullptr) {
    // No handler for this type: a permanently failing item. Deleting beats
    // blocking the queue (§2: "a corrupt task should not block the whole
    // system").
    final_status = Status::Permanent("no handler for job type " +
                                     job.leased.item.job_type);
  } else {
    // Register with the lease extender for the duration of processing.
    {
      std::lock_guard<std::mutex> lock(ext_mu_);
      extensions_[ext_key] = ExtensionEntry{job.cluster, job.zone_subspace,
                                            job.fifo_zone,
                                            job.leased.item.id,
                                            job.leased.lease_id,
                                            job.lease_lost};
    }
    const RetryPolicy& policy = job.entry->policy;
    WorkContext ctx;
    ctx.item = job.leased.item;
    ctx.db_id = job.db_id;
    ctx.zone = job.zone_name;
    ctx.consumer_id = id_;
    ctx.clock = quick_->clock();
    ctx.lease_lost = job.lease_lost.get();

    for (int attempt = 0; attempt <= policy.max_inline_retries; ++attempt) {
      ctx.attempt = attempt;
      ctx.deadline_millis =
          quick_->clock()->NowMillis() + policy.execution_bound_millis;
      const int64_t start = quick_->clock()->NowMicros();
      job.result = job.entry->handler(ctx);
      final_status = job.result.status;
      const int64_t end = quick_->clock()->NowMicros();
      stats_.item_exec_micros.Record(end - start);
      hooks_.Record(job.leased.item.id, stage::kExecute, start, end,
                    "attempt=" + std::to_string(attempt) + " status=" +
                        std::string(StatusCodeName(final_status.code())));
      if (final_status.ok() || final_status.IsPermanent()) break;
      stats_.items_failed_attempts.Increment();
      if (job.lease_lost->load()) break;  // processing interrupted
    }
    // Heading for a terminal failure? Give the type's TerminalHandler the
    // chance to produce extras (compensation continuations, cleanup
    // effects) that will commit atomically with the quarantine/drop.
    if (!final_status.ok() && job.entry->on_terminal != nullptr) {
      const int64_t next_error_count = job.leased.item.error_count + 1;
      const bool exhausted = policy.max_attempts > 0 &&
                             next_error_count >= policy.max_attempts &&
                             policy.drop_on_exhaust;
      if (final_status.IsPermanent() || exhausted) {
        job.terminal_result = job.entry->on_terminal(ctx, final_status);
      }
    }
    {
      std::lock_guard<std::mutex> lock(ext_mu_);
      extensions_.erase(ext_key);
    }
  }

  if (job.throttle_held) ReleaseThrottle(job.leased.item.job_type);
  FinishItem(std::move(job), final_status);
}

void Consumer::RaiseAlert(Alert::Kind kind, const WorkerJob& job,
                          int64_t error_count, const std::string& detail) {
  if (alert_sink_ == nullptr) return;
  Alert alert;
  alert.kind = kind;
  alert.db_id = job.db_id;
  alert.zone = job.zone_name;
  alert.item_id = job.leased.item.id;
  alert.job_type = job.leased.item.job_type;
  alert.error_count = error_count;
  alert.detail = detail;
  alert_sink_->Raise(alert);
}

Status Consumer::ApplyResultExtras(fdb::Transaction& txn, const WorkerJob& job,
                                   const WorkResult& result,
                                   FinishState* state) {
  if (result.txn_hook != nullptr) {
    QUICK_RETURN_IF_ERROR(result.txn_hook(txn));
  }
  // Continuations enter the finishing item's database through the
  // producer's part one, inside this very transaction: local items stay
  // local items, tenant items pass the migration fence. A fence
  // (kTenantMoving) fails the whole finish: the item's lease then expires
  // and a consumer at the tenant's new home re-executes it — atomicity
  // over latency.
  state->continuations = result.continuations;
  if (!state->continuations.empty()) {
    QUICK_RETURN_IF_ERROR(quick_->EnqueuePartOne(
        &txn, quick_->cloudkit()->OpenDatabase(job.db_id),
        state->continuations, &state->follow_up));
  }
  for (const OutboxEffect& e : result.effects) {
    ck::OutboxEntry row;
    row.target = e.target;
    row.idempotency_key = e.idempotency_key;
    row.payload = e.payload;
    row.origin_item = job.leased.item.id;
    row.created_millis = quick_->clock()->NowMillis();
    QUICK_RETURN_IF_ERROR(ck::Outbox::Append(txn, job.cluster, row));
  }
  return Status::OK();
}

void Consumer::AfterResultExtras(const WorkerJob& job, const WorkResult& result,
                                 const FinishState& state) {
  if (!state.continuations.empty()) {
    stats_.continuations_enqueued.Increment(
        static_cast<int64_t>(state.continuations.size()));
    quick_->EnqueueEpilogue(quick_->cloudkit()->OpenDatabase(job.db_id),
                            state.continuations, state.follow_up, hooks_,
                            {.start_micros = state.start_micros,
                             .parent = job.leased.item.id});
  }
  if (!result.effects.empty()) {
    stats_.outbox_effects_recorded.Increment(
        static_cast<int64_t>(result.effects.size()));
  }
}

void Consumer::FinishItem(WorkerJob job, const Status& final_status) {
  // Crash chaos: completion never lands; the item's lease expires and
  // another consumer re-executes it (at-least-once, §5).
  if (crashed_.load()) return;
  if (!final_status.ok()) {
    quick_->tenant_metrics()->OnError(job.db_id, 1);
  }
  auto jp = std::make_shared<const WorkerJob>(std::move(job));

  if (final_status.ok()) {
    const bool is_local =
        StartsWith(jp->zone_name, quick_->config().top_zone_name);
    FinishStep(
        jp, "complete", &jp->result, /*observe_health=*/true,
        [jp](ck::QueueZone& zone) {
          return zone.Complete(jp->leased.item.id, jp->leased.lease_id);
        },
        [this, jp, is_local](const FinishState& s) {
          stats_.items_processed.Increment();
          if (is_local) stats_.local_items_processed.Increment();
          hooks_.Record(jp->leased.item.id, stage::kCompleted, s.start_micros,
                        s.end_micros, is_local ? "local" : "");
          AfterResultExtras(*jp, jp->result, s);
        });
    return;
  }

  // Terminal failures — permanent errors (§6: never retried) and exhausted
  // attempt budgets — leave the queue through one fenced transition.
  const RetryPolicy policy =
      jp->entry != nullptr ? jp->entry->policy : RetryPolicy{};
  const int64_t next_error_count = jp->leased.item.error_count + 1;
  const bool exhausted = policy.max_attempts > 0 &&
                         next_error_count >= policy.max_attempts &&
                         policy.drop_on_exhaust;
  if (final_status.IsPermanent() || exhausted) {
    FinishTerminalFailure(jp, final_status, policy);
    return;
  }

  // Transient failure: requeue with exponential backoff on the error
  // count. Fenced like every other transition out of processing — a
  // zombie's requeue must not clear a lease another consumer now holds.
  if (policy.alert_after_errors > 0 &&
      next_error_count >= policy.alert_after_errors) {
    RaiseAlert(Alert::Kind::kRepeatedFailures, *jp, next_error_count,
               final_status.message());
  }
  const int64_t delay =
      policy.BackoffForErrorCount(jp->leased.item.error_count);
  FinishStep(
      jp, "requeue", /*extras=*/nullptr, /*observe_health=*/false,
      [jp, delay](ck::QueueZone& zone) {
        return zone.Requeue(jp->leased.item.id, delay,
                            /*increment_error_count=*/true,
                            jp->leased.lease_id);
      },
      [this, jp, delay, next_error_count](const FinishState& s) {
        stats_.items_requeued.Increment();
        hooks_.Record(jp->leased.item.id, stage::kRequeued, s.start_micros,
                      s.end_micros,
                      "delay_ms=" + std::to_string(delay) +
                          " errors=" + std::to_string(next_error_count));
      });
}

void Consumer::FinishTerminalFailure(std::shared_ptr<const WorkerJob> job,
                                     const Status& final_status,
                                     const RetryPolicy& policy) {
  const int64_t final_attempts = job->leased.item.error_count + 1;
  const char* reason;
  Alert::Kind legacy_kind;
  if (!final_status.IsPermanent()) {
    reason = "exhausted";
    legacy_kind = Alert::Kind::kDroppedAfterExhaustion;
  } else if (job->entry == nullptr) {
    reason = "unknown_job_type";
    legacy_kind = Alert::Kind::kUnknownJobType;
  } else {
    reason = "permanent";
    legacy_kind = Alert::Kind::kPermanentFailure;
  }
  const bool quarantine = policy.quarantine_on_failure;
  const std::string why = final_status.message();
  // The TerminalHandler's extras (compensation chain, record update)
  // commit WITH the dead-lettering — the saga-rollback launch point.
  FinishStep(
      job, reason, &job->terminal_result, /*observe_health=*/true,
      [job, quarantine, reason, why](ck::QueueZone& zone) {
        return quarantine ? zone.Quarantine(job->leased.item.id,
                                            job->leased.lease_id, reason, why)
                          : zone.Complete(job->leased.item.id,
                                          job->leased.lease_id);
      },
      [this, job, quarantine, reason, legacy_kind, final_attempts,
       why](const FinishState& s) {
        AfterResultExtras(*job, job->terminal_result, s);
        if (quarantine) {
          stats_.items_quarantined.Increment();
          QuarantinedMetric()->Increment();
          hooks_.Record(job->leased.item.id, stage::kQuarantined,
                        s.start_micros, s.end_micros, reason);
          RaiseAlert(Alert::Kind::kQuarantined, *job, final_attempts,
                     std::string(reason) + ": " + why);
        } else {
          stats_.items_dropped_permanent.Increment();
          static Counter* const dropped_legacy =
              MetricsRegistry::Default()->GetCounter(
                  "quick.deadletter.dropped_legacy");
          dropped_legacy->Increment();
          hooks_.Record(job->leased.item.id, stage::kDropped, s.start_micros,
                        s.end_micros, reason);
          RaiseAlert(legacy_kind, *job, final_attempts, why);
        }
      });
}

void Consumer::FinishStep(std::shared_ptr<const WorkerJob> job,
                          const char* what, const WorkResult* extras,
                          bool observe_health,
                          std::function<Status(ck::QueueZone&)> transition,
                          std::function<void(const FinishState&)> done) {
  auto state = std::make_shared<FinishState>();
  state->start_micros = quick_->clock()->NowMicros();
  RunStep(
      job->mode, job->cluster,
      [this, job, extras, state, transition](fdb::Transaction& txn) {
        ck::QueueZone zone(&txn, job->zone_subspace, quick_->clock(),
                           job->fifo_zone);
        QUICK_RETURN_IF_ERROR(Fenced(transition(zone), &state->fenced));
        // Gray's queued-transaction pattern: continuation enqueues, outbox
        // rows, and the handler's hook commit WITH the transition — a
        // fenced transition applies none of them (the retaking consumer's
        // finish will).
        if (state->fenced || extras == nullptr || !HasExtras(*extras)) {
          return Status::OK();
        }
        return ApplyResultExtras(txn, *job, *extras, state.get());
      },
      [this, job, what, observe_health, state,
       done = std::move(done)](const Status& st) {
        state->end_micros = quick_->clock()->NowMicros();
        stats_.finish_txn_micros.Record(state->end_micros -
                                        state->start_micros);
        if (observe_health) health_.Observe(job->cluster, st);
        if (!st.ok()) {
          // The transition did not commit, as far as this consumer knows:
          // the lease runs out and the item runs again, so the span is
          // not terminal.
          stats_.finishes_failed.Increment();
          hooks_.Record(job->leased.item.id, stage::kFinishFailed,
                        state->start_micros, state->end_micros,
                        std::string(what) + ": " + st.ToString());
          return;
        }
        if (state->fenced) {
          stats_.leases_lost.Increment();
          stats_.terminal_fenced.Increment();
          hooks_.Record(job->leased.item.id, stage::kFenced,
                        state->start_micros, state->end_micros, what);
          return;
        }
        done(*state);
      });
}

// ---------------------------------------------------------------------------
// Lease extender.
// ---------------------------------------------------------------------------

void Consumer::ExtenderLoop() {
  // One round per interval of the consumer's clock, slept in slices so
  // Stop() is noticed within a slice instead of a whole interval; a
  // ManualClock still advances by exactly the interval per round.
  constexpr int64_t kStopCheckMillis = 10;
  while (running_.load()) {
    for (int64_t left = config_.lease_extension_interval_millis;
         left > 0 && running_.load(); left -= kStopCheckMillis) {
      quick_->clock()->SleepMillis(std::min(left, kStopCheckMillis));
    }
    if (!running_.load()) break;
    ExtendOnce();
  }
}

void Consumer::ExtendOnce() {
  if (crashed_.load()) return;  // held leases run out and expire
  std::vector<ExtensionEntry> entries;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    entries.reserve(extensions_.size());
    for (const auto& [key, e] : extensions_) entries.push_back(e);
  }
  for (const ExtensionEntry& e : entries) {
    fdb::Database* cluster = Cluster(e.cluster);
    Status st = fdb::RunTransaction(
        cluster,
        [&](fdb::Transaction& txn) {
          ck::QueueZone zone(&txn, e.zone_subspace, quick_->clock(),
                             e.fifo_zone);
          return zone.ExtendLease(e.item_id, e.lease_id,
                                  config_.item_lease_millis);
        },
        /*max_attempts=*/3);
    if (st.ok()) {
      stats_.lease_extensions.Increment();
    } else if (st.IsLeaseLost() || st.IsNotFound()) {
      // Another consumer owns the item now; interrupt processing (Alg. 3).
      e.lease_lost->store(true);
      stats_.leases_lost.Increment();
    }
  }
}

// ---------------------------------------------------------------------------
// Bookkeeping.
// ---------------------------------------------------------------------------

bool Consumer::MarkInFlight(const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return in_flight_.insert(key).second;
}

void Consumer::UnmarkInFlight(const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  in_flight_.erase(key);
}

bool Consumer::TryAcquireThrottle(const std::string& job_type,
                                  int max_concurrent) {
  std::lock_guard<std::mutex> lock(throttle_mu_);
  int& count = throttle_counts_[job_type];
  if (count >= max_concurrent) return false;
  ++count;
  return true;
}

void Consumer::ReleaseThrottle(const std::string& job_type) {
  std::lock_guard<std::mutex> lock(throttle_mu_);
  int& count = throttle_counts_[job_type];
  if (count > 0) --count;
}

}  // namespace quick::core
