// End-to-end tests of the async pipelined consumer core (DESIGN.md §11):
// a Start()ed consumer with config.async_pipeline drives lease / dequeue /
// finish transactions through the cluster's async group-commit pipeline
// with a bounded in-flight window. Verified here:
//   - everything enqueued executes and the pointers GC to empty, with the
//     per-stage histograms and batching counters populated;
//   - a tiny window engages scanner backpressure without deadlocking;
//   - two async consumers contend on the same clusters and still drain;
//   - Stop() mid-flight drains the window (no stuck chains) and a
//     successor finishes the backlog;
//   - the synchronous RunOnePass path is untouched by the async config;
//   - every step of the chain behaves the same in both modes (RunOnePass
//     inline, Start() pipelined): local items, the legacy drop,
//     terminal-handler extras, corrupt-pointer quarantine, the per-type
//     throttle, the admission dispatch gate, and FIFO zones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fdb/retry.h"
#include "quick/admin.h"
#include "quick/consumer.h"
#include "workload/harness.h"

namespace quick::wl {
namespace {

constexpr const char* kCluster = "cluster0";

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_millis) {
  for (int64_t waited = 0; waited < timeout_millis; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

core::ConsumerConfig AsyncConfig() {
  core::ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.dequeue_max = 2;
  config.pointer_lease_millis = 2000;
  config.item_lease_millis = 5000;
  config.min_inactive_millis = 200;
  config.idle_sleep_millis = 2;
  config.num_worker_threads = 4;
  config.async_pipeline = true;
  config.max_inflight_txns = 128;
  config.lease_batch_size = 4;
  config.async_executor_threads = 4;
  return config;
}

TEST(AsyncConsumerTest, DrainsEverythingWithBatchedLeases) {
  HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 0;
  hopts.pointer_vesting_slack_millis = 0;
  hopts.latency.commit_micros = 1000;  // real commit RTTs to overlap
  Harness harness(hopts);

  std::mutex mu;
  std::set<std::string> executed;
  harness.registry()->Register("track", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  constexpr int kItems = 200;
  constexpr int kClients = 8;
  std::set<std::string> enqueued;
  for (int i = 0; i < kItems; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    auto id = harness.quick()->Enqueue(harness.ClientDb(i % kClients), item);
    ASSERT_TRUE(id.ok()) << id.status();
    enqueued.insert(*id);
  }

  auto consumer = harness.MakeConsumer(AsyncConfig(), "async-drain");
  consumer->Start();
  EXPECT_TRUE(WaitUntil(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return executed.size() >= enqueued.size();
      },
      30000))
      << "async pipeline stalled at " << executed.size() << "/"
      << enqueued.size();
  // Keep running until pointer GC empties the top-level queue.
  EXPECT_TRUE(WaitUntil(
      [&] {
        return harness.quick()->TopLevelCount(kCluster).value_or(-1) == 0;
      },
      15000));
  consumer->Stop();

  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& id : enqueued) {
      EXPECT_TRUE(executed.count(id)) << "item " << id << " never executed";
    }
  }
  const core::ConsumerStats& stats = consumer->stats();
  EXPECT_GT(stats.lease_batches.Value(), 0)
      << "no multi-pointer lease batch ever committed";
  EXPECT_GE(stats.items_processed.Value(), static_cast<int64_t>(kItems));
  // Per-stage histograms pin where async time goes (ISSUE acceptance).
  EXPECT_GT(stats.scan_micros.Count(), 0);
  EXPECT_GT(stats.lease_txn_micros.Count(), 0);
  EXPECT_GT(stats.dequeue_txn_micros.Count(), 0);
  EXPECT_GT(stats.finish_txn_micros.Count(), 0);
}

// A window of one forces the scanner to stall between batches: the
// backpressure counter must tick and the drain must still complete (no
// lost slots, no self-deadlock).
TEST(AsyncConsumerTest, TinyWindowEngagesBackpressure) {
  HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 0;
  hopts.pointer_vesting_slack_millis = 0;
  hopts.latency.commit_micros = 2000;  // chains linger, window stays full
  Harness harness(hopts);

  std::mutex mu;
  std::set<std::string> executed;
  harness.registry()->Register("track", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  std::set<std::string> enqueued;
  for (int i = 0; i < 40; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    auto id = harness.quick()->Enqueue(harness.ClientDb(i % 8), item);
    ASSERT_TRUE(id.ok()) << id.status();
    enqueued.insert(*id);
  }

  core::ConsumerConfig config = AsyncConfig();
  config.max_inflight_txns = 1;
  config.lease_batch_size = 1;
  auto consumer = harness.MakeConsumer(config, "async-tiny-window");
  consumer->Start();
  EXPECT_TRUE(WaitUntil(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return executed.size() >= enqueued.size();
      },
      30000));
  consumer->Stop();

  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& id : enqueued) {
      EXPECT_TRUE(executed.count(id)) << "item " << id << " never executed";
    }
  }
  EXPECT_GT(consumer->stats().backpressure_waits.Value(), 0)
      << "a window of 1 never stalled the scanner";
}

// Two async consumers over the same cluster: lease collisions and batch
// fallbacks may fire, but at-least-once still holds for every item.
TEST(AsyncConsumerTest, TwoConsumersContendAndDrain) {
  HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 0;
  hopts.pointer_vesting_slack_millis = 0;
  hopts.latency.commit_micros = 1000;
  Harness harness(hopts);

  std::mutex mu;
  std::set<std::string> executed;
  harness.registry()->Register("track", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  std::set<std::string> enqueued;
  for (int i = 0; i < 100; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    auto id = harness.quick()->Enqueue(harness.ClientDb(i % 8), item);
    ASSERT_TRUE(id.ok()) << id.status();
    enqueued.insert(*id);
  }

  core::ConsumerConfig config = AsyncConfig();
  config.sequential = false;  // randomized selection: contention differs
  auto c1 = harness.MakeConsumer(config, "async-contend-1");
  auto c2 = harness.MakeConsumer(config, "async-contend-2");
  c1->Start();
  c2->Start();
  EXPECT_TRUE(WaitUntil(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return executed.size() >= enqueued.size();
      },
      30000));
  c1->Stop();
  c2->Stop();

  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& id : enqueued) {
    EXPECT_TRUE(executed.count(id)) << "item " << id << " never executed";
  }
}

// Stop() mid-flight: the window drains (Stop returns), nothing wedges,
// and a successor consumer finishes the backlog — abandoned leases expire
// and at-least-once carries across the handoff.
TEST(AsyncConsumerTest, StopMidFlightThenSuccessorFinishes) {
  HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 0;
  hopts.pointer_vesting_slack_millis = 0;
  hopts.latency.commit_micros = 1000;
  Harness harness(hopts);

  std::mutex mu;
  std::set<std::string> executed;
  harness.registry()->Register("track", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  std::set<std::string> enqueued;
  for (int i = 0; i < 150; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    auto id = harness.quick()->Enqueue(harness.ClientDb(i % 8), item);
    ASSERT_TRUE(id.ok()) << id.status();
    enqueued.insert(*id);
  }

  core::ConsumerConfig config = AsyncConfig();
  config.pointer_lease_millis = 300;  // abandoned leases expire quickly
  config.item_lease_millis = 600;
  auto first = harness.MakeConsumer(config, "async-stopped");
  first->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  first->Stop();  // mid-flight: must drain the window and return
  EXPECT_FALSE(first->running());

  auto successor = harness.MakeConsumer(config, "async-successor");
  successor->Start();
  EXPECT_TRUE(WaitUntil(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return executed.size() >= enqueued.size();
      },
      30000));
  successor->Stop();

  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& id : enqueued) {
    EXPECT_TRUE(executed.count(id)) << "item " << id << " lost across Stop()";
  }
}

// The synchronous single-threaded mode must be unaffected by async
// configuration: a consumer that is never Start()ed processes inline via
// RunOnePass exactly as before.
TEST(AsyncConsumerTest, RunOnePassStillSynchronousWithAsyncConfig) {
  HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 0;
  hopts.pointer_vesting_slack_millis = 0;
  Harness harness(hopts);

  std::mutex mu;
  std::set<std::string> executed;
  harness.registry()->Register("track", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  std::set<std::string> enqueued;
  for (int i = 0; i < 5; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    auto id = harness.quick()->Enqueue(harness.ClientDb(i), item);
    ASSERT_TRUE(id.ok()) << id.status();
    enqueued.insert(*id);
  }

  auto consumer = harness.MakeConsumer(AsyncConfig(), "async-inline");
  for (int pass = 0; pass < 20 && executed.size() < enqueued.size(); ++pass) {
    auto processed = consumer->RunOnePass(kCluster);
    ASSERT_TRUE(processed.ok()) << processed.status();
  }
  for (const std::string& id : enqueued) {
    EXPECT_TRUE(executed.count(id)) << "item " << id << " never executed";
  }
  EXPECT_EQ(consumer->stats().lease_batches.Value(), 0)
      << "inline pass leaked into the async path";
}

// ---------------------------------------------------------------------------
// One scenario, two modes: every chain step below runs once through
// synchronous RunOnePass calls and once through a Start()ed pipelined
// consumer, and must reach the same end state.
// ---------------------------------------------------------------------------

enum class Mode { kRunOnePass, kPipelined };

const char* ModeName(Mode mode) {
  return mode == Mode::kRunOnePass ? "RunOnePass" : "Pipelined";
}

// Names the parameter in test listings.
void PrintTo(Mode mode, std::ostream* os) { *os << ModeName(mode); }

class PipelinePathTest : public ::testing::TestWithParam<Mode> {
 protected:
  /// A one-cluster stack on the system clock; `fifo` selects the strict
  /// commit-order schema for tenant zones.
  void Build(bool fifo = false) {
    fdb::Database::Options opts;
    opts.latency.commit_micros = 500;  // commits genuinely in flight
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster(kCluster);
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(),
                                                SystemClock::Default());
    core::QuickConfig qconfig;
    qconfig.pointer_vesting_slack_millis = 0;
    qconfig.fifo_tenant_zones = fifo;
    quick_ = std::make_unique<core::Quick>(ck_.get(), qconfig);
  }

  std::unique_ptr<core::Consumer> MakeConsumer(core::ConsumerConfig config) {
    return std::make_unique<core::Consumer>(quick_.get(),
                                            std::vector<std::string>{kCluster},
                                            &registry_, config, "paths");
  }

  bool Pipelined() const { return GetParam() == Mode::kPipelined; }

  /// Runs `consumer` in this test's mode until `done` holds; false
  /// when the deadline passes first.
  bool DriveUntil(core::Consumer* consumer, const std::function<bool()>& done,
                  int64_t timeout_millis = 30000) {
    if (Pipelined()) {
      consumer->Start();
      const bool reached = WaitUntil(done, timeout_millis);
      consumer->Stop();
      return reached;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      Result<int> n = consumer->RunOnePass(kCluster);
      if (!n.ok()) return false;
      // Nothing vested yet: poll again shortly.
      if (*n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::string MustEnqueue(const ck::DatabaseId& db, const std::string& type,
                          const std::string& payload, int64_t priority = 0) {
    core::WorkItem item;
    item.job_type = type;
    item.payload = payload;
    item.priority = priority;
    auto id = quick_->Enqueue(db, item);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  static ck::DatabaseId Tenant(int i) {
    return ck::DatabaseId::Private("paths", "tenant" + std::to_string(i));
  }

  /// Records executed payloads under `type`.
  void RegisterTracker(const std::string& type) {
    registry_.Register(type, [this](core::WorkContext& ctx) {
      std::lock_guard<std::mutex> lock(mu_);
      executed_.push_back(ctx.item.payload);
      return Status::OK();
    });
  }

  size_t ExecutedCount() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::set<std::string>(executed_.begin(), executed_.end()).size();
  }

  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<core::Quick> quick_;
  core::JobRegistry registry_;
  std::mutex mu_;
  std::vector<std::string> executed_;
};

// Local (cluster-DB) items are executed straight off the top-level queue;
// in pipelined mode they ride the batched lease transaction.
TEST_P(PipelinePathTest, LocalItemsRunOffTheTopLevelQueue) {
  Build();
  RegisterTracker("track");
  constexpr int kItems = 12;
  for (int i = 0; i < kItems; ++i) {
    core::WorkItem item;
    item.job_type = "track";
    item.payload = "local-" + std::to_string(i);
    ASSERT_TRUE(quick_->EnqueueLocal(kCluster, item, 0).ok());
  }
  auto consumer = MakeConsumer(AsyncConfig());
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return ExecutedCount() >= kItems &&
           consumer->stats().local_items_processed.Value() >= kItems;
  }));
  EXPECT_EQ(ExecutedCount(), static_cast<size_t>(kItems));
  EXPECT_EQ(consumer->stats().local_items_processed.Value(), kItems);
  EXPECT_EQ(quick_->TopLevelCount(kCluster).value_or(-1), 0);
  if (Pipelined()) {
    EXPECT_GT(consumer->stats().lease_batches.Value(), 0);
  } else {
    EXPECT_EQ(consumer->stats().lease_batches.Value(), 0);
  }
}

// quarantine_on_failure = false: a permanent failure deletes the item
// outright and leaves no dead letter.
TEST_P(PipelinePathTest, LegacyDropDeletesWithoutDeadLetter) {
  Build();
  core::RetryPolicy policy;
  policy.quarantine_on_failure = false;
  registry_.Register(
      "doomed",
      [](core::WorkContext&) { return Status::Permanent("user was deleted"); },
      policy);
  constexpr int kTenants = 6;
  for (int i = 0; i < kTenants; ++i) MustEnqueue(Tenant(i), "doomed", "x");
  auto consumer = MakeConsumer(AsyncConfig());
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return consumer->stats().items_dropped_permanent.Value() >= kTenants;
  }));
  EXPECT_EQ(consumer->stats().items_dropped_permanent.Value(), kTenants);
  EXPECT_EQ(consumer->stats().items_quarantined.Value(), 0);
  core::QuickAdmin admin(quick_.get());
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_EQ(quick_->PendingCount(Tenant(i)).value_or(-1), 0);
    EXPECT_EQ(admin.DeadLetterCount(Tenant(i)).value_or(-1), 0);
  }
}

// A TerminalHandler's continuation and outbox effect commit with the
// quarantine: the compensation runs and the dead letter stays behind.
TEST_P(PipelinePathTest, TerminalHandlerExtrasRideTheQuarantine) {
  Build();
  RegisterTracker("compensate");
  registry_.RegisterWork(
      "doomed",
      [](core::WorkContext&) {
        return core::WorkResult(Status::Permanent("step failed"));
      },
      core::RetryPolicy{},
      [](core::WorkContext& ctx, const Status&) {
        core::WorkResult r;
        core::DelayedItem undo;
        undo.job_type = "compensate";
        undo.payload = "undo-" + ctx.item.payload;
        undo.id = "undo-" + ctx.item.id;
        r.continuations.push_back(undo);
        r.effects.push_back(core::OutboxEffect{
            "ledger", "undo-" + ctx.item.id, ctx.item.payload});
        return r;
      });
  constexpr int kTenants = 5;
  for (int i = 0; i < kTenants; ++i) {
    MustEnqueue(Tenant(i), "doomed", std::to_string(i));
  }
  auto consumer = MakeConsumer(AsyncConfig());
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return ExecutedCount() >= kTenants &&
           consumer->stats().items_processed.Value() >= kTenants;
  }));
  const core::ConsumerStats& stats = consumer->stats();
  EXPECT_EQ(stats.items_quarantined.Value(), kTenants);
  EXPECT_EQ(stats.continuations_enqueued.Value(), kTenants);
  EXPECT_EQ(stats.outbox_effects_recorded.Value(), kTenants);
  core::QuickAdmin admin(quick_.get());
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_EQ(quick_->PendingCount(Tenant(i)).value_or(-1), 0);
    EXPECT_EQ(admin.DeadLetterCount(Tenant(i)).value_or(-1), 1);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kTenants; ++i) {
    const std::string undo = "undo-" + std::to_string(i);
    EXPECT_EQ(std::count(executed_.begin(), executed_.end(), undo), 1);
  }
}

// A pointer whose db_key does not parse is moved into the top-level
// zone's quarantine instead of blocking the queue.
TEST_P(PipelinePathTest, CorruptPointerIsQuarantined) {
  Build();
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(kCluster);
  std::string bad_id;
  auto plant = [&](fdb::Transaction& txn) -> Status {
    ck::QueueZone top = quick_->OpenTopZone(cluster_db, &txn);
    ck::QueuedItem item;
    item.job_type = ck::kPointerJobType;
    item.db_key = "not|a|valid|pointer";
    QUICK_ASSIGN_OR_RETURN(bad_id, top.Enqueue(std::move(item), 0));
    return Status::OK();
  };
  ASSERT_TRUE(fdb::RunTransaction(cluster_db.cluster, plant).ok());
  auto consumer = MakeConsumer(AsyncConfig());
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return consumer->stats().items_quarantined.Value() >= 1;
  }));
  EXPECT_EQ(consumer->stats().items_quarantined.Value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(kCluster).value_or(-1), 0);
  core::QuickAdmin admin(quick_.get());
  auto dls = admin.ListClusterDeadLetters(kCluster);
  ASSERT_TRUE(dls.ok()) << dls.status();
  ASSERT_EQ(dls->size(), 1u);
  EXPECT_EQ((*dls)[0].id, bad_id);
  EXPECT_EQ((*dls)[0].reason, "corrupt_pointer");
}

// max_concurrent = 1: a second item of the type dispatched while the
// first holds the slot is requeued, never run alongside it. Inline
// processing finishes each item before dispatching the next, so only the
// pipelined mode ever trips the throttle.
TEST_P(PipelinePathTest, ThrottleRequeuesItemsOverTheTypeCap) {
  Build();
  core::RetryPolicy policy;
  policy.max_concurrent = 1;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  core::Consumer* consumer_ptr = nullptr;
  registry_.Register(
      "capped",
      [&](core::WorkContext& ctx) {
        const int now = running.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        if (Pipelined()) {
          // Hold the type's only slot until a second dispatch is refused.
          WaitUntil(
              [&] {
                return consumer_ptr->stats().items_throttled.Value() > 0;
              },
              10000);
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          executed_.push_back(ctx.item.payload);
        }
        running.fetch_sub(1);
        return Status::OK();
      },
      policy);
  constexpr int kItems = 4;
  for (int i = 0; i < kItems; ++i) {
    MustEnqueue(Tenant(0), "capped", std::to_string(i));
  }
  auto consumer = MakeConsumer(AsyncConfig());
  consumer_ptr = consumer.get();
  // Waits for the completions to commit too: a pipelined Stop() abandons a
  // finish transaction still in flight, leaving its item in the zone.
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return ExecutedCount() >= kItems &&
           quick_->PendingCount(Tenant(0)).value_or(-1) == 0;
  }));
  EXPECT_EQ(peak.load(), 1);
  EXPECT_EQ(quick_->PendingCount(Tenant(0)).value_or(-1), 0);
  if (Pipelined()) {
    EXPECT_GT(consumer->stats().items_throttled.Value(), 0);
  } else {
    EXPECT_EQ(consumer->stats().items_throttled.Value(), 0);
  }
}

/// Refuses the first `refusals` dispatches, then admits everything.
class RefuseFirstDispatches : public core::AdmissionGate {
 public:
  explicit RefuseFirstDispatches(int refusals) : remaining_(refusals) {}
  core::AdmissionDecision AdmitEnqueue(const ck::DatabaseId&,
                                       const std::string&, int64_t) override {
    return {};
  }
  core::AdmissionDecision AdmitDispatch(const ck::DatabaseId&,
                                        const std::string&,
                                        int64_t) override {
    if (remaining_.fetch_sub(1) <= 0) return {};
    core::AdmissionDecision d;
    d.outcome = core::AdmissionDecision::Outcome::kThrottle;
    d.retry_after_millis = 20;
    d.level = "tenant";
    return d;
  }

 private:
  std::atomic<int> remaining_;
};

// A dispatch refused by the admission gate requeues the already-dequeued
// item after the gate's retry-after hint; it runs once admitted.
TEST_P(PipelinePathTest, DispatchGateRequeuesRefusedItems) {
  Build();
  RegisterTracker("track");
  constexpr int kRefusals = 3;
  RefuseFirstDispatches gate(kRefusals);
  quick_->set_admission(&gate);
  constexpr int kTenants = 4;
  for (int i = 0; i < kTenants; ++i) {
    MustEnqueue(Tenant(i), "track", std::to_string(i));
  }
  auto consumer = MakeConsumer(AsyncConfig());
  // Waits for the completions to commit too (see
  // ThrottleRequeuesItemsOverTheTypeCap).
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    if (ExecutedCount() < kTenants) return false;
    for (int i = 0; i < kTenants; ++i) {
      if (quick_->PendingCount(Tenant(i)).value_or(-1) != 0) return false;
    }
    return true;
  }));
  quick_->set_admission(nullptr);
  EXPECT_EQ(consumer->stats().items_dispatch_throttled.Value(), kRefusals);
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_EQ(quick_->PendingCount(Tenant(i)).value_or(-1), 0);
  }
}

// FIFO tenant zones: each tenant's items run in enqueue order whatever
// their priorities, and the pointers still GC once the zones drain.
TEST_P(PipelinePathTest, FifoZonesRunInEnqueueOrder) {
  Build(/*fifo=*/true);
  std::map<std::string, std::vector<std::string>> order;
  registry_.Register("fifo", [&](core::WorkContext& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    order[ctx.db_id.user].push_back(ctx.item.payload);
    executed_.push_back(ctx.db_id.user + "/" + ctx.item.payload);
    return Status::OK();
  });
  constexpr int kTenants = 3;
  const std::vector<int64_t> priorities = {9, 0, 5, 1, 7};
  for (int t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < priorities.size(); ++i) {
      MustEnqueue(Tenant(t), "fifo", std::to_string(i), priorities[i]);
    }
  }
  core::ConsumerConfig config = AsyncConfig();
  // One worker: execution order is dispatch order, which FIFO fixes.
  config.num_worker_threads = 1;
  auto consumer = MakeConsumer(config);
  const size_t total = kTenants * priorities.size();
  EXPECT_TRUE(DriveUntil(consumer.get(), [&] {
    return ExecutedCount() >= total &&
           quick_->TopLevelCount(kCluster).value_or(-1) == 0;
  }));
  std::lock_guard<std::mutex> lock(mu_);
  ASSERT_EQ(order.size(), static_cast<size_t>(kTenants));
  for (const auto& [tenant, seen] : order) {
    EXPECT_EQ(seen, (std::vector<std::string>{"0", "1", "2", "3", "4"}))
        << tenant;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PipelinePathTest,
    ::testing::Values(Mode::kRunOnePass, Mode::kPipelined),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return std::string(ModeName(info.param));
    });

}  // namespace
}  // namespace quick::wl
