// One way into a queue. Every enqueue entry point is one row of a table —
// Quick::Enqueue, EnqueueBatch, EnqueueAsync and EnqueueLocal,
// WorkflowEngine::Start and StartAsync, QuickAdmin::RequeueDeadLetter and
// RequeueClusterDeadLetter, wl::Harness::EnqueueSim, and a consumer finish
// whose handler returns one continuation — and every row must behave the
// same way, except where a row's flags say a check does not apply:
//  (a) a refusing admission gate yields kThrottled and writes nothing (no
//      item, no pointer, no workflow record); operator requeues, local
//      items and continuations are uncharged and go through;
//  (b) a sealed tenant yields kTenantMoving only after the runner's fence
//      retry budget (Quick::kMoveRetryAttempts sleeps of
//      kMoveRetryDelayMillis) and writes nothing; a dead letter stays
//      quarantined. Local items have no fence; a continuation's fence fails
//      its whole finish at once instead of being retried, and the consumer
//      records the failure (a finish_failed span naming kTenantMoving);
//  (c) a committed request adds its item count to ck.tenant.enqueued,
//      records each item's birth span, and records kPointerCreated iff it
//      made the tenant's Q_C pointer (local items have none).
// And a 3-item EnqueueSim costs exactly the GRVs and reads of a 3-item
// EnqueueBatch.
//
// Rows run over in-process clusters on a ManualClock (async rows on a
// ManualExecutor), except EnqueueSim, which exists only on the workload
// harness and so runs on the system clock.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloudkit/migration_state.h"
#include "cloudkit/workflow_record.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "fdb/cluster_set.h"
#include "fdb/executor.h"
#include "fdb/retry.h"
#include "quick/admin.h"
#include "quick/consumer.h"
#include "quick/quick.h"
#include "quick/trace_hooks.h"
#include "workflow/workflow.h"
#include "workload/harness.h"

namespace quick::core {
namespace {

/// Refuses every enqueue and remembers what it was asked to charge.
class RefusingGate : public AdmissionGate {
 public:
  AdmissionDecision AdmitEnqueue(const ck::DatabaseId&, const std::string&,
                                 int64_t cost) override {
    ++calls;
    charged += cost;
    AdmissionDecision d;
    d.outcome = AdmissionDecision::Outcome::kThrottle;
    d.retry_after_millis = 20;
    d.level = "tenant";
    return d;
  }
  AdmissionDecision AdmitDispatch(const ck::DatabaseId&, const std::string&,
                                  int64_t) override {
    return {};
  }

  int calls = 0;
  int64_t charged = 0;
};

class ProducerPathTest;

/// One entry point.
struct EntryPoint {
  std::string name;
  /// Items one call enqueues.
  int items = 1;
  /// Whether the call is charged by admission (client enqueues; not
  /// operator requeues, local items or continuations).
  bool charged = true;
  /// An operator requeue: its items are reborn kDeadLetterRequeued.
  bool requeue = false;
  /// §6 local items: into the cluster's Q_C, with no fence and no pointer.
  bool local = false;
  /// A continuation, staged inside a consumer's finish: the finishing
  /// item's enqueue made the pointer, and a fence fails the whole finish
  /// instead of being retried.
  bool in_finish = false;
  /// EnqueueSim exists only on the workload harness.
  bool on_harness = false;
  /// Calls the entry point once for tenant `tenant` (ProducerPathTest::Db).
  std::function<Status(ProducerPathTest&, int tenant)> call;
};

void PrintTo(const EntryPoint& row, std::ostream* os) { *os << row.name; }

class ProducerPathTest : public ::testing::TestWithParam<EntryPoint> {
 public:
  ProducerPathTest() {
    if (GetParam().on_harness) {
      wl::HarnessOptions options;
      options.work_millis = 0;
      harness_ = std::make_unique<wl::Harness>(options);
      quick_ = harness_->quick();
    } else {
      fdb::Database::Options opts;
      opts.clock = &clock_;
      clusters_ = std::make_unique<fdb::ClusterSet>(opts);
      clusters_->AddCluster("c1");
      ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
      own_quick_ = std::make_unique<Quick>(ck_.get());
      quick_ = own_quick_.get();
    }
    quick_->set_tracer(&tracer_);
    engine_ = std::make_unique<wf::WorkflowEngine>(quick_, &registry_);
    wf::SagaSpec saga;
    saga.name = "saga";
    wf::StepSpec step;
    step.name = "only";
    step.run = [](WorkContext&, wf::StepContext&) { return Status::OK(); };
    saga.steps.push_back(step);
    EXPECT_TRUE(engine_->RegisterSaga(saga).ok());
    admin_ = std::make_unique<QuickAdmin>(quick_);
  }

  /// The database a row's calls enqueue into: the tenant's, or for local
  /// rows the cluster's ClusterDB.
  ck::DatabaseId Db(int tenant) const {
    if (GetParam().local) return ck::DatabaseId::Cluster("c1");
    return harness_ != nullptr ? harness_->ClientDb(tenant)
                               : ck::DatabaseId::Private(
                                     "producer", "t" + std::to_string(tenant));
  }

  static WorkItem Item() {
    WorkItem item;
    item.job_type = "job";
    item.payload = "p";
    return item;
  }

  /// Pumps the executor until `f` resolves: due timers fire a millisecond
  /// of virtual time at a time; a commit ack arrives from the cluster's
  /// pump thread.
  void Pump(const fdb::Future<Status>& f) {
    for (int i = 0; i < 100000 && !f.IsReady(); ++i) {
      exec_.RunUntilIdle();
      if (f.IsReady()) break;
      if (exec_.PendingTimers() > 0) {
        exec_.AdvanceMillis(1);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ASSERT_TRUE(f.IsReady()) << "async request never resolved";
  }

  /// Time the runner has spent: the clock it sleeps on plus the
  /// executor's virtual time.
  int64_t Elapsed() const {
    return quick_->clock()->NowMillis() + exec_.now_millis();
  }

  /// Plants a quarantined item in the tenant's zone, or a local row's
  /// Q_C shard (raw writes: no pointer, no spans, no counters), and
  /// returns its id.
  std::string PlantDeadLetter(int tenant) {
    const std::string id = "dl-" + std::to_string(++planted_);
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      ck::QueueZone zone = GetParam().local
                               ? quick_->OpenTopZoneFor(db, id, &txn)
                               : quick_->OpenTenantZone(db, &txn);
      ck::QueuedItem item;
      item.id = id;
      item.job_type = "job";
      QUICK_RETURN_IF_ERROR(zone.Enqueue(item, 0).status());
      return zone.Quarantine(id, std::nullopt, "permanent", "bug");
    });
    EXPECT_TRUE(st.ok()) << st;
    return id;
  }

  /// Plants an item of type "finish" in the tenant's zone with parts one
  /// and two but no epilogue (it makes the pointer when missing or lowers
  /// it; no counters, no spans) and returns its id. ZoneIds leaves it out.
  std::string PlantFinishingItem(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    WorkItem item;
    item.job_type = "finish";
    item.id = "finishing-" + std::to_string(++planted_);
    EnqueueFollowUp follow_up;
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      return quick_->EnqueueInTransaction(&txn, db, item, 0, &follow_up)
          .status();
    });
    EXPECT_TRUE(st.ok()) << st;
    quick_->ExecuteFollowUp(db, follow_up);
    finishing_.insert(item.id);
    return item.id;
  }

  /// Lowers the tenant's migration fence; returns whether one was up.
  bool LiftSeal(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    bool was_sealed = false;
    EXPECT_TRUE(fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
                  QUICK_ASSIGN_OR_RETURN(
                      std::optional<std::string> raw,
                      txn.Get(ck::MoveState::Key(Db(tenant))));
                  was_sealed = raw.has_value();
                  txn.Clear(ck::MoveState::Key(Db(tenant)));
                  return Status::OK();
                }).ok());
    return was_sealed;
  }

  /// Raises the migration fence on the tenant's home cluster, as a
  /// balancer's seal does.
  void Seal(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    ck::MoveState seal;
    seal.phase = ck::MoveState::kSealed;
    seal.dest_cluster = "elsewhere";
    ASSERT_TRUE(fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
                  txn.Set(ck::MoveState::Key(Db(tenant)), seal.Encode());
                  return Status::OK();
                }).ok());
  }

  /// Ids of the live items in the tenant's queue zone, or for local rows
  /// in the cluster's Q_C (pointers aside); planted finishing items are
  /// left out.
  std::set<std::string> ZoneIds(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    std::set<std::string> ids;
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      ids.clear();
      auto collect = [&](ck::QueueZone zone) -> Status {
        QUICK_ASSIGN_OR_RETURN(std::vector<ck::QueuedItem> items,
                               zone.SnapshotAll());
        for (const ck::QueuedItem& item : items) {
          if (item.job_type == ck::kPointerJobType) continue;
          if (finishing_.count(item.id) == 0) ids.insert(item.id);
        }
        return Status::OK();
      };
      if (!GetParam().local) return collect(quick_->OpenTenantZone(db, &txn));
      for (const std::string& shard :
           quick_->TopZoneNames(db.cluster->name())) {
        QUICK_RETURN_IF_ERROR(
            collect(quick_->cloudkit()->OpenQueueZone(db, shard, &txn)));
      }
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return ids;
  }

  /// Workflow records stored for the tenant.
  size_t WorkflowRecords(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    size_t n = 0;
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      QUICK_ASSIGN_OR_RETURN(
          std::vector<fdb::KeyValue> kvs,
          txn.GetRange(ck::WorkflowRecord::SubspaceFor(Db(tenant)).Range()));
      n = kvs.size();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return n;
  }

  int64_t TopLevelEntries(int tenant) {
    const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(Db(tenant));
    return quick_->TopLevelCount(db.cluster->name()).value_or(-1);
  }

  int64_t DeadLetters(int tenant) {
    return admin_->DeadLetterCount(Db(tenant)).value_or(-1);
  }

  int64_t EnqueuedCounter(int tenant) {
    return MetricsRegistry::Default()
        ->GetCounter(TenantMetrics::kEnqueuedPrefix + Db(tenant).ToString())
        ->Value();
  }

  int SpansNamed(const std::string& trace_id, const std::string& name) {
    int n = 0;
    for (const Span& span : tracer_.TraceOf(trace_id)) {
      if (span.name == name) ++n;
    }
    return n;
  }

  std::string PointerKey(int tenant) const {
    return Pointer{Db(tenant), quick_->config().queue_zone_name}.Key();
  }

  /// Asserts the refused or fenced request left the tenant untouched (a
  /// finishing item's pointer aside, on which the consumer records its
  /// lease spans).
  void ExpectNothingWritten(int tenant, int64_t enqueued_before) {
    EXPECT_TRUE(ZoneIds(tenant).empty());
    EXPECT_EQ(TopLevelEntries(tenant), GetParam().in_finish ? 1 : 0)
        << "a Q_C pointer was created";
    EXPECT_EQ(WorkflowRecords(tenant), 0u);
    EXPECT_EQ(EnqueuedCounter(tenant), enqueued_before);
    if (GetParam().in_finish) {
      EXPECT_EQ(SpansNamed(PointerKey(tenant), stage::kPointerCreated), 0);
    } else {
      EXPECT_FALSE(tracer_.Has(PointerKey(tenant)));
    }
  }

  ManualClock clock_{1000000};
  Tracer tracer_;
  std::unique_ptr<wl::Harness> harness_;
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> own_quick_;
  Quick* quick_ = nullptr;
  JobRegistry registry_;
  std::unique_ptr<wf::WorkflowEngine> engine_;
  std::unique_ptr<QuickAdmin> admin_;
  fdb::ManualExecutor exec_;
  /// Items planted so far; numbers their ids.
  int planted_ = 0;
  /// Planted finishing items (PlantFinishingItem).
  std::set<std::string> finishing_;
};

Status CallEnqueue(ProducerPathTest& t, int tenant) {
  return t.quick_->Enqueue(t.Db(tenant), ProducerPathTest::Item()).status();
}

Status CallEnqueueBatch(ProducerPathTest& t, int tenant) {
  const WorkItem item = ProducerPathTest::Item();
  return t.quick_->EnqueueBatch(t.Db(tenant), {item, item, item}).status();
}

Status CallEnqueueAsync(ProducerPathTest& t, int tenant) {
  std::string id;
  fdb::Future<Status> f = t.quick_->EnqueueAsync(
      t.Db(tenant), ProducerPathTest::Item(), 0, &id, &t.exec_);
  t.Pump(f);
  return f.IsReady() ? f.Get() : Status::TimedOut("never resolved");
}

Status CallStart(ProducerPathTest& t, int tenant) {
  return t.engine_->Start(t.Db(tenant), "saga", "p").status();
}

Status CallStartAsync(ProducerPathTest& t, int tenant) {
  std::string wf;
  fdb::Future<Status> f =
      t.engine_->StartAsync(t.Db(tenant), "saga", "p", &wf, &t.exec_);
  t.Pump(f);
  return f.IsReady() ? f.Get() : Status::TimedOut("never resolved");
}

Status CallRequeueDeadLetter(ProducerPathTest& t, int tenant) {
  return t.admin_->RequeueDeadLetter(t.Db(tenant), t.PlantDeadLetter(tenant));
}

Status CallEnqueueSim(ProducerPathTest& t, int tenant) {
  return t.harness_->EnqueueSim(tenant, 3);
}

Status CallEnqueueLocal(ProducerPathTest& t, int) {
  return t.quick_->EnqueueLocal("c1", ProducerPathTest::Item()).status();
}

Status CallRequeueClusterDeadLetter(ProducerPathTest& t, int tenant) {
  return t.admin_->RequeueClusterDeadLetter("c1", t.PlantDeadLetter(tenant));
}

/// A finish whose handler returns one continuation, driven by RunOnePass.
/// RunOnePass does not return the finish's status, so the call returns OK
/// when the finishing item completed and otherwise what the consumer
/// recorded of the failure: its finish_failed spans' details, one per
/// failed finish it counted. A sealed zone cannot be dequeued: when the
/// tenant starts sealed, the fence is lifted for the dequeue and raised
/// again by the handler, before the finish.
Status CallContinuation(ProducerPathTest& t, int tenant) {
  const bool sealed = t.LiftSeal(tenant);
  const std::string finishing = t.PlantFinishingItem(tenant);
  t.registry_.RegisterWork("finish", [&t, tenant, sealed](WorkContext&) {
    if (sealed) t.Seal(tenant);
    WorkResult result;
    DelayedItem next;
    next.job_type = "job";
    next.payload = "p";
    result.continuations.push_back(next);
    return result;
  });
  t.registry_.Register("job", [](WorkContext&) { return Status::OK(); });
  ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.dequeue_max = 8;  // the previous call's continuation comes first
  Consumer consumer(t.quick_, {"c1"}, &t.registry_, config, "consumer");
  QUICK_RETURN_IF_ERROR(consumer.RunOnePass("c1").status());
  if (t.SpansNamed(finishing, stage::kCompleted) == 1) return Status::OK();
  std::string recorded;
  for (const Span& span : t.tracer_.TraceOf(finishing)) {
    if (span.name == stage::kFinishFailed) recorded += span.detail + "; ";
  }
  EXPECT_EQ(consumer.stats().finishes_failed.Value(),
            t.SpansNamed(finishing, stage::kFinishFailed));
  return Status::FailedPrecondition("the finish of " + finishing +
                                    " did not commit: " + recorded);
}

const EntryPoint kEntryPoints[] = {
    {.name = "Enqueue", .call = CallEnqueue},
    {.name = "EnqueueBatch", .items = 3, .call = CallEnqueueBatch},
    {.name = "EnqueueAsync", .call = CallEnqueueAsync},
    {.name = "Start", .call = CallStart},
    {.name = "StartAsync", .call = CallStartAsync},
    {.name = "RequeueDeadLetter",
     .charged = false,
     .requeue = true,
     .call = CallRequeueDeadLetter},
    {.name = "EnqueueSim",
     .items = 3,
     .on_harness = true,
     .call = CallEnqueueSim},
    {.name = "EnqueueLocal",
     .charged = false,
     .local = true,
     .call = CallEnqueueLocal},
    {.name = "RequeueClusterDeadLetter",
     .charged = false,
     .requeue = true,
     .local = true,
     .call = CallRequeueClusterDeadLetter},
    {.name = "Continuation",
     .charged = false,
     .in_finish = true,
     .call = CallContinuation},
};

TEST_P(ProducerPathTest, RefusingGateThrottlesAndWritesNothing) {
  const EntryPoint& row = GetParam();
  RefusingGate gate;
  quick_->set_admission(&gate);
  const int64_t enqueued_before = EnqueuedCounter(0);

  const Status st = row.call(*this, 0);
  if (!row.charged) {
    // Uncharged: the gate is never asked about the enqueue.
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_EQ(gate.calls, 0);
    EXPECT_EQ(ZoneIds(0).size(), 1u);
    return;
  }
  EXPECT_TRUE(st.IsThrottled()) << st;
  EXPECT_EQ(gate.calls, 1);
  EXPECT_EQ(gate.charged, row.items);
  ExpectNothingWritten(0, enqueued_before);
}

TEST_P(ProducerPathTest, SealedTenantRetriesTheFenceThenWritesNothing) {
  const EntryPoint& row = GetParam();
  Seal(0);
  const int64_t enqueued_before = EnqueuedCounter(0);
  const int64_t t0 = Elapsed();

  const Status st = row.call(*this, 0);
  if (row.local) {
    // No tenant, no fence: the request commits at once.
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_EQ(Elapsed(), t0);
    EXPECT_EQ(ZoneIds(0).size(), 1u);
    return;
  }
  if (row.in_finish) {
    // The fence fails the whole finish at once, and the consumer records
    // why: a finish_failed span naming the step and kTenantMoving. The
    // finishing item's lease then runs out and a consumer at the new home
    // re-executes it.
    const std::string why =
        "complete: " + std::string(StatusCodeName(StatusCode::kTenantMoving));
    EXPECT_NE(st.message().find(why), std::string::npos) << st;
    EXPECT_EQ(Elapsed(), t0);
  } else {
    EXPECT_TRUE(st.IsTenantMoving()) << st;
    const int64_t budget =
        Quick::kMoveRetryAttempts * Quick::kMoveRetryDelayMillis;
    EXPECT_GE(Elapsed() - t0, budget);
    if (!row.on_harness) {
      EXPECT_EQ(Elapsed() - t0, budget);
    }
  }
  ExpectNothingWritten(0, enqueued_before);
  if (row.requeue) {
    EXPECT_EQ(DeadLetters(0), 1) << "the dead letter left the quarantine";
  }
}

TEST_P(ProducerPathTest, CommitCountsSpansAndPointerCreation) {
  const EntryPoint& row = GetParam();
  const char* birth =
      row.requeue ? stage::kDeadLetterRequeued : stage::kEnqueued;
  const bool makes_pointer = !row.local && !row.in_finish;
  std::set<std::string> seen;
  // The first call makes the tenant's pointer; the second finds it.
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const int64_t enqueued_before = EnqueuedCounter(0);
    const Status st = row.call(*this, 0);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(EnqueuedCounter(0) - enqueued_before, row.items);

    std::vector<std::string> fresh;
    for (const std::string& id : ZoneIds(0)) {
      if (seen.insert(id).second) fresh.push_back(id);
    }
    ASSERT_EQ(fresh.size(), static_cast<size_t>(row.items));
    for (const std::string& id : fresh) {
      EXPECT_EQ(SpansNamed(id, birth), 1) << id;
    }
    EXPECT_EQ(SpansNamed(PointerKey(0), stage::kPointerCreated),
              makes_pointer ? 1 : 0);
  }
  // A tenant's one pointer, or both calls' local items.
  EXPECT_EQ(TopLevelEntries(0), row.local ? 2 * row.items : 1);
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ProducerPathTest, ::testing::ValuesIn(kEntryPoints),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return info.param.name;
    });

TEST(ProducerPathCostTest, EnqueueSimCostsWhatEnqueueBatchCosts) {
  wl::HarnessOptions options;
  options.work_millis = 0;
  wl::Harness harness(options);
  fdb::Database* cluster = harness.clusters()->Get("cluster0");
  ASSERT_NE(cluster, nullptr);
  struct Cost {
    int64_t grvs;
    int64_t reads;
  };
  auto measure = [&](const std::function<Status()>& enqueue) {
    const fdb::Database::Stats before = cluster->GetStats();
    EXPECT_TRUE(enqueue().ok());
    const fdb::Database::Stats after = cluster->GetStats();
    return Cost{after.grv_calls - before.grv_calls,
                after.reads - before.reads};
  };
  // Both on a new tenant: the request makes the pointer, so there is no
  // part two to run.
  const Cost sim = measure([&] { return harness.EnqueueSim(0, 3); });
  WorkItem item;
  item.job_type = wl::kSimJobType;
  const Cost batch = measure([&] {
    return harness.quick()
        ->EnqueueBatch(harness.ClientDb(1), {item, item, item})
        .status();
  });
  EXPECT_EQ(sim.grvs, batch.grvs);
  EXPECT_EQ(sim.reads, batch.reads);
  EXPECT_EQ(sim.grvs, 1);
}

}  // namespace
}  // namespace quick::core
