// Randomized end-to-end "chaos" property test: a scripted interleaving of
// enqueues, consumer passes, clock advances, tenant migrations (through
// control::TenantBalancer), and injected FDB faults, driven synchronously
// from one thread with a manual clock (fully deterministic per seed). Moves
// left mid-way are resumed, then the invariants of DESIGN.md §4 are
// checked:
//   1. findability — every enqueued-and-not-yet-executed item is reachable
//      via a pointer in some cluster's top-level queue;
//   2. eventual execution — draining afterwards executes everything
//      exactly the expected number of distinct items (at-least-once);
//   3. no stray pointers — after a full drain plus GC grace, top-level
//      queues hold nothing;
//   4. loss accounting — with poison (permanently failing) and doomed
//      (retry-exhausting) job types in the mix, every enqueued item ends
//      either executed or dead-lettered, never silently lost; and after an
//      operator requeue of every dead letter (handlers healed), everything
//      executes and the quarantines are empty.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "control/balancer.h"
#include "fdb/retry.h"
#include "quick/admin.h"
#include "quick/consumer.h"
#include "quick/trace_hooks.h"

namespace quick::core {
namespace {

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, InvariantsHoldUnderRandomInterleavings) {
  Random rng(GetParam());
  ManualClock clock(1000000);

  fdb::Database::Options opts;
  opts.clock = &clock;
  // Mild fault injection on every cluster (deterministic per seed).
  opts.faults.unknown_result_applied = 0.01;
  opts.faults.unknown_result_dropped = 0.01;
  opts.faults.commit_unavailable = 0.02;
  opts.faults.seed = GetParam();
  // Scheduled fault windows layered on top: a full outage, an
  // elevated-failure window, and a latency spike, placed inside the time
  // range the 400-step script typically covers.
  opts.fault_plan.Add(fdb::FaultWindow::Outage(1003000, 1006000));
  fdb::FaultWindow elevated;
  elevated.start_millis = 1008000;
  elevated.end_millis = 1012000;
  elevated.commit_unavailable = 0.2;
  elevated.read_unavailable = 0.05;
  opts.fault_plan.Add(elevated);
  opts.fault_plan.Add(fdb::FaultWindow::LatencySpike(1014000, 1016000, 50));
  fdb::ClusterSet clusters(opts);
  clusters.AddCluster("c1");
  clusters.AddCluster("c2");
  ck::CloudKitService cloudkit(&clusters, &clock);
  Quick quick(&cloudkit);

  std::set<std::string> executed;
  bool healed = false;  // flips after the operator requeues dead letters
  JobRegistry registry;
  registry.Register("chaos", [&](WorkContext& ctx) {
    executed.insert(ctx.item.id);
    return Status::OK();
  });
  // Poison: fails permanently until "the bug is fixed" — quarantined on
  // first terminal attempt (default policy).
  registry.Register("poison", [&](WorkContext& ctx) {
    if (!healed) return Status::Permanent("poison");
    executed.insert(ctx.item.id);
    return Status::OK();
  });
  // Doomed: transient failures that exhaust a 2-attempt budget.
  RetryPolicy doom_policy;
  doom_policy.max_inline_retries = 0;
  doom_policy.max_attempts = 2;
  doom_policy.drop_on_exhaust = true;
  doom_policy.backoff_initial_millis = 10;
  registry.Register(
      "doom",
      [&](WorkContext& ctx) {
        if (!healed) return Status::Unavailable("doomed");
        executed.insert(ctx.item.id);
        return Status::OK();
      },
      doom_policy);

  ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.dequeue_max = 2;
  config.pointer_lease_millis = 500;
  config.item_lease_millis = 1000;
  config.min_inactive_millis = 2000;
  Consumer consumer(&quick, {"c1", "c2"}, &registry, config, "chaos-consumer");
  control::TenantBalancer balancer(&quick);

  constexpr int kTenants = 6;
  auto tenant = [&](int i) {
    return ck::DatabaseId::Private("chaos-app", "user" + std::to_string(i));
  };
  std::set<std::string> enqueued;

  for (int step = 0; step < 400; ++step) {
    const uint64_t action = rng.Uniform(100);
    if (action < 45) {
      // Enqueue (sometimes delayed) for a random tenant; mostly healthy
      // items, with a poison/doomed minority that must end up quarantined.
      WorkItem item;
      const uint64_t kind = rng.Uniform(100);
      item.job_type = kind < 80 ? "chaos" : (kind < 90 ? "poison" : "doom");
      const int64_t delay =
          rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Uniform(3000)) : 0;
      auto id = quick.Enqueue(tenant(static_cast<int>(rng.Uniform(kTenants))),
                              item, delay);
      if (id.ok()) enqueued.insert(*id);
      // Enqueues may fail under injected faults — that is fine; the client
      // saw the failure.
    } else if (action < 80) {
      // Consumer pass over a random cluster.
      (void)consumer.RunOnePass(rng.Bernoulli(0.5) ? "c1" : "c2");
    } else if (action < 95) {
      clock.AdvanceMillis(1 + static_cast<int64_t>(rng.Uniform(800)));
    } else {
      // Migrate a random tenant to the other cluster. Half the moves run
      // only 1–3 transitions, as if the balancer died mid-move. A move
      // left in flight (so, or by a fault) stays persisted on its source:
      // a later move of the tenant to the same destination continues it,
      // one to the other cluster is refused, and both are resumed below.
      const ck::DatabaseId db = tenant(static_cast<int>(rng.Uniform(kTenants)));
      auto placed = cloudkit.placement()->Get(db);
      if (placed.has_value()) {
        const std::string dest = *placed == "c1" ? "c2" : "c1";
        if (rng.Bernoulli(0.5)) {
          (void)balancer.MoveTenant(db, dest);
        } else {
          for (int i = 1 + static_cast<int>(rng.Uniform(3)); i > 0; --i) {
            Result<control::MovePhase> phase = balancer.Step(db, dest);
            if (!phase.ok() || *phase == control::MovePhase::kDone) break;
          }
        }
      }
    }
  }

  // Let every scheduled fault window expire before checking invariants:
  // findability is only promised of a reachable cluster.
  if (clock.NowMillis() <= opts.fault_plan.EndMillis()) {
    clock.AdvanceMillis(opts.fault_plan.EndMillis() - clock.NowMillis() + 1);
  }

  // Run every move left mid-way forward to its destination, so the checks
  // below cover tenants whose move stopped or failed. (Resume can still
  // fail under the residual probabilistic faults; retry it.)
  for (int i = 0; i < kTenants; ++i) {
    Result<control::MovePhase> phase = balancer.Phase(tenant(i));
    for (int tries = 0; tries < 10; ++tries) {
      if (phase.ok() && *phase == control::MovePhase::kIdle) break;
      if (phase.ok()) (void)balancer.Resume(tenant(i));
      phase = balancer.Phase(tenant(i));
    }
    ASSERT_TRUE(phase.ok()) << phase.status();
    ASSERT_EQ(*phase, control::MovePhase::kIdle) << tenant(i).ToString();
  }

  // Findability check on the final state: every pending (non-executed)
  // enqueued item must be reachable via some pointer.
  QuickAdmin admin(&quick);
  std::set<std::string> reachable;
  for (const std::string& cluster : {std::string("c1"), std::string("c2")}) {
    auto rows = admin.ListOutstandingQueues(cluster, 0);
    ASSERT_TRUE(rows.ok());
    for (const QuickAdmin::OutstandingQueue& row : *rows) {
      fdb::Database* db = clusters.Get(cluster);
      Status st = fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
        const tup::Subspace zone_subspace = ck::CloudKitService::ZoneSubspace(
            row.pointer.db_id, row.pointer.zone);
        ck::QueueZone zone(&txn, zone_subspace, &clock);
        QUICK_ASSIGN_OR_RETURN(std::vector<rl::Record> all,
                               zone.store()->ScanRecords());
        for (rl::Record& rec : all) {
          QUICK_ASSIGN_OR_RETURN(ck::QueuedItem item,
                                 ck::QueuedItem::FromRecord(std::move(rec)));
          reachable.insert(item.id);
        }
        return Status::OK();
      });
      ASSERT_TRUE(st.ok());
    }
  }
  // Dead-letter snapshot across every tenant quarantine (reads can fail
  // under the residual probabilistic faults; callers retry).
  auto dead_lettered = [&]() -> std::set<std::string> {
    std::set<std::string> dl;
    for (int i = 0; i < kTenants; ++i) {
      for (int tries = 0; tries < 10; ++tries) {
        auto items = admin.ListDeadLetters(tenant(i));
        if (!items.ok()) continue;
        for (const ck::DeadLetterItem& item : *items) dl.insert(item.id);
        break;
      }
    }
    return dl;
  };

  std::set<std::string> quarantined = dead_lettered();
  for (const std::string& id : enqueued) {
    if (executed.count(id)) continue;
    EXPECT_TRUE(reachable.count(id) || quarantined.count(id))
        << "pending item " << id
        << " neither reachable nor dead-lettered: silently lost";
  }

  // Drain to a terminal state: every enqueued item either executes or
  // lands in a quarantine — the "no item is ever silently lost" invariant.
  // (executed may contain extra ids from enqueues that failed with
  // commit-unknown-result yet actually landed; compare as a superset.)
  auto all_accounted = [&] {
    quarantined = dead_lettered();
    for (const std::string& id : enqueued) {
      if (!executed.count(id) && !quarantined.count(id)) return false;
    }
    return true;
  };
  for (int round = 0; round < 300 && !all_accounted(); ++round) {
    clock.AdvanceMillis(400);
    (void)consumer.RunOnePass("c1");
    (void)consumer.RunOnePass("c2");
  }
  for (const std::string& id : enqueued) {
    EXPECT_TRUE(executed.count(id) || quarantined.count(id))
        << "item " << id << " neither executed nor dead-lettered";
    EXPECT_FALSE(executed.count(id) && quarantined.count(id))
        << "item " << id << " both executed and dead-lettered";
  }

  // Operator drain: fix the handlers, requeue every dead letter, and run
  // to completion — requeued items go through the full enqueue protocol,
  // so their pointers reappear and they execute like fresh work.
  healed = true;
  for (int round = 0; round < 50 && !dead_lettered().empty(); ++round) {
    for (int i = 0; i < kTenants; ++i) {
      (void)admin.RequeueAllDeadLetters(tenant(i));
    }
  }
  auto all_executed = [&] {
    for (const std::string& id : enqueued) {
      if (!executed.count(id)) return false;
    }
    return true;
  };
  for (int round = 0; round < 300 && !all_executed(); ++round) {
    clock.AdvanceMillis(400);
    (void)consumer.RunOnePass("c1");
    (void)consumer.RunOnePass("c2");
  }
  for (const std::string& id : enqueued) {
    EXPECT_TRUE(executed.count(id)) << "item " << id << " never executed";
  }
  EXPECT_TRUE(dead_lettered().empty())
      << "quarantines not empty after operator requeue";

  // GC: after the grace period every pointer disappears.
  for (int round = 0; round < 30; ++round) {
    clock.AdvanceMillis(1000);
    (void)consumer.RunOnePass("c1");
    (void)consumer.RunOnePass("c2");
  }
  EXPECT_EQ(quick.TopLevelCount("c1").value_or(-1), 0);
  EXPECT_EQ(quick.TopLevelCount("c2").value_or(-1), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 7, 42, 1234, 20260705));

// Span-chain completeness under chaos: randomized enqueues (healthy,
// transiently flaky, and poison items), a consumer crash with a takeover
// replacement, a scheduled cluster outage, and probabilistic commit
// failures — then, after the system drains to empty queues and empty
// quarantines, every client-confirmed enqueue must have a complete trace:
//   - the chain starts with a birth span (enqueued);
//   - split at birth spans (operator dead-letter requeues open new
//     incarnations), every incarnation ends in exactly one terminal span
//     (completed/quarantined/dropped), recorded by whichever consumer's
//     transition actually committed — crashes and fences never double- or
//     zero-count a terminal;
//   - every dequeue span links to a live pointer chain;
//   - the span store dropped and evicted nothing.
// Unknown-result faults are deliberately excluded: under those a consumer
// can see an error for a transition that landed, so the true terminal
// span is legitimately missing (the chain ends on a fence instead) and
// exactly-one-terminal is not a theorem.
class SpanChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpanChaosTest, EveryIncarnationEndsInExactlyOneTerminalSpan) {
  const uint64_t seed = GetParam();
  Random rng(seed);
  ManualClock clock(1000000);

  fdb::Database::Options base;
  base.clock = &clock;
  base.faults.commit_unavailable = 0.02;
  base.faults.seed = seed;
  fdb::ClusterSet clusters(base);
  fdb::Database::Options c1_opts = base;
  c1_opts.fault_plan.Add(fdb::FaultWindow::Outage(1004000, 1007000));
  clusters.AddCluster("c1", c1_opts);
  clusters.AddCluster("c2");
  ck::CloudKitService cloudkit(&clusters, &clock);
  Quick quick(&cloudkit);

  // A span store big enough that nothing is evicted or dropped — the
  // completeness property needs every chain intact.
  Tracer::Options topts;
  topts.max_traces = 1 << 16;
  topts.max_spans_per_trace = 1 << 12;
  Tracer tracer(topts);
  quick.set_tracer(&tracer);  // before consumers capture it

  std::set<std::string> executed;
  std::map<std::string, int> flaky_attempts;
  bool healed = false;
  JobRegistry registry;
  registry.Register("chaos", [&](WorkContext& ctx) {
    executed.insert(ctx.item.id);
    return Status::OK();
  });
  RetryPolicy flaky_policy;
  flaky_policy.max_inline_retries = 0;
  flaky_policy.max_attempts = 100;
  flaky_policy.backoff_initial_millis = 50;
  registry.Register(
      "flaky",
      [&](WorkContext& ctx) {
        if (flaky_attempts[ctx.item.id]++ == 0) {
          return Status::Unavailable("first attempt flaps");
        }
        executed.insert(ctx.item.id);
        return Status::OK();
      },
      flaky_policy);
  registry.Register("poison", [&](WorkContext& ctx) {
    if (!healed) return Status::Permanent("poison");
    executed.insert(ctx.item.id);
    return Status::OK();
  });

  ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.dequeue_max = 2;
  config.pointer_lease_millis = 500;
  config.item_lease_millis = 1000;
  config.min_inactive_millis = 2000;
  std::vector<std::unique_ptr<Consumer>> consumers;
  for (int i = 0; i < 2; ++i) {
    consumers.push_back(std::make_unique<Consumer>(
        &quick, std::vector<std::string>{"c1", "c2"}, &registry, config,
        "chaos-consumer-" + std::to_string(i)));
  }

  constexpr int kTenants = 6;
  auto tenant = [&](int i) {
    return ck::DatabaseId::Private("span-app", "user" + std::to_string(i));
  };
  std::set<std::string> enqueued;

  for (int step = 0; step < 300; ++step) {
    if (step == 150) {
      // Crash/takeover: consumer 0 freezes mid-lease (its pointer and
      // item leases are abandoned and expire); a replacement joins.
      consumers[0]->SimulateCrash();
      consumers.push_back(std::make_unique<Consumer>(
          &quick, std::vector<std::string>{"c1", "c2"}, &registry, config,
          "chaos-consumer-2"));
    }
    const uint64_t action = rng.Uniform(100);
    if (action < 45) {
      WorkItem item;
      const uint64_t kind = rng.Uniform(100);
      item.job_type = kind < 70 ? "chaos" : (kind < 85 ? "flaky" : "poison");
      const int64_t delay =
          rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Uniform(2000)) : 0;
      auto id = quick.Enqueue(tenant(static_cast<int>(rng.Uniform(kTenants))),
                              item, delay);
      if (id.ok()) enqueued.insert(*id);
    } else if (action < 85) {
      Consumer& c = *consumers[rng.Uniform(consumers.size())];
      if (!c.crashed()) {
        (void)c.RunOnePass(rng.Bernoulli(0.5) ? "c1" : "c2");
      }
    } else {
      clock.AdvanceMillis(1 + static_cast<int64_t>(rng.Uniform(600)));
    }
  }
  ASSERT_FALSE(enqueued.empty());

  // Let the outage window expire, then drain: everything executes or
  // lands in a quarantine.
  if (clock.NowMillis() <= 1007000) {
    clock.AdvanceMillis(1007000 - clock.NowMillis() + 1);
  }
  QuickAdmin admin(&quick);
  auto dead_lettered = [&]() -> std::set<std::string> {
    std::set<std::string> dl;
    for (int i = 0; i < kTenants; ++i) {
      for (int tries = 0; tries < 10; ++tries) {
        auto items = admin.ListDeadLetters(tenant(i));
        if (!items.ok()) continue;
        for (const ck::DeadLetterItem& item : *items) dl.insert(item.id);
        break;
      }
    }
    return dl;
  };
  auto run_all = [&] {
    for (auto& c : consumers) {
      if (c->crashed()) continue;
      (void)c->RunOnePass("c1");
      (void)c->RunOnePass("c2");
    }
  };
  auto all_accounted = [&] {
    const std::set<std::string> dl = dead_lettered();
    for (const std::string& id : enqueued) {
      if (!executed.count(id) && !dl.count(id)) return false;
    }
    return true;
  };
  for (int round = 0; round < 300 && !all_accounted(); ++round) {
    clock.AdvanceMillis(400);
    run_all();
  }
  ASSERT_TRUE(all_accounted());

  // Heal the poison handler and requeue every dead letter; requeued items
  // open a second incarnation that must complete.
  healed = true;
  for (int round = 0; round < 50 && !dead_lettered().empty(); ++round) {
    for (int i = 0; i < kTenants; ++i) {
      (void)admin.RequeueAllDeadLetters(tenant(i));
    }
    clock.AdvanceMillis(400);
    run_all();
  }
  ASSERT_TRUE(dead_lettered().empty());

  // Drain to empty top-level queues: only then has every item's terminal
  // transition actually committed (a completed handler whose commit kept
  // failing would otherwise still hold a span-less lease).
  for (int round = 0; round < 60; ++round) {
    clock.AdvanceMillis(1000);
    run_all();
  }
  ASSERT_EQ(quick.TopLevelCount("c1").value_or(-1), 0);
  ASSERT_EQ(quick.TopLevelCount("c2").value_or(-1), 0);

  // --- The completeness property. ---
  EXPECT_EQ(tracer.EvictedTraces(), 0u);
  EXPECT_EQ(tracer.DroppedSpans(), 0u);
  for (const std::string& id : enqueued) {
    const std::vector<Span> chain = tracer.TraceOf(id);
    ASSERT_FALSE(chain.empty()) << "no trace for enqueued item " << id;
    EXPECT_TRUE(IsBirthStage(chain.front().name))
        << "chain of " << id << " starts with " << chain.front().name;

    std::vector<std::vector<const Span*>> incarnations;
    for (const Span& span : chain) {
      if (IsBirthStage(span.name) || incarnations.empty()) {
        incarnations.emplace_back();
      }
      incarnations.back().push_back(&span);
    }
    for (size_t i = 0; i < incarnations.size(); ++i) {
      int terminals = 0;
      for (const Span* span : incarnations[i]) {
        if (IsTerminalStage(span->name)) ++terminals;
      }
      EXPECT_EQ(terminals, 1)
          << "item " << id << " incarnation " << i << " has " << terminals
          << " terminal spans";
      EXPECT_TRUE(IsTerminalStage(incarnations[i].back()->name))
          << "item " << id << " incarnation " << i << " ends on "
          << incarnations[i].back()->name;
    }

    if (executed.count(id)) {
      bool has_execute = false;
      for (const Span& span : chain) {
        if (span.name == stage::kExecute) has_execute = true;
      }
      EXPECT_TRUE(has_execute) << "executed item " << id << " has no "
                               << "execute span";
    }
    for (const Span& span : chain) {
      if (span.name == stage::kDequeued) {
        EXPECT_FALSE(span.parent_trace.empty());
        EXPECT_TRUE(tracer.Has(span.parent_trace))
            << "dequeue of " << id << " links to unknown pointer trace "
            << span.parent_trace;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanChaosTest,
                         ::testing::Values(1, 7, 42, 1234, 20260705));

}  // namespace
}  // namespace quick::core
