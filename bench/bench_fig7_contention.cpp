// Figure 7: the effect of selection_frac on (a) pointer latency (median
// and tail), (b) failures to obtain a pointer lease as % of attempts,
// split into read-detected vs commit-detected collisions, and (c) maximum
// throughput. Four consumers, uniform load, 1 item per enqueue, random
// pointer selection (no elected sequential scanner — contention is the
// subject here).
//
// Expected shape (paper §8): tiny fractions (0.001) give almost no
// collisions but extreme latency and low throughput; larger fractions
// raise the collision rate until selection_max flattens it, while
// throughput stabilizes from ~0.005 on.

#include "bench_common.h"

namespace quick::bench {
namespace {

void BM_Fig7_SelectionFrac(benchmark::State& state) {
  QuietLogs();
  // selection_frac passed scaled by 1e4 through the integer arg; second
  // arg toggles group commit so the commit-path batching win shows up as
  // end-to-end throughput on the same contended shape.
  const double selection_frac = state.range(0) / 10000.0;
  const bool group_commit = state.range(1) != 0;

  wl::HarnessOptions hopts;
  hopts.num_clusters = 1;
  hopts.work_millis = 1;
  if (!group_commit) hopts.max_commit_batch = 1;
  // Modest injected FDB latencies: without them, lease transactions finish
  // so fast that racing consumers almost never overlap and the collision
  // signal the paper measures disappears.
  hopts.latency.grv_micros = 500;
  hopts.latency.grv_causal_read_risky_micros = 100;
  hopts.latency.read_micros = 100;
  hopts.latency.commit_micros = 2000;
  // Tight version-cache staleness: peek views are near-fresh, so the
  // collision rate is driven by batch size (selection_frac), as in the
  // paper, rather than by a uniform staleness floor.
  hopts.grv_cache_staleness_millis = 5;
  wl::Harness harness(hopts);

  // Many queues relative to consumer capacity, as in the paper (150K
  // queues vs a handful of consumers): the vested-pointer set stays large,
  // so collision probability is governed by how many pointers each scanner
  // selects per peek — i.e. by selection_frac.
  constexpr int kClients = 2000;
  wl::LoadOptions lopts;
  lopts.num_clients = kClients;
  lopts.rate_per_client_hz = 1.0;  // ~2000 items/s offered: overload
  lopts.items_per_enqueue = 1;
  lopts.num_threads = 16;
  wl::OpenLoopGenerator feeder(&harness, lopts);
  feeder.Start();

  core::ConsumerConfig config = BenchConsumerConfig();
  config.dequeue_max = 1;
  config.selection_frac = selection_frac;
  config.selection_max = 200;  // scaled selection_max (paper: 2000)
  config.sequential = false;

  for (auto _ : state) {
    // Plain consumers without the election cache: all randomized.
    std::vector<std::unique_ptr<core::Consumer>> consumers;
    for (int i = 0; i < 4; ++i) {
      consumers.push_back(std::make_unique<core::Consumer>(
          harness.quick(), harness.cluster_names(), harness.registry(),
          config, "fig7-consumer-" + std::to_string(i)));
      consumers.back()->Start();
    }
    SleepMs(500);
    const int64_t before = harness.WorkExecuted();
    for (auto& c : consumers) {
      c->stats().pointer_latency_micros.Reset();
      c->stats().pointer_lease_attempts.Reset();
      c->stats().lease_collisions_read.Reset();
      c->stats().lease_collisions_commit.Reset();
    }
    fdb::Database* cluster =
        harness.clusters()->Get(harness.cluster_names()[0]);
    const fdb::Database::Stats fdb_before = cluster->GetStats();
    const auto t0 = std::chrono::steady_clock::now();
    SleepMs(2500);
    const int64_t after = harness.WorkExecuted();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const fdb::Database::Stats fdb_after = cluster->GetStats();
    PoolStats stats;
    Collect(consumers, &stats);
    StopConsumers(consumers);

    const double attempts =
        std::max<double>(1.0, static_cast<double>(stats.lease_attempts));
    const int64_t window_commits =
        fdb_after.commits_succeeded - fdb_before.commits_succeeded;
    const int64_t window_batches =
        fdb_after.commit_batches - fdb_before.commit_batches;
    state.counters["selection_frac"] = selection_frac;
    state.counters["group_commit"] = group_commit ? 1 : 0;
    state.counters["commits_per_sec"] = window_commits / secs;
    state.counters["commit_conflicts_per_sec"] =
        (fdb_after.conflicts - fdb_before.conflicts) / secs;
    state.counters["avg_batch_size"] =
        window_batches > 0
            ? static_cast<double>(window_commits) / window_batches
            : 0.0;
    state.counters["pointer_p50_ms"] =
        stats.pointer_latency_micros.Percentile(0.50) / 1000.0;
    state.counters["pointer_p999_ms"] =
        stats.pointer_latency_micros.Percentile(0.999) / 1000.0;
    state.counters["collision_pct_total"] =
        100.0 * (stats.collisions_read + stats.collisions_commit) / attempts;
    state.counters["collision_pct_read"] =
        100.0 * stats.collisions_read / attempts;
    state.counters["collision_pct_commit"] =
        100.0 * stats.collisions_commit / attempts;
    state.counters["throughput_items_per_sec"] = (after - before) / secs;
    BenchReportCollector::Global()->ReportRun(
        "BM_Fig7_SelectionFrac/" + std::to_string(state.range(0)) +
            (group_commit ? "/group" : "/single"),
        state,
        {{"pointer_latency_us", &stats.pointer_latency_micros},
         {"item_latency_us", &stats.item_latency_micros}});
  }
  feeder.Stop();
}

BENCHMARK(BM_Fig7_SelectionFrac)
    // selection_frac 0.001, 0.005, 0.01, 0.05, 0.1, 0.5 (scaled by 1e4),
    // each with group commit off (0) and on (1). The CI smoke shape
    // (--benchmark_filter='/500/') runs both commit modes at 0.05.
    ->ArgNames({"frac", "group"})
    ->ArgsProduct({{10, 50, 100, 500, 1000, 5000}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace quick::bench

QUICK_BENCH_MAIN("fig7_contention")
