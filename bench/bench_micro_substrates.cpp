// Micro-benchmarks of the substrates: tuple encoding, record decoding, FDB
// simulator transactions, record-store operations, and queue-zone
// primitives. Not a paper figure — operational baselines for the layers
// everything above depends on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"

#include "cloudkit/queue_zone.h"
#include "fdb/interval_resolver.h"
#include "fdb/retry.h"
#include "reclayer/record_store.h"
#include "tuple/tuple.h"

namespace {
/// Heap allocations made by the current thread, counted by the replacement
/// operator new below (BM_RecordDecode reports them per decode,
/// BM_ResolverRangeAllocs per conflict range, BM_SaveRecordAllocs per save
/// and per index entry written).
thread_local int64_t t_allocations = 0;
}  // namespace

// Kept out of line, so the compiler does not pair an inlined free() with
// the operator new call that allocated the pointer.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace quick {
namespace {

void BM_TupleEncode(benchmark::State& state) {
  tup::Tuple t;
  t.AddString("user12345").AddInt(1234567).AddString("zone").AddInt(-42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Encode());
  }
}
BENCHMARK(BM_TupleEncode);

void BM_TupleDecode(benchmark::State& state) {
  tup::Tuple t;
  t.AddString("user12345").AddInt(1234567).AddString("zone").AddInt(-42);
  const std::string encoded = t.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tup::Tuple::Decode(encoded));
  }
}
BENCHMARK(BM_TupleDecode);

// Decodes a record of `fields` int fields whose names fit the small-string
// buffer, so a flat record allocates only its field table. Reports the heap
// allocations per decode: a count, so bench-smoke can gate that a record's
// fields do not each cost an allocation on any host.
void BM_RecordDecode(benchmark::State& state) {
  const int64_t fields = state.range(0);
  rl::Record record("R");
  for (int64_t i = 0; i < fields; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "f%02d", static_cast<int>(i));
    record.SetInt(name, 1000 * i);
  }
  const std::string encoded = record.Serialize();
  int64_t allocations = 0;
  for (auto _ : state) {
    const int64_t before = t_allocations;
    Result<rl::Record> decoded = rl::Record::Deserialize(encoded);
    allocations += t_allocations - before;
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["allocs_per_decode"] =
      static_cast<double>(allocations) /
      static_cast<double>(state.iterations());
  bench::BenchReportCollector::Global()->ReportRun(
      "BM_RecordDecode/" + std::to_string(fields), state);
}
BENCHMARK(BM_RecordDecode)->ArgNames({"fields"})->Arg(2)->Arg(32);

// The commit leader's resolver in its steady state: a window of 10,000
// single-key commits, each iteration adding one commit's range (moved in,
// as the commit pipeline hands it over) and pruning the oldest. Reports the
// heap allocations inside AddCommit and Prune only, per range: a count, so
// bench-smoke can gate that a range's key bytes cost no allocation there
// on any host — a 48-byte key (heap-allocated) against an 8-byte one.
void BM_ResolverRangeAllocs(benchmark::State& state) {
  const size_t key_bytes = static_cast<size_t>(state.range(0));
  constexpr fdb::Version kWindow = 10000;
  // Distinct keys, one per version, so every commit adds a node.
  auto range_at = [key_bytes](fdb::Version v) {
    std::string key(key_bytes, 'k');
    for (size_t i = 0; i < 8; ++i) {
      key[key_bytes - 1 - i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    std::vector<KeyRange> ranges;
    ranges.push_back(KeyRange::Single(key));
    return ranges;
  };
  fdb::IntervalResolver resolver;
  fdb::Version version = 0;
  while (version < kWindow) {
    ++version;
    resolver.AddCommit(version, range_at(version));
  }
  int64_t allocations = 0;
  for (auto _ : state) {
    ++version;
    std::vector<KeyRange> ranges = range_at(version);
    const int64_t before = t_allocations;
    resolver.AddCommit(version, std::move(ranges));
    resolver.Prune(version - kWindow);
    allocations += t_allocations - before;
  }
  state.counters["allocs_per_range"] =
      static_cast<double>(allocations) /
      static_cast<double>(state.iterations());
  bench::BenchReportCollector::Global()->ReportRun(
      "BM_ResolverRangeAllocs/" + std::to_string(key_bytes), state);
}
BENCHMARK(BM_ResolverRangeAllocs)->ArgNames({"key_bytes"})->Arg(8)->Arg(48);

void BM_FdbSetCommit(benchmark::State& state) {
  fdb::Database db("bench");
  int64_t i = 0;
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    txn.Set("key" + std::to_string(i % 1000), "value");
    benchmark::DoNotOptimize(txn.Commit());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FdbSetCommit);

void BM_FdbGet(benchmark::State& state) {
  fdb::Database db("bench");
  {
    fdb::Transaction txn = db.CreateTransaction();
    for (int i = 0; i < 1000; ++i) {
      txn.Set("key" + std::to_string(i), "value");
    }
    (void)txn.Commit();
  }
  int64_t i = 0;
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    benchmark::DoNotOptimize(txn.Get("key" + std::to_string(i % 1000)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FdbGet);

void BM_FdbRangeScan100(benchmark::State& state) {
  fdb::Database db("bench");
  {
    fdb::Transaction txn = db.CreateTransaction();
    for (int i = 0; i < 1000; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      txn.Set(key, "value");
    }
    (void)txn.Commit();
  }
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    fdb::RangeOptions opts;
    opts.limit = 100;
    benchmark::DoNotOptimize(txn.GetRange(KeyRange::Prefix("key"), opts));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FdbRangeScan100);

// Commit-path breakdown under concurrency: 8 blind writers against one
// cluster with a realistic replication latency, group commit on vs off.
// With batching the leader pays the latency once per batch, so throughput
// should rise well past 1/commit_micros per thread; avg_batch_size and
// commit_batches expose how much amortization actually happened.
void BM_FdbConcurrentCommit(benchmark::State& state) {
  const bool group = state.range(0) != 0;
  fdb::Database::Options opts;
  if (!group) opts.max_commit_batch = 1;
  opts.latency.commit_micros = 200;  // modeled replication round trip
  fdb::Database db("bench", opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&db, t] {
        for (int i = 0; i < kPerThread; ++i) {
          fdb::Transaction txn = db.CreateTransaction();
          txn.Set("k" + std::to_string(t) + "/" + std::to_string(i % 50), "v");
          benchmark::DoNotOptimize(txn.Commit());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const fdb::Database::Stats stats = db.GetStats();
  const int64_t commits = state.iterations() * kThreads * kPerThread;
  state.SetItemsProcessed(commits);
  state.counters["group_commit"] = group ? 1 : 0;
  state.counters["throughput_commits_per_sec"] =
      static_cast<double>(commits) / secs;
  state.counters["commit_batches"] =
      static_cast<double>(stats.commit_batches);
  state.counters["avg_batch_size"] =
      stats.commit_batches > 0
          ? static_cast<double>(stats.commits_succeeded) / stats.commit_batches
          : 0.0;
  bench::BenchReportCollector::Global()->ReportRun(
      std::string("BM_FdbConcurrentCommit/") + (group ? "group" : "single"),
      state);
}
BENCHMARK(BM_FdbConcurrentCommit)
    ->ArgNames({"group"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

rl::RecordMetadata BenchMetadata() {
  rl::RecordMetadata meta;
  rl::RecordTypeDef t;
  t.name = "Doc";
  t.fields = {{"id", rl::FieldType::kInt64}, {"rank", rl::FieldType::kInt64}};
  t.primary_key_fields = {"id"};
  (void)meta.AddRecordType(std::move(t));
  rl::IndexDef idx;
  idx.name = "by_rank";
  idx.fields = {"rank"};
  (void)meta.AddIndex(std::move(idx));
  return meta;
}

void BM_RecordSave(benchmark::State& state) {
  static const rl::RecordMetadata* meta =
      new rl::RecordMetadata(BenchMetadata());
  fdb::Database db("bench");
  const tup::Subspace subspace(tup::Tuple().AddString("s"));
  int64_t i = 0;
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    rl::RecordStore store(&txn, subspace, meta);
    rl::Record r("Doc");
    r.SetInt("id", i % 1000).SetInt("rank", i);
    benchmark::DoNotOptimize(store.SaveRecord(r));
    (void)txn.Commit();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSave);

// A record type of a 32-character id and eight int fields with value
// indexes over the first `indexes` of them.
rl::RecordMetadata IndexedMetadata(int indexes) {
  rl::RecordMetadata meta;
  rl::RecordTypeDef t;
  t.name = "Doc";
  t.fields = {{"id", rl::FieldType::kString}};
  for (int f = 0; f < 8; ++f) {
    t.fields.push_back({"f" + std::to_string(f), rl::FieldType::kInt64});
  }
  t.primary_key_fields = {"id"};
  (void)meta.AddRecordType(std::move(t));
  for (int f = 0; f < indexes; ++f) {
    rl::IndexDef idx;
    idx.name = "by_f" + std::to_string(f);
    idx.fields = {"f" + std::to_string(f)};
    (void)meta.AddIndex(std::move(idx));
  }
  return meta;
}

// What building a record's keys allocates: one SaveRecord of a fresh record
// (no previous image) whose type has 1 and then 8 value indexes, in a store
// under a queue zone's prefix. Reports the heap allocations inside each
// save and their slope, the allocations per index entry written: a count,
// so bench-smoke can gate on any host that an entry costs its key and the
// transaction's bookkeeping for it (write-buffer node and key, write
// conflict), with no Tuple temporaries.
void BM_SaveRecordAllocs(benchmark::State& state) {
  static const rl::RecordMetadata* const kMetas[] = {
      new rl::RecordMetadata(IndexedMetadata(1)),
      new rl::RecordMetadata(IndexedMetadata(8))};
  fdb::Database db("bench");
  const tup::Subspace subspace(tup::Tuple()
                                   .AddString("ck")
                                   .AddString("app")
                                   .AddString("user")
                                   .AddInt(0)
                                   .AddString("z")
                                   .AddString("_queue"));
  int64_t allocations[2] = {0, 0};
  int64_t i = 0;
  for (auto _ : state) {
    char id[33];
    std::snprintf(id, sizeof(id), "%032lld", static_cast<long long>(i++));
    for (int shape = 0; shape < 2; ++shape) {
      fdb::Transaction txn = db.CreateTransaction();
      rl::RecordStore store(&txn, subspace, kMetas[shape]);
      rl::Record r("Doc");
      r.Reserve(9).SetString("id", id);
      for (int f = 0; f < 8; ++f) r.SetInt("f" + std::to_string(f), i + f);
      const int64_t before = t_allocations;
      Status st = store.SaveRecord(r);
      allocations[shape] += t_allocations - before;
      benchmark::DoNotOptimize(st);
    }
  }
  const double iterations = static_cast<double>(state.iterations());
  const double per_save_1 = static_cast<double>(allocations[0]) / iterations;
  const double per_save_8 = static_cast<double>(allocations[1]) / iterations;
  state.counters["allocs_per_save_1"] = per_save_1;
  state.counters["allocs_per_save_8"] = per_save_8;
  state.counters["allocs_per_index_entry"] = (per_save_8 - per_save_1) / 7;
  bench::BenchReportCollector::Global()->ReportRun("BM_SaveRecordAllocs",
                                                   state);
}
BENCHMARK(BM_SaveRecordAllocs);

void BM_QueueZoneEnqueue(benchmark::State& state) {
  fdb::Database db("bench");
  const tup::Subspace subspace(tup::Tuple().AddString("qz"));
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    ck::QueueZone zone(&txn, subspace, SystemClock::Default());
    ck::QueuedItem item;
    item.job_type = "bench";
    benchmark::DoNotOptimize(zone.Enqueue(item, 0));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueZoneEnqueue);

// Dequeue(1) + Complete against a zone holding `backlog` vested items; each
// iteration enqueues a replacement, so the backlog stays put. Reports the
// index entries each Dequeue(1) reads (rl.index.entries_read): a count, so
// bench-smoke can gate that it does not grow with the backlog on any host.
void BM_QueueZoneDequeueComplete(benchmark::State& state) {
  const int64_t backlog = state.range(0);
  fdb::Database db("bench");
  const tup::Subspace subspace(tup::Tuple().AddString("qz"));
  int64_t next_id = 0;
  auto enqueue = [&](ck::QueueZone& zone) {
    ck::QueuedItem item;
    item.id = "item" + std::to_string(next_id++);
    item.job_type = "bench";
    return zone.Enqueue(item, 0).status();
  };
  // Pre-fill in chunks well under the transaction size limit.
  while (next_id < backlog) {
    Status st = fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
      ck::QueueZone zone(&txn, subspace, SystemClock::Default());
      for (int i = 0; i < 1024 && next_id < backlog; ++i) {
        QUICK_RETURN_IF_ERROR(enqueue(zone));
      }
      return Status::OK();
    });
    (void)st;
  }
  const Counter* entries = rl::IndexEntriesReadCounter();
  int64_t entries_read = 0;
  for (auto _ : state) {
    fdb::Transaction txn = db.CreateTransaction();
    ck::QueueZone zone(&txn, subspace, SystemClock::Default());
    const int64_t before = entries->Value();
    auto batch = zone.Dequeue(1, 10000);
    entries_read += entries->Value() - before;
    if (batch.ok() && !batch->empty()) {
      (void)zone.Complete((*batch)[0].item.id, (*batch)[0].lease_id);
    }
    (void)enqueue(zone);
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["index_entries_per_dequeue"] =
      static_cast<double>(entries_read) /
      static_cast<double>(state.iterations());
  bench::BenchReportCollector::Global()->ReportRun(
      "BM_QueueZoneDequeueComplete/" + std::to_string(backlog), state);
}
BENCHMARK(BM_QueueZoneDequeueComplete)
    ->ArgNames({"backlog"})
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384);

// Storage work per Dequeue(1) on a 64-item zone after `completions`
// Dequeue(1) + Complete + replacement-Enqueue transactions, on a
// ManualClock held still so nothing is pruned: every completed item leaves
// its dead keys in the store. Reports the version chains the storage scans
// of each Dequeue(1) step over (fdb storage_chains_visited): a count, so
// bench-smoke can gate that dead keys cost a scan nothing on any host.
void BM_QueueZoneDequeueAfterChurn(benchmark::State& state) {
  const int64_t completions = state.range(0);
  ManualClock clock(1000000);
  fdb::Database::Options opts;
  opts.clock = &clock;
  fdb::Database db("bench", opts);
  const tup::Subspace subspace(tup::Tuple().AddString("qz"));
  int64_t next_id = 0;
  auto enqueue = [&](ck::QueueZone& zone) {
    ck::QueuedItem item;
    item.id = "item" + std::to_string(next_id++);
    item.job_type = "bench";
    return zone.Enqueue(item, 0).status();
  };
  (void)fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
    ck::QueueZone zone(&txn, subspace, &clock);
    for (int i = 0; i < 64; ++i) QUICK_RETURN_IF_ERROR(enqueue(zone));
    return Status::OK();
  });
  // One churn transaction; returns the chains its Dequeue(1) visited.
  auto churn = [&] {
    fdb::Transaction txn = db.CreateTransaction();
    ck::QueueZone zone(&txn, subspace, &clock);
    const int64_t before = db.GetStats().storage_chains_visited;
    auto batch = zone.Dequeue(1, 10000);
    const int64_t visited = db.GetStats().storage_chains_visited - before;
    if (batch.ok() && !batch->empty()) {
      (void)zone.Complete((*batch)[0].item.id, (*batch)[0].lease_id);
    }
    (void)enqueue(zone);
    (void)txn.Commit();
    return visited;
  };
  for (int64_t i = 0; i < completions; ++i) churn();
  int64_t visited = 0;
  for (auto _ : state) {
    visited += churn();
  }
  state.counters["chains_per_dequeue"] =
      static_cast<double>(visited) / static_cast<double>(state.iterations());
  bench::BenchReportCollector::Global()->ReportRun(
      "BM_QueueZoneDequeueAfterChurn/" + std::to_string(completions), state);
}
BENCHMARK(BM_QueueZoneDequeueAfterChurn)
    ->ArgNames({"completions"})
    ->Arg(1000)
    ->Arg(8000)
    ->Iterations(64);

// Storage work of the prune that retires 1,000 churn commits (each clears
// the previous churn key and sets the next), beside `live_keys` keys no
// commit touches. Reports the version chains that prune steps over (fdb
// storage_chains_visited): a count, so bench-smoke can gate that a prune
// costs what it retires, not the store's size, on any host.
void BM_FdbPruneAfterChurn(benchmark::State& state) {
  const int64_t live_keys = state.range(0);
  int64_t visited = 0;
  for (auto _ : state) {
    ManualClock clock(1000000);
    fdb::Database::Options opts;
    opts.clock = &clock;
    fdb::Database db("bench", opts);
    auto commit = [&db](auto&& body) {
      fdb::Transaction txn = db.CreateTransaction();
      body(txn);
      benchmark::DoNotOptimize(txn.Commit());
    };
    for (int64_t i = 0; i < live_keys; i += 4096) {
      commit([&](fdb::Transaction& txn) {
        for (int64_t k = i; k < std::min(i + 4096, live_keys); ++k) {
          txn.Set("live/" + std::to_string(k), "value");
        }
      });
    }
    // Age the fill out of the window; the next commit's prune retires it.
    clock.AdvanceMillis(2 * opts.mvcc_window_millis);
    commit([](fdb::Transaction& txn) { txn.Set("tick", "1"); });
    for (int i = 0; i < 1000; ++i) {
      commit([i](fdb::Transaction& txn) {
        txn.Clear("churn/" + std::to_string(i - 1));
        txn.Set("churn/" + std::to_string(i), "value");
      });
    }
    clock.AdvanceMillis(2 * opts.mvcc_window_millis);
    const int64_t before = db.GetStats().storage_chains_visited;
    commit([](fdb::Transaction& txn) { txn.Set("tick", "2"); });
    visited += db.GetStats().storage_chains_visited - before;
  }
  state.counters["chains_per_prune"] =
      static_cast<double>(visited) / static_cast<double>(state.iterations());
  bench::BenchReportCollector::Global()->ReportRun(
      "BM_FdbPruneAfterChurn/" + std::to_string(live_keys), state);
}
BENCHMARK(BM_FdbPruneAfterChurn)
    ->ArgNames({"live_keys"})
    ->Arg(1000)
    ->Arg(65536)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace quick

QUICK_BENCH_MAIN("micro_substrates")
