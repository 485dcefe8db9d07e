// Repo benchmark runner: runs one named workload against the full QuiCK
// stack through its public API and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). See perfbench/README.md for
// the workloads, the metric definitions and the output format.
//
//   quick_perfbench --workload deep_backlog|tenant_fanout|saga_crossdc
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; every earlier line is a
// human-readable report.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloudkit/queue_zone.h"
#include "cloudkit/service.h"
#include "cloudkit/workflow_record.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "external/outbox_relay.h"
#include "fdb/cluster_set.h"
#include "fdb/database.h"
#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"
#include "workflow/workflow.h"
#include "workload/harness.h"

namespace {

using namespace quick;  // NOLINT: benchmark runner, one translation unit.

// ---------------------------------------------------------------------------
// Measurement utilities
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU time in microseconds.
int64_t CpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000LL +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host-speed normalization of CPU-bound durations.
///
/// The shared VM this benchmark was sized on changes speed by 20-40% over
/// seconds (vCPUs shared with other guests, no hardware counters to count
/// work instead of time), so identical runs of a single-threaded drain
/// spread far more than any change worth measuring. Around every slice of a
/// measured window the benchmark times two fixed reference computations --
/// one compute-bound (sort + std::map of strings), one memory-latency-bound
/// (a pointer chase through a 16 MiB ring) -- and scales that slice's
/// CPU-bound durations by nominal / measured (geometric mean of the two).
/// The references run no QuiCK code, so a change to the program shows in
/// full; a slow phase of the host mostly cancels. Raw values are printed
/// next to the normalized ones.
class HostSpeed {
 public:
  HostSpeed() : ring_(1u << 22) {
    std::vector<uint32_t> perm(ring_.size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::mt19937_64 rng(99);
    std::shuffle(perm.begin() + 1, perm.end(), rng);
    for (size_t i = 0; i + 1 < perm.size(); ++i) ring_[perm[i]] = perm[i + 1];
    ring_[perm.back()] = perm[0];
  }

  /// How much slower than nominal the host runs right now (1.0 = nominal).
  double Slowness() {
    return std::sqrt(ComputeMs() / kComputeNominalMs *
                     ChaseMs() / kChaseNominalMs);
  }

 private:
  // Reference times measured inside this benchmark on the host it was
  // sized on; they only set the scale of the normalized numbers.
  static constexpr double kComputeNominalMs = 0.8;
  static constexpr double kChaseNominalMs = 3.5;

  static double ComputeMs() {
    const int64_t start = NowNs();
    std::mt19937_64 rng(12345);
    std::vector<uint64_t> v(5000);
    for (uint64_t& x : v) x = rng();
    std::sort(v.begin(), v.end());
    std::map<std::string, int> m;
    for (size_t i = 0; i < 1000; ++i) m[std::to_string(v[i * 5])] = 1;
    sink_ = m.size();
    return static_cast<double>(NowNs() - start) / 1e6;
  }

  double ChaseMs() {
    const int64_t start = NowNs();
    uint32_t at = 0;
    for (int i = 0; i < 20000; ++i) at = ring_[at];
    sink_ = at;
    return static_cast<double>(NowNs() - start) / 1e6;
  }

  std::vector<uint32_t> ring_;
  static inline volatile size_t sink_ = 0;
};

/// Cuts a measured window into slices of about 200 ms and accumulates raw
/// and host-normalized wall and CPU time per slice. The reference
/// computations run between slices, outside both.
class SliceMeter {
 public:
  explicit SliceMeter(HostSpeed* speed) : speed_(speed) {}

  void Begin() {
    prev_slowness_ = speed_->Slowness();
    Open();
  }
  /// Closes the current slice once it is old enough; call between units of
  /// work.
  void Tick() {
    if (NowNs() - begin_ns_ >= kSliceNs) Close();
  }
  void End() { Close(); }

  /// Normalization factor of the slice that contains `at_ns`.
  double FactorAt(int64_t at_ns) const {
    for (const Slice& s : slices_) {
      if (at_ns < s.end_ns) return s.factor;
    }
    return slices_.empty() ? 1.0 : slices_.back().factor;
  }
  double raw_seconds() const { return raw_s_; }
  double norm_seconds() const { return norm_s_; }
  double raw_cpu_us() const { return raw_cpu_us_; }
  double norm_cpu_us() const { return norm_cpu_us_; }
  double mean_factor() const { return Ratio(norm_s_, raw_s_); }

 private:
  static constexpr int64_t kSliceNs = 200'000'000;
  struct Slice {
    int64_t end_ns;
    double factor;
  };

  void Open() {
    begin_ns_ = NowNs();
    begin_cpu_us_ = CpuMicros();
  }
  void Close() {
    const int64_t end = NowNs();
    const double wall_s = static_cast<double>(end - begin_ns_) / 1e9;
    const double cpu_us = static_cast<double>(CpuMicros() - begin_cpu_us_);
    const double slowness = speed_->Slowness();
    const double factor = 2.0 / (slowness + prev_slowness_);
    prev_slowness_ = slowness;
    slices_.push_back({end, factor});
    raw_s_ += wall_s;
    norm_s_ += wall_s * factor;
    raw_cpu_us_ += cpu_us;
    norm_cpu_us_ += cpu_us * factor;
    Open();
  }

  HostSpeed* speed_;
  std::vector<Slice> slices_;
  double prev_slowness_ = 1.0;
  int64_t begin_ns_ = 0;
  int64_t begin_cpu_us_ = 0;
  double raw_s_ = 0.0;
  double norm_s_ = 0.0;
  double raw_cpu_us_ = 0.0;
  double norm_cpu_us_ = 0.0;
};

/// A latency sample set summarised as the median and a tail percentile.
/// The tail is p99 when at least ten samples lie beyond it (n >= 1000);
/// otherwise it is the highest percentile that still has ten samples
/// beyond it, and `tail_pct` says which one it is.
struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t beyond_tail = 0;
};

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(n);
  s.p50 = v[(n - 1) / 2];
  // Nearest-rank p99; fall back to the rank that leaves ten samples above.
  size_t rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  if (n >= 11 && n - rank < 10) rank = n - 10;
  if (rank < 1) rank = 1;
  s.tail = v[rank - 1];
  s.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  s.beyond_tail = n - rank;
  return s;
}

/// Spans the benchmark records around its own calls into each layer. Kept
/// in memory while the traced window runs; written out once at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index of the enclosing span, -1 for none
    int64_t id;      // item sequence number or saga index, -1 for none
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Handlers on consumer threads read the flag while the benchmark thread
  /// flips it between windows.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span; returns its index (or -1 when tracing is off).
  int64_t Begin(const char* name, int64_t id = -1, int64_t parent = -1) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, NowNs(), 0, parent, id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    if (index < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = now;
  }

  /// Durations (microseconds) of every closed span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end_ns != 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
      }
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// One span per line: index name start_ns end_ns parent id.
  bool WriteTo(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "# index name start_ns end_ns parent id\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ' ' << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' '
          << s.parent << ' ' << s.id << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id = -1,
             int64_t parent = -1)
      : log_(log), index_(log->Begin(name, id, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

// ---------------------------------------------------------------------------
// Counter snapshots (window deltas of what the program already exposes)
// ---------------------------------------------------------------------------

using Counts = std::map<std::string, int64_t>;

void AddDbStats(const fdb::Database::Stats& s, Counts* c) {
  (*c)["fdb.grv_calls"] += s.grv_calls;
  (*c)["fdb.grv_cache_hits"] += s.grv_cache_hits;
  (*c)["fdb.commits_attempted"] += s.commits_attempted;
  (*c)["fdb.commits_succeeded"] += s.commits_succeeded;
  (*c)["fdb.commit_batches"] += s.commit_batches;
  (*c)["fdb.conflicts"] += s.conflicts;
  (*c)["fdb.too_old"] += s.too_old;
  (*c)["fdb.unknown_results"] += s.unknown_results;
  (*c)["fdb.reads"] += s.reads;
  (*c)["fdb.wal_appends"] += s.wal_appends;
  (*c)["fdb.wal_appended_bytes"] += s.wal_appended_bytes;
  (*c)["fdb.wal_syncs"] += s.wal_syncs;
  (*c)["fdb.checkpoints_written"] += s.checkpoints_written;
}

void AddConsumerStats(const core::ConsumerStats& s, Counts* c) {
  const std::pair<const char*, const Counter*> counters[] = {
      {"items_dequeued", &s.items_dequeued},
      {"items_processed", &s.items_processed},
      {"items_failed_attempts", &s.items_failed_attempts},
      {"items_requeued", &s.items_requeued},
      {"items_quarantined", &s.items_quarantined},
      {"items_dropped_permanent", &s.items_dropped_permanent},
      {"terminal_fenced", &s.terminal_fenced},
      {"continuations_enqueued", &s.continuations_enqueued},
      {"outbox_effects_recorded", &s.outbox_effects_recorded},
      {"pointer_lease_attempts", &s.pointer_lease_attempts},
      {"pointer_leases_acquired", &s.pointer_leases_acquired},
      {"lease_collisions_read", &s.lease_collisions_read},
      {"lease_collisions_commit", &s.lease_collisions_commit},
      {"pointers_requeued", &s.pointers_requeued},
      {"pointers_deleted", &s.pointers_deleted},
      {"pointer_gc_aborted", &s.pointer_gc_aborted},
      {"scans", &s.scans},
      {"lease_batches", &s.lease_batches},
      {"lease_batch_fallbacks", &s.lease_batch_fallbacks},
      {"backpressure_waits", &s.backpressure_waits},
  };
  for (const auto& [name, counter] : counters) {
    (*c)[std::string("quick.consumer.") + name] += counter->Value();
  }
}

void AddRegistryCounters(Counts* c) {
  for (const auto& [name, value] :
       MetricsRegistry::Default()->CounterSnapshot()) {
    if (name.rfind("ck.zone.", 0) == 0 || name.rfind("fdb.txn.", 0) == 0) {
      (*c)[name] += value;
    }
  }
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

int64_t Get(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Collects metrics and prints them as text lines and as the final JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %16.6f %-6s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  }
  /// A metric this workload cannot measure: printed as 0 with the reason.
  void NotMeasured(const std::string& name, const std::string& unit,
                   const std::string& why) {
    Add(name, 0.0, unit, "not measured: " + why);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  std::optional<double> Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return std::nullopt;
  }

  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// A latency sample and the wall time it completed at.
struct Sample {
  int64_t at_ns;
  double value;
};

/// What one measured window produced (end-to-end view).
struct WindowResult {
  int64_t items = 0;
  std::vector<Sample> enqueue_us;
  std::vector<Sample> step_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// The raw sample values.
std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.value);
  return out;
}

/// Step gaps longer than `ms`.
double StepsOver(const WindowResult& w, int64_t ms) {
  return static_cast<double>(
      std::count_if(w.step_ms.begin(), w.step_ms.end(),
                    [ms](const Sample& s) { return s.value > ms; }));
}

/// Prints the end-to-end metrics of a window into `report`. CPU time is
/// always host-normalized; wall times and latencies are when
/// `cpu_bound_wall` says the window's wall time is CPU time too (a single
/// thread that never sleeps).
void AddEndToEnd(Report* report, const WindowResult& w, const SliceMeter& m,
                 double setup_s, bool cpu_bound_wall) {
  auto values = [&](const std::vector<Sample>& samples, bool normalize) {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& s : samples) {
      out.push_back(normalize ? s.value * m.FactorAt(s.at_ns) : s.value);
    }
    return out;
  };
  const Summary enq = Summarize(values(w.enqueue_us, cpu_bound_wall));
  const Summary step = Summarize(values(w.step_ms, cpu_bound_wall));
  auto tail_note = [](const Summary& s) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "n=%zu tail=p%.2f beyond=%zu", s.n,
                  s.tail_pct, s.beyond_tail);
    return std::string(buf);
  };
  const double items = static_cast<double>(w.items);
  const double seconds = cpu_bound_wall ? m.norm_seconds() : m.raw_seconds();
  report->Add("setup_s", setup_s, "s", "median of the set-ups in this run");
  report->Add("items_per_s", Ratio(items, seconds), "1/s",
              "items=" + std::to_string(w.items));
  report->Add("cpu_us_per_item", Ratio(m.norm_cpu_us(), items), "us");
  report->Add("enqueue_p50_us", enq.p50, "us", "n=" + std::to_string(enq.n));
  report->Add("enqueue_p99_us", enq.tail, "us", tail_note(enq));
  // Only the mean step is end-to-end. The median flips between host-speed
  // modes in the synchronous workloads (3.3 vs 4.5 ms in deep_backlog) and
  // the tail between stall modes in saga_crossdc (about 1% of steps wait
  // out a pointer lease); the mean moves smoothly with both. Median and
  // tail are per-layer metrics (quick.step_p50_ms, quick.step_p99_ms).
  report->Add("step_mean_ms", step.mean, "ms",
              "p50 " + std::to_string(step.p50) + " tail " + tail_note(step) +
                  " value " + std::to_string(step.tail));
  report->Add("rss_mb", PeakRssMb(), "MB", "peak resident set of the process");
  std::printf("failed_frac %.6f (failed=%" PRId64 " attempted=%" PRId64 ")\n",
              Ratio(static_cast<double>(w.failed),
                    static_cast<double>(w.attempted)),
              w.failed, w.attempted);
  std::printf("raw window_s=%.3f items_per_s=%.3f cpu_us_per_item=%.3f "
              "enqueue_p50_us=%.3f step_p50_ms=%.4f host_factor=%.4f\n",
              m.raw_seconds(), Ratio(items, m.raw_seconds()),
              Ratio(m.raw_cpu_us(), items),
              Summarize(values(w.enqueue_us, false)).p50,
              Summarize(values(w.step_ms, false)).p50, m.mean_factor());
}

/// The per-item count metrics both benchmarks read from the same counters
/// (`counts` are window deltas; `items` the items completed in the window).
void AddCountMetrics(Report* layer, const Counts& counts, double items) {
  layer->Add("fdb.commits_per_item",
             Ratio(Get(counts, "fdb.commits_attempted"), items), "count");
  layer->Add("fdb.reads_per_item", Ratio(Get(counts, "fdb.reads"), items),
             "count");
  layer->Add("fdb.grvs_per_item",
             Ratio(Get(counts, "fdb.grv_calls") -
                       Get(counts, "fdb.grv_cache_hits"),
                   items),
             "count");
  layer->Add("fdb.conflicts_per_item",
             Ratio(Get(counts, "fdb.conflicts"), items), "count");
  layer->Add("fdb.commit_batch_size",
             Ratio(Get(counts, "fdb.commits_attempted"),
                   Get(counts, "fdb.commit_batches")),
             "count");
  layer->Add("cloudkit.leases_per_item",
             Ratio(Get(counts, "ck.zone.leases_obtained"), items), "count");
  layer->Add("cloudkit.unvested_leases_per_item",
             Ratio(Get(counts, "ck.zone.lease_unvested"), items), "count");
  layer->Add("cloudkit.requeues_per_item",
             Ratio(Get(counts, "ck.zone.requeues"), items), "count");
  layer->Add("quick.visits_per_item",
             Ratio(Get(counts, "quick.consumer.pointer_leases_acquired"),
                   items),
             "count");
  layer->Add("quick.pointer_gcs_per_item",
             Ratio(Get(counts, "quick.consumer.pointers_deleted"), items),
             "count");
  layer->Add("quick.lease_success_ratio",
             Ratio(Get(counts, "quick.consumer.pointer_leases_acquired"),
                   Get(counts, "quick.consumer.pointer_lease_attempts")),
             "ratio");
}

void PrintOverhead(const Report& traced, const Report& untraced) {
  for (const Metric& m : untraced.metrics()) {
    std::optional<double> t = traced.Find(m.name);
    if (!t.has_value()) continue;
    std::printf("overhead %-20s traced-untraced %+14.6f %s (untraced %.6f)\n",
                m.name.c_str(), *t - m.value, m.unit.c_str(), m.value);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

/// Seeded payload of 16..256 bytes (its size and bytes both come from the
/// workload seed).
std::string MakePayload(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> size(16, 256);
  std::uniform_int_distribution<int> ch('a', 'z');
  std::string p(static_cast<size_t>(size(rng)), 'x');
  for (char& c : p) c = static_cast<char>(ch(rng));
  return p;
}

// ---------------------------------------------------------------------------
// deep_backlog and tenant_fanout: one synchronous consumer on a ManualClock
// ---------------------------------------------------------------------------

struct SyncShape {
  bool fanout = false;
  /// deep_backlog: tenants, each kept at `depth` items.
  /// tenant_fanout: `active` one-item tenants drawn from `population`.
  int tenants = 8;
  int depth = 1000;
  int active = 0;
  int population = 0;
  /// Virtual milliseconds the clock advances after every consumer pass.
  int64_t step_ms = 10;
  /// Passes in the deterministic count window at the start of the run.
  int count_passes = 0;
  core::ConsumerConfig consumer;
};

constexpr int64_t kClockStartMillis = 1'000'000;
constexpr const char* kJobType = "bench_item";
constexpr const char* kCluster = "c0";
/// Probes run in the traced window at most this often.
constexpr int64_t kProbeIntervalNs = 1'000'000'000;

class SyncBench {
 public:
  SyncBench(const SyncShape& shape, const Args& args)
      : shape_(shape), args_(args) {}

  int Run();

 private:
  /// One full deployment over a fresh ManualClock. Member order is the
  /// teardown order in reverse: the consumer goes first, the clock last.
  struct Deployment {
    ManualClock clock{kClockStartMillis};
    std::unique_ptr<fdb::ClusterSet> clusters;
    std::unique_ptr<ck::CloudKitService> ck;
    std::unique_ptr<core::Quick> quick;
    core::JobRegistry registry;
    std::unique_ptr<core::Consumer> consumer;
    fdb::Database* db = nullptr;
    std::vector<ck::DatabaseRef> refs;  // per tenant index
  };

  std::unique_ptr<Deployment> Build();
  void ResetInputs();
  std::string TenantName(int t) const { return "tenant" + std::to_string(t); }
  ck::DatabaseId TenantId(int t) const {
    return ck::DatabaseId::Private("bench", TenantName(t));
  }
  std::string ItemId(uint64_t seq) const {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, id_prefix_,
                  seq);
    return buf;
  }
  static uint64_t SeqOf(const std::string& id) {
    return std::strtoull(id.c_str() + (id.size() - 16), nullptr, 16);
  }

  /// The client's enqueue call: one transaction with `tenants.size()` items
  /// (tenant indexes; repeats allowed), then each tenant's follow-up.
  Status EnqueueCall(Deployment* d, const std::vector<int>& tenants,
                     bool record);
  /// Enqueue transactions the closed loop owes after a pass.
  void Refill(Deployment* d);
  /// One measured consumer pass plus its refills and clock step.
  void Pass(Deployment* d);
  void Probe(Deployment* d, int64_t pass);
  /// Stops the load, drains every queue and checks the exactly-once ledger.
  bool DrainAndCheck(Deployment* d);
  Counts Snapshot(Deployment* d) const;

  const SyncShape shape_;
  const Args args_;
  SpanLog spans_;
  HostSpeed speed_;

  // Inputs (reset for every set-up, so each deployment sees the same ones).
  std::mt19937_64 rng_;
  uint64_t id_prefix_ = 0;
  std::vector<int> tenant_order_;  // seeded rotation order
  size_t rotation_cursor_ = 0;
  std::vector<int> next_batch_;    // per tenant (deep) or [0] (fanout)
  std::vector<int> owed_;          // completions not yet refilled
  uint64_t next_seq_ = 0;
  std::vector<uint8_t> exec_count_;
  std::vector<int> seq_tenant_;
  std::vector<uint8_t> touched_;

  // Window state.
  bool recording_ = false;
  int64_t consumer_ns_ = 0;       // time spent inside RunOnePass so far
  int64_t pass_start_ns_ = 0;
  int64_t last_handler_ns_ = -1;  // on the consumer timeline
  int64_t pass_span_ = -1;
  int64_t pass_items_ = 0;
  WindowResult window_;
  int64_t items_total_ = 0;
  int64_t enqueue_calls_ = 0;
  int64_t enqueue_failures_ = 0;
  int64_t pointer_creates_ = 0;
  int64_t enqueued_items_ = 0;
  std::vector<double> pass_us_per_item_;
  std::vector<double> dequeue_probe_us_;
  std::vector<double> peek_probe_us_;
  bool duplicate_execution_ = false;
};

void SyncBench::ResetInputs() {
  rng_.seed(args_.seed);
  id_prefix_ = rng_();
  const int n = shape_.fanout ? shape_.population : shape_.tenants;
  tenant_order_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) tenant_order_[static_cast<size_t>(i)] = i;
  std::shuffle(tenant_order_.begin(), tenant_order_.end(), rng_);
  rotation_cursor_ = 0;
  std::uniform_int_distribution<int> batch(1, 4);
  next_batch_.assign(shape_.fanout ? 1 : static_cast<size_t>(n), 0);
  for (int& b : next_batch_) b = batch(rng_);
  owed_.assign(next_batch_.size(), 0);
  next_seq_ = 0;
  exec_count_.clear();
  seq_tenant_.clear();
  touched_.assign(static_cast<size_t>(n), 0);
  enqueued_items_ = 0;
  items_total_ = 0;
  pointer_creates_ = 0;
  enqueue_calls_ = 0;
  enqueue_failures_ = 0;
  duplicate_execution_ = false;
}

std::unique_ptr<SyncBench::Deployment> SyncBench::Build() {
  auto d = std::make_unique<Deployment>();
  fdb::Database::Options opts;
  opts.clock = &d->clock;
  d->clusters = std::make_unique<fdb::ClusterSet>(opts);
  d->db = d->clusters->AddCluster(kCluster);
  d->ck = std::make_unique<ck::CloudKitService>(d->clusters.get(), &d->clock);
  d->quick = std::make_unique<core::Quick>(d->ck.get());
  d->registry.Register(kJobType, [this](core::WorkContext& ctx) {
    const int64_t now = NowNs();
    ScopedSpan span(&spans_, "quick.exec", -1, pass_span_);
    const uint64_t seq = SeqOf(ctx.item.id);
    if (seq >= exec_count_.size()) return Status::Internal("unknown item");
    if (++exec_count_[seq] > 1) duplicate_execution_ = true;
    ++owed_[shape_.fanout ? 0 : static_cast<size_t>(seq_tenant_[seq])];
    ++items_total_;
    ++pass_items_;
    // Step: handler start to the next handler start on the consumer's own
    // timeline (time inside RunOnePass only; refills are excluded).
    const int64_t t = consumer_ns_ + (now - pass_start_ns_);
    if (recording_ && last_handler_ns_ >= 0) {
      window_.step_ms.push_back(
          {now, static_cast<double>(t - last_handler_ns_) / 1e6});
    }
    last_handler_ns_ = t;
    return Status::OK();
  });
  d->consumer = std::make_unique<core::Consumer>(
      d->quick.get(), std::vector<std::string>{kCluster}, &d->registry,
      shape_.consumer, "bench-consumer");
  const int n = shape_.fanout ? shape_.population : shape_.tenants;
  d->refs.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) d->refs.push_back(d->ck->OpenDatabase(TenantId(t)));
  return d;
}

Status SyncBench::EnqueueCall(Deployment* d, const std::vector<int>& tenants,
                              bool record) {
  const int64_t start = NowNs();
  std::vector<core::WorkItem> items(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    const uint64_t seq = next_seq_ + i;
    items[i].job_type = kJobType;
    items[i].id = ItemId(seq);
    items[i].payload = MakePayload(rng_);
  }
  // One follow-up per distinct tenant: repeated items of one tenant share
  // it, as a multi-item enqueue of one client does.
  std::vector<std::pair<int, core::EnqueueFollowUp>> follow_ups;
  Status st;
  {
    ScopedSpan call(&spans_, "client.enqueue_call");
    fdb::Transaction txn = d->db->CreateTransaction();
    for (int attempt = 0;; ++attempt) {
      follow_ups.clear();
      st = Status::OK();
      for (size_t i = 0; i < tenants.size() && st.ok(); ++i) {
        const int t = tenants[i];
        if (follow_ups.empty() || follow_ups.back().first != t) {
          follow_ups.emplace_back(t, core::EnqueueFollowUp{});
        }
        ScopedSpan body(&spans_, "quick.enqueue_body",
                        static_cast<int64_t>(next_seq_ + i), call.index());
        st = d->quick
                 ->EnqueueInTransaction(&txn, d->refs[static_cast<size_t>(t)],
                                        items[i], 0, &follow_ups.back().second)
                 .status();
      }
      if (st.ok()) {
        ScopedSpan commit(&spans_, "fdb.commit", -1, call.index());
        st = txn.Commit();
      }
      if (st.ok()) break;
      const Status retry = txn.OnError(st);
      if (!retry.ok() || attempt + 1 >= fdb::kDefaultMaxAttempts) break;
    }
    if (st.ok()) {
      for (const auto& [t, fu] : follow_ups) {
        if (!fu.pointer_existed) ++pointer_creates_;
        ScopedSpan follow(&spans_, "quick.followup", -1, call.index());
        d->quick->ExecuteFollowUp(d->refs[static_cast<size_t>(t)], fu);
      }
    }
  }
  ++enqueue_calls_;
  if (!st.ok()) {
    ++enqueue_failures_;
    std::fprintf(stderr, "enqueue failed: %s\n", st.ToString().c_str());
    return st;
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    exec_count_.push_back(0);
    seq_tenant_.push_back(tenants[i]);
    touched_[static_cast<size_t>(tenants[i])] = 1;
  }
  next_seq_ += tenants.size();
  enqueued_items_ += static_cast<int64_t>(tenants.size());
  if (record) {
    const int64_t end = NowNs();
    window_.enqueue_us.push_back({end, static_cast<double>(end - start) / 1e3});
  }
  return st;
}

void SyncBench::Refill(Deployment* d) {
  std::uniform_int_distribution<int> batch(1, 4);
  if (shape_.fanout) {
    // Each completion owes one item to the next tenant in the rotation.
    while (owed_[0] >= next_batch_[0]) {
      std::vector<int> tenants;
      for (int i = 0; i < next_batch_[0]; ++i) {
        tenants.push_back(tenant_order_[rotation_cursor_]);
        rotation_cursor_ = (rotation_cursor_ + 1) % tenant_order_.size();
      }
      owed_[0] -= next_batch_[0];
      next_batch_[0] = batch(rng_);
      (void)EnqueueCall(d, tenants, /*record=*/true);
    }
    return;
  }
  // deep_backlog: each tenant's completions go back into its own queue.
  for (int t : tenant_order_) {
    const size_t ti = static_cast<size_t>(t);
    while (owed_[ti] >= next_batch_[ti]) {
      owed_[ti] -= next_batch_[ti];
      (void)EnqueueCall(d, std::vector<int>(next_batch_[ti], t),
                        /*record=*/true);
      next_batch_[ti] = batch(rng_);
    }
  }
}

void SyncBench::Pass(Deployment* d) {
  recording_ = true;
  pass_items_ = 0;
  pass_start_ns_ = NowNs();
  {
    ScopedSpan span(&spans_, "quick.run_one_pass");
    pass_span_ = span.index();
    (void)d->consumer->RunOnePass(kCluster);
  }
  pass_span_ = -1;
  const int64_t pass_ns = NowNs() - pass_start_ns_;
  consumer_ns_ += pass_ns;
  if (spans_.enabled() && pass_items_ > 0) {
    pass_us_per_item_.push_back(static_cast<double>(pass_ns) / 1e3 /
                                static_cast<double>(pass_items_));
  }
  Refill(d);
  d->clock.AdvanceMillis(shape_.step_ms);
}

/// cloudkit probes, traced run only: a tenant-zone dequeue + min-vesting
/// read and a top-level peek, each in a transaction that is never committed.
void SyncBench::Probe(Deployment* d, int64_t pass) {
  const core::ConsumerConfig defaults;
  const ck::DatabaseRef& ref =
      d->refs[static_cast<size_t>(tenant_order_[static_cast<size_t>(pass) %
                                                tenant_order_.size()])];
  {
    fdb::Transaction txn = d->db->CreateTransaction();
    const int64_t start = NowNs();
    {
      ScopedSpan span(&spans_, "cloudkit.dequeue_probe");
      ck::QueueZone zone = d->quick->OpenTenantZone(ref, &txn);
      (void)zone.Dequeue(defaults.dequeue_max, defaults.item_lease_millis);
      (void)zone.MinVestingTime();
    }
    dequeue_probe_us_.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  {
    fdb::Transaction txn = d->db->CreateTransaction();
    const int64_t start = NowNs();
    {
      ScopedSpan span(&spans_, "cloudkit.peek_top_probe");
      ck::QueueZone top =
          d->quick->OpenTopZone(d->ck->OpenClusterDb(kCluster), &txn);
      (void)top.PeekIds(defaults.peek_max);
    }
    peek_probe_us_.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
}

Counts SyncBench::Snapshot(Deployment* d) const {
  Counts c;
  AddDbStats(d->db->GetStats(), &c);
  AddConsumerStats(d->consumer->stats(), &c);
  AddRegistryCounters(&c);
  c["bench.items_completed"] = items_total_;
  c["bench.enqueue_calls"] = enqueue_calls_;
  c["bench.items_enqueued"] = enqueued_items_;
  c["bench.pointer_creates"] = pointer_creates_;
  return c;
}

bool SyncBench::DrainAndCheck(Deployment* d) {
  // A drain consumer takes every peeked pointer in queue order and up to 64
  // items per visit, so the backlog empties quickly; the ledger below checks
  // the whole run, window and drain alike.
  core::ConsumerConfig drain_cfg;
  drain_cfg.sequential = true;
  drain_cfg.selection_max = drain_cfg.peek_max;
  drain_cfg.dequeue_max = 64;
  core::Consumer drainer(d->quick.get(), {kCluster}, &d->registry, drain_cfg,
                         "bench-drain");
  recording_ = false;
  const int64_t drain_start = NowNs();
  const int64_t deadline = drain_start + 120'000'000'000LL;
  while (items_total_ < enqueued_items_ && NowNs() < deadline) {
    pass_start_ns_ = NowNs();
    (void)drainer.RunOnePass(kCluster);
    d->clock.AdvanceMillis(shape_.step_ms);
  }
  std::printf("drain_s %.3f\n",
              static_cast<double>(NowNs() - drain_start) / 1e9);
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::printf("check FAILED: %s\n", what.c_str());
    ok = false;
  };
  int64_t never = 0;
  int64_t twice = 0;
  for (uint8_t c : exec_count_) {
    if (c == 0) ++never;
    if (c > 1) ++twice;
  }
  if (never > 0) fail(std::to_string(never) + " enqueued items never ran");
  if (twice > 0 || duplicate_execution_) {
    fail(std::to_string(twice) + " items ran more than once");
  }
  int64_t pending = 0;
  int64_t dead = 0;
  int64_t tenants_checked = 0;
  for (size_t t = 0; t < touched_.size(); ++t) {
    if (!touched_[t]) continue;
    ++tenants_checked;
    Result<int64_t> n = d->quick->PendingCount(TenantId(static_cast<int>(t)));
    if (!n.ok()) {
      fail("PendingCount: " + n.status().ToString());
      break;
    }
    pending += *n;
    fdb::Transaction txn = d->db->CreateTransaction();
    ck::QueueZone zone = d->quick->OpenTenantZone(d->refs[t], &txn);
    Result<int64_t> dl = zone.DeadLetterCount();
    if (!dl.ok()) {
      fail("DeadLetterCount: " + dl.status().ToString());
      break;
    }
    dead += *dl;
  }
  if (pending != 0) fail(std::to_string(pending) + " items still pending");
  if (dead != 0) fail(std::to_string(dead) + " items dead-lettered");
  std::printf("check enqueued=%" PRId64 " executed=%" PRId64
              " tenants_checked=%" PRId64 " pending=%" PRId64
              " dead_lettered=%" PRId64 " -> %s\n",
              enqueued_items_, items_total_, tenants_checked, pending, dead,
              ok ? "ok" : "FAILED");
  return ok;
}

int SyncBench::Run() {
  // Set-up is built and pre-filled three times; the median is setup_s and
  // the last deployment is the one measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    d.reset();
    ResetInputs();
    const int64_t start = NowNs();
    d = Build();
    // Pre-fill with the same 1-4 item enqueue transactions the loop uses.
    std::uniform_int_distribution<int> batch(1, 4);
    if (shape_.fanout) {
      int filled = 0;
      while (filled < shape_.active) {
        const int b = std::min(batch(rng_), shape_.active - filled);
        std::vector<int> tenants;
        for (int i = 0; i < b; ++i) {
          tenants.push_back(tenant_order_[rotation_cursor_]);
          rotation_cursor_ = (rotation_cursor_ + 1) % tenant_order_.size();
        }
        if (!EnqueueCall(d.get(), tenants, false).ok()) return 1;
        filled += b;
      }
    } else {
      std::vector<int> left(static_cast<size_t>(shape_.tenants), shape_.depth);
      bool any = true;
      while (any) {
        any = false;
        for (int t : tenant_order_) {
          int& l = left[static_cast<size_t>(t)];
          if (l == 0) continue;
          any = true;
          const int b = std::min(batch(rng_), l);
          if (!EnqueueCall(d.get(), std::vector<int>(b, t), false).ok()) {
            return 1;
          }
          l -= b;
        }
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::printf("setup_runs_s");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  enqueue_calls_ = 0;
  enqueue_failures_ = 0;

  const Counts base = Snapshot(d.get());
  Counts at_count_end;
  bool count_done = false;
  int64_t passes = 0;
  // Set-up is single-threaded CPU work like the window, so it is scaled by
  // the first window's mean host factor (a handful of reference samples
  // around a sub-second set-up are too noisy on their own).
  double setup_value = -1.0;

  auto run_window = [&](bool traced, Report* report) {
    spans_.set_enabled(traced);
    window_ = WindowResult{};
    last_handler_ns_ = -1;
    const int64_t calls0 = enqueue_calls_;
    const int64_t fails0 = enqueue_failures_;
    const int64_t items0 = items_total_;
    const Counts c0 = Snapshot(d.get());
    SliceMeter meter(&speed_);
    const int64_t end = NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
    int64_t next_probe = 0;
    meter.Begin();
    // The count window must finish even on a slow host, so the window runs
    // until both its time and the count window are done.
    while (NowNs() < end || !count_done) {
      Pass(d.get());
      ++passes;
      if (!count_done && passes == shape_.count_passes) {
        at_count_end = Snapshot(d.get());
        count_done = true;
      }
      if (traced && NowNs() >= next_probe) {
        Probe(d.get(), passes);
        next_probe = NowNs() + kProbeIntervalNs;
      }
      meter.Tick();
    }
    meter.End();
    window_.items = items_total_ - items0;
    const Counts dc = Delta(Snapshot(d.get()), c0);
    window_.attempted = (enqueue_calls_ - calls0) + window_.items;
    window_.failed = (enqueue_failures_ - fails0) +
                     Get(dc, "quick.consumer.items_quarantined") +
                     Get(dc, "fdb.txn.retries_exhausted");
    if (setup_value < 0) setup_value = Median(setup_s) * meter.mean_factor();
    AddEndToEnd(report, window_, meter, setup_value, /*cpu_bound_wall=*/true);
  };

  Report untraced;
  run_window(false, &untraced);
  const WindowResult first = window_;
  const Counts counts = Delta(at_count_end, base);
  const double entries_per_key = Ratio(
      static_cast<double>(d->db->TotalEntryCount()),
      static_cast<double>(d->db->LiveKeyCount()));

  Report traced_e2e;
  WindowResult traced_window;
  if (args_.trace) {
    std::printf("--- traced window ---\n");
    run_window(true, &traced_e2e);
    traced_window = window_;
    spans_.set_enabled(false);
  }

  const bool correct = DrainAndCheck(d.get());

  if (!args_.trace) {
    untraced.PrintJson(correct, first.attempted, first.failed);
    return 0;
  }

  // Per-layer report.
  std::printf("--- per-layer (counts over the first %d passes, times over the "
              "traced window) ---\n",
              shape_.count_passes);
  for (const auto& [name, v] : counts) {
    std::printf("count %-40s %" PRId64 "\n", name.c_str(), v);
  }
  const double items = static_cast<double>(Get(counts, "bench.items_completed"));
  Report layer;
  AddCountMetrics(&layer, counts, items);
  const Summary commit = Summarize(spans_.DurationsUs("fdb.commit"));
  layer.Add("fdb.commit_p50_us", commit.p50, "us",
            "n=" + std::to_string(commit.n));
  layer.Add("fdb.commit_p99_us", commit.tail, "us",
            "n=" + std::to_string(commit.n) +
                " tail_pct=" + std::to_string(commit.tail_pct));
  layer.NotMeasured("fdb.wal_bytes_per_item", "bytes",
                    "WAL off in this workload");
  layer.NotMeasured("fdb.wal_syncs_per_commit", "count",
                    "WAL off in this workload");
  layer.NotMeasured("fdb.replica_lag_versions_max", "count",
                    "no standby in this workload");
  layer.Add("fdb.entries_per_live_key", entries_per_key, "count",
            "at the end of the untraced window");
  const int64_t probes = static_cast<int64_t>(dequeue_probe_us_.size());
  layer.Add("cloudkit.dequeue_probe_us", Summarize(dequeue_probe_us_).p50,
            "us", "n=" + std::to_string(probes));
  layer.Add("cloudkit.peek_top_probe_us", Summarize(peek_probe_us_).p50, "us",
            "n=" + std::to_string(peek_probe_us_.size()));
  // The count window has no probes, so the zone counters need no netting.
  layer.Add("quick.enqueue_body_p50_us",
            Summarize(spans_.DurationsUs("quick.enqueue_body")).p50, "us");
  layer.Add("quick.followup_p50_us",
            Summarize(spans_.DurationsUs("quick.followup")).p50, "us");
  layer.Add("quick.pointer_creates_per_item",
            Ratio(Get(counts, "bench.pointer_creates"),
                  Get(counts, "bench.items_enqueued")),
            "count");
  layer.Add("quick.pass_us_per_item", Summarize(pass_us_per_item_).p50, "us",
            "median over passes of pass time / items in the pass");
  for (const char* stage : {"quick.scan_p50_us", "quick.lease_txn_p50_us",
                            "quick.dequeue_txn_p50_us",
                            "quick.finish_txn_p50_us"}) {
    layer.NotMeasured(stage, "us",
                      "stage histograms read the ManualClock (see the "
                      "cloudkit probes and quick.pass_us_per_item)");
  }
  layer.NotMeasured("quick.lease_batch_size", "count",
                    "synchronous consumer leases one pointer per transaction");
  layer.NotMeasured("quick.backpressure_waits", "count",
                    "synchronous consumer has no in-flight window");
  layer.NotMeasured("quick.stalled_steps_per_1k", "count", "no sagas");
  layer.NotMeasured("quick.lease_stalled_steps_per_1k", "count", "no sagas");
  const Summary step = Summarize(Values(traced_window.step_ms));
  layer.Add("quick.step_p50_ms", step.p50, "ms");
  layer.Add("quick.step_p99_ms", step.tail, "ms",
            "consumer service time per item, n=" + std::to_string(step.n) +
                " tail_pct=" + std::to_string(step.tail_pct));
  layer.Add("quick.exec_p50_us",
            Summarize(spans_.DurationsUs("quick.exec")).p50, "us");
  layer.NotMeasured("workflow.continuations_per_step", "count", "no sagas");
  layer.NotMeasured("external.relay_us_per_effect", "us", "no outbox");
  layer.NotMeasured("external.outbox_lag_rows_max", "count", "no outbox");

  PrintOverhead(traced_e2e, untraced);
  const std::string trace_path = args_.workdir + "/spans-" + args_.workload +
                                 "-" + std::to_string(getpid()) + ".txt";
  std::printf("spans %zu written to %s\n", spans_.size(),
              spans_.WriteTo(trace_path) ? trace_path.c_str() : "(failed)");
  layer.PrintJson(correct, traced_window.attempted, traced_window.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// saga_crossdc: 3-step sagas on an async consumer over WAL + one standby,
// with PaperLike latency on the real clock
// ---------------------------------------------------------------------------

constexpr int kSagaSteps = 3;

struct SagaShape {
  int in_flight = 16;
  /// Tenants the sagas rotate through, so each queue stays about one deep.
  int tenants = 64;
  int executor_threads = 3;
  int worker_threads = 1;
  /// Client threads calling the blocking WorkflowEngine::Start; one Start
  /// takes ~30 ms at PaperLike latency, so one thread alone could not keep
  /// `in_flight` sagas running.
  int client_threads = 4;
};

constexpr const char* kSagaName = "bench_saga";
constexpr const char* kSagaCluster = "cluster0";

class SagaBench {
 public:
  SagaBench(const SagaShape& shape, const Args& args)
      : shape_(shape), args_(args) {}

  int Run();

 private:
  /// Member order is the reverse teardown order: the consumer stops first,
  /// the harness (clusters, replication pump) goes after everything that
  /// borrows it.
  struct Deployment {
    std::string wal_dir;
    ext::SimEffectStore store;
    std::unique_ptr<wl::Harness> harness;
    std::unique_ptr<wf::WorkflowEngine> engine;
    std::unique_ptr<ext::OutboxRelay> relay;
    std::unique_ptr<core::Consumer> consumer;
  };

  /// A saga the benchmark started: its tenant, workflow id and the wall
  /// time each step's handler first started (-1 until then).
  struct SagaRun {
    int tenant = 0;
    std::string wf_id;
    bool started = false;
    std::array<int64_t, kSagaSteps> step_start{{-1, -1, -1}};
  };

  std::unique_ptr<Deployment> Build(int attempt);
  ck::DatabaseId TenantId(int t) const {
    return ck::DatabaseId::Private("bench", "saga" + std::to_string(t));
  }
  /// Starts saga `idx` with its seeded tenant and payload; blocking.
  void StartOne(Deployment* d, size_t idx);
  /// Client thread body: starts a saga whenever fewer than `in_flight`
  /// are running.
  void StarterLoop(Deployment* d);
  void StopStarter();
  Status StepFn(core::WorkContext& ctx, wf::StepContext& sctx, int step);
  bool DrainAndCheck(Deployment* d);

  const SagaShape shape_;
  const Args args_;
  SpanLog spans_;
  HostSpeed speed_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<SagaRun> sagas_;     // guarded by mu_
  int in_flight_ = 0;              // guarded by mu_
  bool stop_ = false;              // guarded by mu_
  // (end ns, latency us) of every successful Start; guarded by mu_.
  std::vector<std::pair<int64_t, double>> start_us_;
  int64_t start_calls_ = 0;        // guarded by mu_
  int64_t start_failures_ = 0;     // guarded by mu_
  std::vector<std::thread> starters_;
  std::vector<int> tenant_order_;
};

std::unique_ptr<SagaBench::Deployment> SagaBench::Build(int attempt) {
  auto d = std::make_unique<Deployment>();
  d->wal_dir = args_.workdir + "/saga_crossdc-" + std::to_string(getpid()) +
               "-" + std::to_string(attempt);
  std::filesystem::remove_all(d->wal_dir);
  wl::HarnessOptions hopts;
  hopts.latency = fdb::LatencyModel::PaperLike();
  hopts.enable_wal = true;
  hopts.wal_dir = d->wal_dir;
  hopts.replicas_per_cluster = 1;
  hopts.seed = args_.seed;
  d->harness = std::make_unique<wl::Harness>(hopts);
  d->engine = std::make_unique<wf::WorkflowEngine>(d->harness->quick(),
                                                   d->harness->registry());
  wf::SagaSpec saga;
  saga.name = kSagaName;
  for (int i = 0; i < kSagaSteps; ++i) {
    wf::StepSpec step;
    step.name = "s" + std::to_string(i);
    step.run = [this, i](core::WorkContext& ctx, wf::StepContext& sctx) {
      return StepFn(ctx, sctx, i);
    };
    saga.steps.push_back(std::move(step));
  }
  if (!d->engine->RegisterSaga(std::move(saga)).ok()) return nullptr;
  // A bounded batch keeps one relay pass short, so the benchmark thread
  // also gets to its lag and replica samples while the outbox is long.
  ext::OutboxRelay::Options relay_opts;
  relay_opts.batch_limit = 16;
  d->relay = std::make_unique<ext::OutboxRelay>(d->harness->cloudkit(),
                                                &d->store, relay_opts);
  core::ConsumerConfig config;
  config.async_pipeline = true;
  config.async_executor_threads = shape_.executor_threads;
  config.num_worker_threads = shape_.worker_threads;
  d->consumer = d->harness->MakeConsumer(config, "bench-saga");
  d->consumer->Start();
  return d;
}

Status SagaBench::StepFn(core::WorkContext& ctx, wf::StepContext& sctx,
                         int step) {
  const int64_t now = NowNs();
  const size_t idx = std::strtoull(sctx.payload.c_str(), nullptr, 10);
  ScopedSpan span(&spans_, "quick.exec", static_cast<int64_t>(idx));
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (idx >= sagas_.size()) return Status::Internal("unknown saga");
    int64_t& t = sagas_[idx].step_start[static_cast<size_t>(step)];
    if (t < 0) {  // a re-executed step keeps its first start
      t = now;
      finished = step + 1 == kSagaSteps;
    }
  }
  core::OutboxEffect effect;
  effect.target = "bench";
  effect.idempotency_key = ctx.item.id + ".e";
  effect.payload = sctx.payload.substr(0, 32);
  sctx.effects.push_back(std::move(effect));
  if (finished) {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    cv_.notify_all();
  }
  return Status::OK();
}

void SagaBench::StartOne(Deployment* d, size_t idx) {
  // Tenant and payload depend only on the seed and the saga's index.
  std::mt19937_64 rng(args_.seed * 0x9E3779B97F4A7C15ULL + idx);
  const int tenant = tenant_order_[idx % tenant_order_.size()];
  const std::string payload = std::to_string(idx) + "|" + MakePayload(rng);
  char wf_id[48];
  std::snprintf(wf_id, sizeof(wf_id), "wf%08" PRIx64 "-%06zu",
                static_cast<uint64_t>(args_.seed), idx);
  const int64_t start = NowNs();
  Result<std::string> r = [&] {
    ScopedSpan span(&spans_, "workflow.start", static_cast<int64_t>(idx));
    return d->engine->Start(TenantId(tenant), kSagaName, payload, wf_id);
  }();
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  ++start_calls_;
  sagas_[idx].tenant = tenant;
  sagas_[idx].wf_id = wf_id;
  if (r.ok()) {
    sagas_[idx].started = true;
    start_us_.emplace_back(end, static_cast<double>(end - start) / 1e3);
  } else {
    ++start_failures_;
    --in_flight_;
    std::fprintf(stderr, "saga start failed: %s\n",
                 r.status().ToString().c_str());
  }
}

void SagaBench::StarterLoop(Deployment* d) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || in_flight_ < shape_.in_flight; });
    if (stop_) return;
    const size_t idx = sagas_.size();
    sagas_.emplace_back();
    ++in_flight_;
    lock.unlock();
    StartOne(d, idx);
    lock.lock();
  }
}

void SagaBench::StopStarter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : starters_) t.join();
  starters_.clear();
}

bool SagaBench::DrainAndCheck(Deployment* d) {
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::printf("check FAILED: %s\n", what.c_str());
    ok = false;
  };
  StopStarter();
  int64_t started = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SagaRun& s : sagas_) started += s.started ? 1 : 0;
  }
  // Wait for every started saga's last finish transaction, keeping the
  // relay running, then stop the consumer and drain the outbox.
  const int64_t want = started * kSagaSteps;
  core::ConsumerStats& cs = d->consumer->stats();
  const int64_t deadline = NowNs() + 90'000'000'000LL;
  while (cs.items_processed.Value() < want && NowNs() < deadline) {
    if (d->relay->RunOnePass(kSagaCluster).value_or(0) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  d->consumer->Stop();
  // Nothing else runs transactions now; drop the injected latency so the
  // relay drain and the per-saga checks below are quick.
  fdb::Database* primary = d->harness->clusters()->Get(kSagaCluster);
  primary->set_latency(fdb::LatencyModel{});
  while (d->relay->RunOnePass(kSagaCluster).value_or(0) > 0) {
  }
  Result<int64_t> lag = d->relay->Lag(kSagaCluster);
  if (!lag.ok() || *lag != 0) {
    fail("relay lag " + (lag.ok() ? std::to_string(*lag) : lag.status().ToString()));
  }
  if (d->store.MaxApplications() > 1) fail("an effect applied twice");
  if (d->store.TotalApplied() != want) {
    fail("effects applied " + std::to_string(d->store.TotalApplied()) +
         " != 3 x sagas " + std::to_string(want));
  }
  int64_t not_completed = 0;
  std::vector<SagaRun> sagas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sagas = sagas_;
  }
  for (const SagaRun& s : sagas) {
    if (!s.started) continue;
    Result<std::optional<ck::WorkflowRecord>> rec =
        d->engine->Load(TenantId(s.tenant), s.wf_id);
    if (!rec.ok() || !rec->has_value() ||
        (*rec)->state != ck::WorkflowRecord::State::kCompleted ||
        (*rec)->step_status != "XXX") {
      ++not_completed;
    }
  }
  if (not_completed > 0) {
    fail(std::to_string(not_completed) + " sagas not completed with XXX");
  }
  int64_t dead = 0;
  for (int t = 0; t < shape_.tenants; ++t) {
    const ck::DatabaseRef ref =
        d->harness->cloudkit()->OpenDatabase(TenantId(t));
    fdb::Transaction txn = ref.cluster->CreateTransaction();
    ck::QueueZone zone = d->harness->quick()->OpenTenantZone(ref, &txn);
    dead += zone.DeadLetterCount().value_or(0);
  }
  if (dead != 0) fail(std::to_string(dead) + " steps dead-lettered");
  fdb::ReplicationGroup* group = d->harness->replication(kSagaCluster);
  const std::string standby = fdb::ReplicationGroup::RegionName(1);
  const fdb::Version target = primary->LastCommittedVersion();
  const int64_t pump_deadline = NowNs() + 30'000'000'000LL;
  while (group->ReplicaAppliedVersion(standby) < target &&
         NowNs() < pump_deadline) {
    d->harness->PumpReplication();
  }
  const fdb::Version applied = group->ReplicaAppliedVersion(standby);
  if (applied < target) {
    fail("standby applied " + std::to_string(applied) + " < primary " +
         std::to_string(target));
  }
  std::printf("check sagas=%" PRId64 " effects=%" PRId64 " max_applications=%"
              PRId64 " not_completed=%" PRId64 " dead_lettered=%" PRId64
              " standby=%" PRId64 "/%" PRId64 " -> %s\n",
              started, d->store.TotalApplied(), d->store.MaxApplications(),
              not_completed, dead, static_cast<int64_t>(applied),
              static_cast<int64_t>(target), ok ? "ok" : "FAILED");
  return ok;
}

int SagaBench::Run() {
  tenant_order_.resize(static_cast<size_t>(shape_.tenants));
  for (int i = 0; i < shape_.tenants; ++i) {
    tenant_order_[static_cast<size_t>(i)] = i;
  }
  std::mt19937_64 order_rng(args_.seed);
  std::shuffle(tenant_order_.begin(), tenant_order_.end(), order_rng);

  // Three set-ups (deployment + the first in_flight sagas started); the
  // median is setup_s and the last one is measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    if (d != nullptr) {
      StopStarter();
      const std::string dir = d->wal_dir;
      d.reset();
      std::filesystem::remove_all(dir);
      std::lock_guard<std::mutex> lock(mu_);
      sagas_.clear();
      start_us_.clear();
      in_flight_ = 0;
      stop_ = false;
      start_calls_ = 0;
      start_failures_ = 0;
    }
    const int64_t start = NowNs();
    d = Build(attempt);
    if (d == nullptr) return 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sagas_.resize(static_cast<size_t>(shape_.in_flight));
      in_flight_ = shape_.in_flight;
    }
    for (int i = 0; i < shape_.in_flight; ++i) {
      StartOne(d.get(), static_cast<size_t>(i));
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::printf("setup_runs_s");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (int i = 0; i < shape_.client_threads; ++i) {
    starters_.emplace_back([this, dp = d.get()] { StarterLoop(dp); });
  }
  // The client threads use `d`: join them before it goes, on every path.
  struct JoinStarters {
    SagaBench* bench;
    ~JoinStarters() { bench->StopStarter(); }
  } join_starters{this};

  fdb::Database* primary = d->harness->clusters()->Get(kSagaCluster);
  fdb::ReplicationGroup* group = d->harness->replication(kSagaCluster);
  const std::string standby = fdb::ReplicationGroup::RegionName(1);
  core::ConsumerStats& cs = d->consumer->stats();
  auto snapshot = [&] {
    Counts c;
    AddDbStats(primary->GetStats(), &c);
    AddConsumerStats(cs, &c);
    AddRegistryCounters(&c);
    c["external.effects_applied"] = d->relay->stats().effects_applied.Value();
    c["external.apply_failures"] = d->relay->stats().apply_failures.Value();
    return c;
  };

  int64_t relay_errors = 0;
  int64_t relay_passes = 0;
  int64_t lag_rows_max = 0;
  int64_t replica_lag_max = 0;
  std::vector<double> dequeue_probe_us, peek_probe_us, relay_pass_us;
  int64_t relay_effects_traced = 0;
  Counts first_counts;
  double entries_per_key = 0.0;
  const int64_t item_lease_ms = d->consumer->config().item_lease_millis;
  const int64_t pointer_lease_ms = d->consumer->config().pointer_lease_millis;

  auto run_window = [&](bool traced, Report* report, WindowResult* w) {
    spans_.set_enabled(traced);
    if (traced) {
      for (Histogram* h : {&cs.scan_micros, &cs.lease_txn_micros,
                           &cs.dequeue_txn_micros, &cs.finish_txn_micros}) {
        h->Reset();
      }
    }
    const Counts c0 = snapshot();
    const int64_t passes0 = relay_passes;
    const int64_t errors0 = relay_errors;
    int64_t calls0;
    int64_t fails0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls0 = start_calls_;
      fails0 = start_failures_;
    }
    SliceMeter meter(&speed_);
    meter.Begin();
    const int64_t t0 = NowNs();
    const int64_t end = t0 + static_cast<int64_t>(args_.seconds * 1e9);
    int64_t next_sample = t0;
    int64_t next_probe = t0;
    while (NowNs() < end) {
      int visited = 0;
      {
        const int64_t ps = NowNs();
        ScopedSpan span(&spans_, "external.relay_pass");
        Result<int> r = d->relay->RunOnePass(kSagaCluster);
        ++relay_passes;
        if (!r.ok()) {
          ++relay_errors;
        } else {
          visited = *r;
        }
        if (traced && visited > 0) {
          relay_pass_us.push_back(static_cast<double>(NowNs() - ps) / 1e3);
          relay_effects_traced += visited;
        }
      }
      if (traced) {
        replica_lag_max = std::max<int64_t>(
            replica_lag_max, static_cast<int64_t>(
                                 primary->LastCommittedVersion() -
                                 group->ReplicaAppliedVersion(standby)));
        if (NowNs() >= next_sample) {
          lag_rows_max = std::max<int64_t>(
              lag_rows_max, d->relay->Lag(kSagaCluster).value_or(0));
          // The benchmark's own client transaction: one key, committed.
          fdb::Transaction txn = primary->CreateTransaction();
          txn.Set("bench|commit_probe", std::to_string(NowNs()));
          ScopedSpan commit(&spans_, "fdb.commit");
          (void)txn.Commit();
          next_sample = NowNs() + 100'000'000;
        }
        if (NowNs() >= next_probe) {
          const ck::DatabaseRef ref = d->harness->cloudkit()->OpenDatabase(
              TenantId(tenant_order_[0]));
          const core::ConsumerConfig defaults;
          {
            fdb::Transaction txn = ref.cluster->CreateTransaction();
            const int64_t ps = NowNs();
            ck::QueueZone zone = d->harness->quick()->OpenTenantZone(ref, &txn);
            (void)zone.Dequeue(defaults.dequeue_max, defaults.item_lease_millis);
            (void)zone.MinVestingTime();
            dequeue_probe_us.push_back(static_cast<double>(NowNs() - ps) / 1e3);
          }
          {
            fdb::Transaction txn = ref.cluster->CreateTransaction();
            const int64_t ps = NowNs();
            ck::QueueZone top = d->harness->quick()->OpenTopZone(
                d->harness->cloudkit()->OpenClusterDb(kSagaCluster), &txn);
            (void)top.PeekIds(defaults.peek_max);
            peek_probe_us.push_back(static_cast<double>(NowNs() - ps) / 1e3);
          }
          next_probe = NowNs() + kProbeIntervalNs;
        }
      }
      if (visited == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      meter.Tick();
    }
    meter.End();
    const int64_t t1 = NowNs();
    const Counts dc = Delta(snapshot(), c0);
    if (!traced) {
      first_counts = dc;
      entries_per_key =
          Ratio(static_cast<double>(primary->TotalEntryCount()),
                static_cast<double>(primary->LiveKeyCount()));
    }
    w->items = Get(dc, "quick.consumer.items_processed");
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [at, us] : start_us_) {
        if (at >= t0 && at < t1) w->enqueue_us.push_back({at, us});
      }
      for (const SagaRun& s : sagas_) {
        for (size_t i = 1; i < s.step_start.size(); ++i) {
          const int64_t a = s.step_start[i - 1];
          const int64_t b = s.step_start[i];
          if (a < 0 || b < t0 || b >= t1) continue;
          w->step_ms.push_back({b, static_cast<double>(b - a) / 1e6});
        }
      }
      w->attempted = (start_calls_ - calls0) + w->items +
                     (relay_passes - passes0);
      w->failed = (start_failures_ - fails0) +
                  Get(dc, "quick.consumer.items_quarantined") +
                  Get(dc, "fdb.txn.retries_exhausted") +
                  Get(dc, "external.apply_failures") +
                  (relay_errors - errors0);
    }
    // Saga latencies are mostly injected commit/GRV/read latency (sleeps),
    // so only the CPU time is host-normalized here.
    AddEndToEnd(report, *w, meter, Median(setup_s), /*cpu_bound_wall=*/false);
    std::printf("stalled_steps %.0f over the item lease, %.0f over the "
                "pointer lease, of %zu step gaps\n",
                StepsOver(*w, item_lease_ms), StepsOver(*w, pointer_lease_ms),
                w->step_ms.size());
  };

  Report untraced;
  WindowResult first;
  run_window(false, &untraced, &first);

  Report traced_e2e;
  WindowResult second;
  if (args_.trace) {
    std::printf("--- traced window ---\n");
    run_window(true, &traced_e2e, &second);
    spans_.set_enabled(false);
  }
  const bool correct = DrainAndCheck(d.get());
  if (!args_.trace) {
    untraced.PrintJson(correct, first.attempted, first.failed);
    return 0;
  }

  std::printf("--- per-layer (counts over the untraced window, times over the "
              "traced window) ---\n");
  for (const auto& [name, v] : first_counts) {
    std::printf("count %-40s %" PRId64 "\n", name.c_str(), v);
  }
  const Counts& counts = first_counts;
  const double items = static_cast<double>(first.items);
  Report layer;
  AddCountMetrics(&layer, counts, items);
  const Summary commit = Summarize(spans_.DurationsUs("fdb.commit"));
  layer.Add("fdb.commit_p50_us", commit.p50, "us",
            "benchmark commit probe, n=" + std::to_string(commit.n));
  layer.Add("fdb.commit_p99_us", commit.tail, "us",
            "n=" + std::to_string(commit.n) +
                " tail_pct=" + std::to_string(commit.tail_pct));
  layer.Add("fdb.wal_bytes_per_item",
            Ratio(Get(counts, "fdb.wal_appended_bytes"), items), "bytes");
  layer.Add("fdb.wal_syncs_per_commit",
            Ratio(Get(counts, "fdb.wal_syncs"),
                  Get(counts, "fdb.commits_attempted")),
            "count");
  layer.Add("fdb.replica_lag_versions_max",
            static_cast<double>(replica_lag_max), "count");
  layer.Add("fdb.entries_per_live_key", entries_per_key, "count",
            "at the end of the untraced window");
  layer.Add("cloudkit.dequeue_probe_us", Summarize(dequeue_probe_us).p50, "us",
            "n=" + std::to_string(dequeue_probe_us.size()));
  layer.Add("cloudkit.peek_top_probe_us", Summarize(peek_probe_us).p50, "us",
            "n=" + std::to_string(peek_probe_us.size()));
  layer.NotMeasured("quick.enqueue_body_p50_us", "us",
                    "enqueues happen inside WorkflowEngine::Start");
  layer.NotMeasured("quick.followup_p50_us", "us",
                    "enqueues happen inside WorkflowEngine::Start");
  layer.NotMeasured("quick.pointer_creates_per_item", "count",
                    "enqueues happen inside WorkflowEngine::Start");
  layer.NotMeasured("quick.pass_us_per_item", "us",
                    "the async consumer runs no RunOnePass");
  layer.Add("quick.scan_p50_us",
            static_cast<double>(cs.scan_micros.Percentile(0.5)), "us",
            "n=" + std::to_string(cs.scan_micros.Count()));
  layer.Add("quick.lease_txn_p50_us",
            static_cast<double>(cs.lease_txn_micros.Percentile(0.5)), "us",
            "n=" + std::to_string(cs.lease_txn_micros.Count()));
  layer.Add("quick.dequeue_txn_p50_us",
            static_cast<double>(cs.dequeue_txn_micros.Percentile(0.5)), "us",
            "n=" + std::to_string(cs.dequeue_txn_micros.Count()));
  layer.Add("quick.finish_txn_p50_us",
            static_cast<double>(cs.finish_txn_micros.Percentile(0.5)), "us",
            "n=" + std::to_string(cs.finish_txn_micros.Count()));
  layer.Add("quick.lease_batch_size",
            Ratio(Get(counts, "quick.consumer.pointer_leases_acquired"),
                  Get(counts, "quick.consumer.lease_batches")),
            "count");
  layer.Add("quick.backpressure_waits",
            static_cast<double>(Get(counts, "quick.consumer.backpressure_waits")),
            "count", "over the untraced window");
  const double gaps = static_cast<double>(second.step_ms.size());
  layer.Add("quick.stalled_steps_per_1k",
            Ratio(1000.0 * StepsOver(second, item_lease_ms), gaps), "count",
            "step gaps over the item lease, traced window");
  layer.Add("quick.lease_stalled_steps_per_1k",
            Ratio(1000.0 * StepsOver(second, pointer_lease_ms), gaps), "count",
            "step gaps over the pointer lease, traced window");
  const Summary step = Summarize(Values(second.step_ms));
  layer.Add("quick.step_p50_ms", step.p50, "ms");
  layer.Add("quick.step_p99_ms", step.tail, "ms",
            "n=" + std::to_string(step.n) +
                " tail_pct=" + std::to_string(step.tail_pct));
  layer.Add("quick.exec_p50_us",
            Summarize(spans_.DurationsUs("quick.exec")).p50, "us");
  layer.Add("workflow.continuations_per_step",
            Ratio(Get(counts, "quick.consumer.continuations_enqueued"), items),
            "count");
  double relay_total_us = 0.0;
  for (double us : relay_pass_us) relay_total_us += us;
  layer.Add("external.relay_us_per_effect",
            Ratio(relay_total_us, static_cast<double>(relay_effects_traced)),
            "us");
  layer.Add("external.outbox_lag_rows_max", static_cast<double>(lag_rows_max),
            "count");

  PrintOverhead(traced_e2e, untraced);
  const std::string trace_path = args_.workdir + "/spans-" + args_.workload +
                                 "-" + std::to_string(getpid()) + ".txt";
  std::printf("spans %zu written to %s\n", spans_.size(),
              spans_.WriteTo(trace_path) ? trace_path.c_str() : "(failed)");
  layer.PrintJson(correct, second.attempted, second.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%.3f trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "deep_backlog") {
    SyncShape shape;
    shape.tenants = 8;
    shape.depth = 1000;
    shape.step_ms = 10;
    shape.count_passes = 1000;
    return SyncBench(shape, args).Run();
  }
  if (args.workload == "tenant_fanout") {
    SyncShape shape;
    shape.fanout = true;
    shape.active = 20000;
    shape.population = 60000;
    shape.step_ms = 7000;
    shape.count_passes = 14;
    shape.consumer.sequential = true;
    return SyncBench(shape, args).Run();
  }
  if (args.workload == "saga_crossdc") {
    return SagaBench(SagaShape{}, args).Run();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
