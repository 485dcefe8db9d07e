#ifndef QUICK_COMMON_METRICS_H_
#define QUICK_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace quick {

/// Monotonic counter.
class Counter {
 public:
  void Increment(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

  /// Atomically reads and zeroes the counter. Unlike Value()-then-Reset(),
  /// a concurrent Increment lands either in the returned value or in the
  /// next epoch — never in both, never in neither. SnapshotAndReset() uses
  /// this so periodic scrapes cannot lose increments.
  int64_t Take() { return v_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Declare-once counter lists. A component names its counters once, in an
/// X-macro list `#define FOO_COUNTERS(X) X(a) X(b) ...`, and expands that
/// one list into the by-value snapshot it hands out and the live counters
/// behind it:
///
///   struct Stats { FOO_COUNTERS(QUICK_STAT_FIELD) };
///   QUICK_LIVE_COUNTERS(FOO_COUNTERS, Stats) stats_;  // stats_.a.Increment()
///   Stats GetStats() const { return stats_.Read(); }
#define QUICK_STAT_FIELD(name) int64_t name = 0;
#define QUICK_STAT_COUNTER(name) ::quick::Counter name;
#define QUICK_STAT_READ(name) out.name = name.Value();
#define QUICK_LIVE_COUNTERS(LIST, Snapshot) \
  struct {                                  \
    LIST(QUICK_STAT_COUNTER)                \
    Snapshot Read() const {                 \
      Snapshot out;                         \
      LIST(QUICK_STAT_READ)                 \
      return out;                           \
    }                                       \
  }

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Coherent point-in-time view of a whole registry: all three metric kinds
/// captured under one lock acquisition, each list sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;
};

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string JsonEscape(const std::string& s);

/// `{"count":N,"sum":S,"mean":M,...}` — the JSON form of a histogram
/// summary, shared by ExportJson and the bench-report writer.
std::string HistogramStatsJson(const HistogramStats& stats);

/// Named metric registry. The paper stresses per-tenant observability
/// (§2 "Operations and monitoring"); consumers and stores register
/// counters, gauges, and latency histograms here, and the exporters below
/// hand them to the benches, the report tooling, and CI in machine-
/// readable form.
class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);

  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name);

  /// Returns the histogram registered under `name`, creating it on first
  /// use. Samples are by convention microseconds.
  Histogram* GetHistogram(const std::string& name);

  /// All counters as (name, value), sorted by name.
  std::vector<std::pair<std::string, int64_t>> CounterSnapshot() const;

  /// All gauges as (name, value), sorted by name.
  std::vector<std::pair<std::string, int64_t>> GaugeSnapshot() const;

  /// All histograms as (name, stats), sorted by name.
  std::vector<std::pair<std::string, HistogramStats>> HistogramSnapshot()
      const;

  /// Counters, gauges, and histograms in one registry-lock acquisition:
  /// no metric can be registered or reset between the three views.
  MetricsSnapshot Snapshot() const;

  /// Snapshot-then-reset as one registry-level critical section, with
  /// counters drained via Counter::Take() — a concurrent Increment is
  /// either in the returned snapshot or in the registry afterwards, never
  /// lost (the scrape-epoch contract Report()/ResetAll() pairs cannot
  /// give). Histogram samples racing the reset may land in either epoch.
  MetricsSnapshot SnapshotAndReset();

  /// Multi-line human-readable dump of all metrics.
  std::string Report() const;

  /// Prometheus text exposition (version 0.0.4): counters and gauges as
  /// single samples, histograms as summaries with p50/p95/p99/p999
  /// quantiles plus _sum/_count. Metric names are sanitized to
  /// [a-zA-Z0-9_] (dots become underscores).
  std::string ExportPrometheusText() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name: {count,sum,mean,min,max,p50,p95,p99,p999}}}. Keys keep their
  /// registered (dotted) names.
  std::string ExportJson() const;

  void ResetAll();

  /// Process-wide default registry.
  static MetricsRegistry* Default();

 private:
  MetricsSnapshot SnapshotLocked() const;  // caller holds mu_

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace quick

#endif  // QUICK_COMMON_METRICS_H_
