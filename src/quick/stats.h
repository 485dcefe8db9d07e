#ifndef QUICK_QUICK_STATS_H_
#define QUICK_QUICK_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/metrics.h"

namespace quick::core {

/// Per-consumer counters and latency distributions. These are the numbers
/// the paper's evaluation reads out: Figures 5/6 plot the two latency
/// histograms; Figure 7 plots the lease-collision counters and throughput.
struct ConsumerStats {
  // Work items.
  Counter items_dequeued;
  Counter items_processed;
  Counter items_failed_attempts;
  Counter items_requeued;
  Counter items_dropped_permanent;
  /// Terminally-failed items moved into the dead-letter quarantine instead
  /// of being deleted (RetryPolicy::quarantine_on_failure).
  Counter items_quarantined;
  /// Terminal transitions (complete/drop/quarantine/requeue) fenced off
  /// because this consumer's lease had been superseded or the item was
  /// already gone — the zombie-consumer safety net.
  Counter terminal_fenced;
  Counter items_throttled;
  /// Dispatches refused by the admission gate; the item requeues with the
  /// gate's retry-after hint instead of entering the worker pool.
  Counter items_dispatch_throttled;
  Counter local_items_processed;
  /// Continuation items enqueued atomically with a finish transaction
  /// (Gray's queued-transaction pattern — workflow step chaining).
  Counter continuations_enqueued;
  /// Outbox rows written atomically with a finish transaction.
  Counter outbox_effects_recorded;

  // Pointers.
  Counter pointer_lease_attempts;
  Counter pointer_leases_acquired;
  /// Collision detected when reading the pointer (cheap, Fig. 7: "a
  /// redundant read").
  Counter lease_collisions_read;
  /// Collision detected at commit (expensive: resolver work, Fig. 7).
  Counter lease_collisions_commit;
  Counter pointers_requeued;
  Counter pointers_deleted;
  Counter pointer_gc_aborted;

  Counter scans;
  /// Scans short-circuited because the cluster's circuit breaker was open.
  Counter scans_skipped_breaker;
  /// Work-stealing peeks of foreign shards by a striped scanner
  /// (DESIGN.md §12): each steal visits one shard outside this consumer's
  /// stripe, bounding starvation when a stripe's owner dies.
  Counter steals;
  /// Current stripe size: top-level shards this consumer owns, summed over
  /// its assigned clusters. A level (gauge semantics), not a monotone
  /// count — it shrinks when new consumers join the membership group.
  std::atomic<int64_t> shards_owned{0};
  Counter lease_extensions;
  Counter leases_lost;

  // Async pipeline (DESIGN.md §11).
  /// Multi-pointer lease transactions committed (async mode).
  Counter lease_batches;
  /// Batched lease commits that lost a conflict and fell back to
  /// single-pointer lease transactions.
  Counter lease_batch_fallbacks;
  /// Scanner stalls because the in-flight transaction window was full —
  /// the backpressure signal for sizing max_inflight_txns.
  Counter backpressure_waits;

  /// Vested-pointer pickup latency: pointer became available -> its queue
  /// starts being processed (Figures 5/6 series (a)). Microseconds.
  Histogram pointer_latency_micros;
  /// Work-item latency: enqueue -> picked for processing (series (b)).
  Histogram item_latency_micros;
  /// Handler execution time.
  Histogram item_exec_micros;

  // Per-stage pipeline latencies (Algorithm 1/2/3 hot-path transactions),
  // so a perf regression can be pinned to the stage that moved.
  /// Scanner peek+select phase of one cluster pass.
  Histogram scan_micros;
  /// Obtain-lease transaction (one lease batch), success or collision.
  Histogram lease_txn_micros;
  /// Batch-dequeue transaction of a pointed-to queue zone.
  Histogram dequeue_txn_micros;
  /// Transition out of processing: complete/requeue/quarantine commit.
  Histogram finish_txn_micros;

  /// Multi-line operator report with every counter and latency summary.
  std::string FullReport() const {
    std::string out;
    auto line = [&out](const char* name, int64_t v) {
      out += std::string(name) + " = " + std::to_string(v) + "\n";
    };
    line("items_dequeued", items_dequeued.Value());
    line("items_processed", items_processed.Value());
    line("items_failed_attempts", items_failed_attempts.Value());
    line("items_requeued", items_requeued.Value());
    line("items_dropped_permanent", items_dropped_permanent.Value());
    line("items_quarantined", items_quarantined.Value());
    line("terminal_fenced", terminal_fenced.Value());
    line("items_throttled", items_throttled.Value());
    line("items_dispatch_throttled", items_dispatch_throttled.Value());
    line("local_items_processed", local_items_processed.Value());
    line("continuations_enqueued", continuations_enqueued.Value());
    line("outbox_effects_recorded", outbox_effects_recorded.Value());
    line("pointer_lease_attempts", pointer_lease_attempts.Value());
    line("pointer_leases_acquired", pointer_leases_acquired.Value());
    line("lease_collisions_read", lease_collisions_read.Value());
    line("lease_collisions_commit", lease_collisions_commit.Value());
    line("pointers_requeued", pointers_requeued.Value());
    line("pointers_deleted", pointers_deleted.Value());
    line("pointer_gc_aborted", pointer_gc_aborted.Value());
    line("scans", scans.Value());
    line("scans_skipped_breaker", scans_skipped_breaker.Value());
    line("steals", steals.Value());
    line("shards_owned", shards_owned.load(std::memory_order_relaxed));
    line("lease_extensions", lease_extensions.Value());
    line("leases_lost", leases_lost.Value());
    line("lease_batches", lease_batches.Value());
    line("lease_batch_fallbacks", lease_batch_fallbacks.Value());
    line("backpressure_waits", backpressure_waits.Value());
    out += "pointer_latency_us : " + pointer_latency_micros.Summary() + "\n";
    out += "item_latency_us : " + item_latency_micros.Summary() + "\n";
    out += "item_exec_us : " + item_exec_micros.Summary() + "\n";
    out += "scan_us : " + scan_micros.Summary() + "\n";
    out += "lease_txn_us : " + lease_txn_micros.Summary() + "\n";
    out += "dequeue_txn_us : " + dequeue_txn_micros.Summary() + "\n";
    out += "finish_txn_us : " + finish_txn_micros.Summary() + "\n";
    return out;
  }

  /// Publishes every counter (as a gauge — the registry value mirrors this
  /// struct, it does not accumulate) and latency histogram into `registry`
  /// under `prefix` (e.g. "quick.consumer"), so the exporters and the
  /// bench reports can read consumer state in one place. Idempotent:
  /// calling again overwrites gauges and republishes histograms.
  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const {
    auto gauge = [&](const char* name, const Counter& c) {
      registry->GetGauge(prefix + "." + name)->Set(c.Value());
    };
    gauge("items_dequeued", items_dequeued);
    gauge("items_processed", items_processed);
    gauge("items_failed_attempts", items_failed_attempts);
    gauge("items_requeued", items_requeued);
    gauge("items_dropped_permanent", items_dropped_permanent);
    gauge("items_quarantined", items_quarantined);
    gauge("terminal_fenced", terminal_fenced);
    gauge("items_throttled", items_throttled);
    gauge("items_dispatch_throttled", items_dispatch_throttled);
    gauge("local_items_processed", local_items_processed);
    gauge("continuations_enqueued", continuations_enqueued);
    gauge("outbox_effects_recorded", outbox_effects_recorded);
    gauge("pointer_lease_attempts", pointer_lease_attempts);
    gauge("pointer_leases_acquired", pointer_leases_acquired);
    gauge("lease_collisions_read", lease_collisions_read);
    gauge("lease_collisions_commit", lease_collisions_commit);
    gauge("pointers_requeued", pointers_requeued);
    gauge("pointers_deleted", pointers_deleted);
    gauge("pointer_gc_aborted", pointer_gc_aborted);
    gauge("scans", scans);
    gauge("scans_skipped_breaker", scans_skipped_breaker);
    gauge("steals", steals);
    registry->GetGauge(prefix + ".shards_owned")
        ->Set(shards_owned.load(std::memory_order_relaxed));
    gauge("lease_extensions", lease_extensions);
    gauge("leases_lost", leases_lost);
    gauge("lease_batches", lease_batches);
    gauge("lease_batch_fallbacks", lease_batch_fallbacks);
    gauge("backpressure_waits", backpressure_waits);
    auto hist = [&](const char* name, const Histogram& h) {
      Histogram* out = registry->GetHistogram(prefix + "." + name);
      out->Reset();
      out->Merge(h);
    };
    hist("pointer_latency_us", pointer_latency_micros);
    hist("item_latency_us", item_latency_micros);
    hist("item_exec_us", item_exec_micros);
    hist("scan_us", scan_micros);
    hist("lease_txn_us", lease_txn_micros);
    hist("dequeue_txn_us", dequeue_txn_micros);
    hist("finish_txn_us", finish_txn_micros);
  }

  /// One-line summary for logs.
  std::string Summary() const {
    std::string out;
    out += "items=" + std::to_string(items_processed.Value());
    out += " deq=" + std::to_string(items_dequeued.Value());
    out += " ptr_leases=" + std::to_string(pointer_leases_acquired.Value());
    out += " coll_read=" + std::to_string(lease_collisions_read.Value());
    out += " coll_commit=" + std::to_string(lease_collisions_commit.Value());
    out += " ptr_deleted=" + std::to_string(pointers_deleted.Value());
    return out;
  }
};

}  // namespace quick::core

#endif  // QUICK_QUICK_STATS_H_
