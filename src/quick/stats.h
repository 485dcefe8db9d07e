#ifndef QUICK_QUICK_STATS_H_
#define QUICK_QUICK_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/metrics.h"

/// Every ConsumerStats instrument, named once, in report order: a
/// COUNTER(name) is a monotone Counter, a GAUGE(name) a level held in a
/// std::atomic<int64_t>, and a HISTOGRAM(name, label) a Histogram of
/// microseconds that FullReport() prints under `label`.
#define QUICK_CONSUMER_STATS(COUNTER, GAUGE, HISTOGRAM)                       \
  /* Work items. */                                                           \
  COUNTER(items_dequeued)                                                     \
  COUNTER(items_processed)                                                    \
  COUNTER(items_failed_attempts)                                              \
  COUNTER(items_requeued)                                                     \
  COUNTER(items_dropped_permanent)                                            \
  /* Terminally-failed items moved into the dead-letter quarantine instead    \
     of being deleted (RetryPolicy::quarantine_on_failure). */                \
  COUNTER(items_quarantined)                                                  \
  /* Terminal transitions (complete/drop/quarantine/requeue) fenced off       \
     because this consumer's lease had been superseded or the item was        \
     already gone — the zombie-consumer safety net. */                        \
  COUNTER(terminal_fenced)                                                    \
  /* Finish transactions (complete/drop/quarantine/requeue) that failed to    \
     commit; the item's lease runs out and it runs again. */                  \
  COUNTER(finishes_failed)                                                    \
  COUNTER(items_throttled)                                                    \
  /* Dispatches refused by the admission gate; the item requeues with the     \
     gate's retry-after hint instead of entering the worker pool. */          \
  COUNTER(items_dispatch_throttled)                                           \
  COUNTER(local_items_processed)                                              \
  /* Continuation items enqueued atomically with a finish transaction         \
     (Gray's queued-transaction pattern — workflow step chaining). */         \
  COUNTER(continuations_enqueued)                                             \
  /* Outbox rows written atomically with a finish transaction. */             \
  COUNTER(outbox_effects_recorded)                                            \
  /* Pointers. */                                                             \
  COUNTER(pointer_lease_attempts)                                             \
  COUNTER(pointer_leases_acquired)                                            \
  /* Collision detected when reading the pointer (cheap, Fig. 7: "a           \
     redundant read"). */                                                     \
  COUNTER(lease_collisions_read)                                              \
  /* Collision detected at commit (expensive: resolver work, Fig. 7). */      \
  COUNTER(lease_collisions_commit)                                            \
  COUNTER(pointers_requeued)                                                  \
  COUNTER(pointers_deleted)                                                   \
  COUNTER(pointer_gc_aborted)                                                 \
  COUNTER(scans)                                                              \
  /* Scans short-circuited because the cluster's circuit breaker was open. */ \
  COUNTER(scans_skipped_breaker)                                              \
  /* Work-stealing peeks of foreign shards by a striped scanner (DESIGN.md    \
     §12): each steal visits one shard outside this consumer's stripe,        \
     bounding starvation when a stripe's owner dies. */                       \
  COUNTER(steals)                                                             \
  /* Current stripe size: top-level shards this consumer owns, summed over    \
     its assigned clusters. It shrinks when new consumers join the            \
     membership group. */                                                     \
  GAUGE(shards_owned)                                                         \
  COUNTER(lease_extensions)                                                   \
  COUNTER(leases_lost)                                                        \
  /* Async pipeline (DESIGN.md §11). Multi-pointer lease transactions         \
     committed. */                                                            \
  COUNTER(lease_batches)                                                      \
  /* Batched lease commits that lost a conflict and fell back to              \
     single-pointer lease transactions. */                                    \
  COUNTER(lease_batch_fallbacks)                                              \
  /* Scanner stalls because the in-flight transaction window was full — the   \
     backpressure signal for sizing max_inflight_txns. */                     \
  COUNTER(backpressure_waits)                                                 \
  /* Vested-pointer pickup latency: pointer became available -> its queue     \
     starts being processed (Figures 5/6 series (a)). */                      \
  HISTOGRAM(pointer_latency_micros, pointer_latency_us)                       \
  /* Work-item latency: enqueue -> picked for processing (series (b)). */     \
  HISTOGRAM(item_latency_micros, item_latency_us)                             \
  /* Handler execution time. */                                               \
  HISTOGRAM(item_exec_micros, item_exec_us)                                   \
  /* Per-stage pipeline latencies (Algorithm 1/2/3 hot-path transactions),    \
     so a perf regression can be pinned to the stage that moved. Scanner      \
     peek+select phase of one cluster pass. */                                \
  HISTOGRAM(scan_micros, scan_us)                                             \
  /* Obtain-lease transaction (one lease batch), success or collision. */     \
  HISTOGRAM(lease_txn_micros, lease_txn_us)                                   \
  /* Batch-dequeue transaction of a pointed-to queue zone. */                 \
  HISTOGRAM(dequeue_txn_micros, dequeue_txn_us)                               \
  /* Transition out of processing: complete/requeue/quarantine commit. */     \
  HISTOGRAM(finish_txn_micros, finish_txn_us)

namespace quick::core {

/// Per-consumer counters and latency distributions, read from
/// Consumer::stats(). These are the numbers the paper's evaluation reads
/// out: Figures 5/6 plot the two latency histograms; Figure 7 plots the
/// lease-collision counters and throughput.
struct ConsumerStats {
#define QUICK_CONSUMER_COUNTER(name) Counter name;
#define QUICK_CONSUMER_GAUGE(name) std::atomic<int64_t> name{0};
#define QUICK_CONSUMER_HISTOGRAM(name, label) Histogram name;
  QUICK_CONSUMER_STATS(QUICK_CONSUMER_COUNTER, QUICK_CONSUMER_GAUGE,
                       QUICK_CONSUMER_HISTOGRAM)
#undef QUICK_CONSUMER_COUNTER
#undef QUICK_CONSUMER_GAUGE
#undef QUICK_CONSUMER_HISTOGRAM

  /// Multi-line operator report with every counter and latency summary.
  std::string FullReport() const {
    std::string out;
#define QUICK_CONSUMER_COUNTER(name) \
  out += #name " = " + std::to_string(name.Value()) + "\n";
#define QUICK_CONSUMER_GAUGE(name) \
  out += #name " = " + std::to_string(name.load()) + "\n";
#define QUICK_CONSUMER_HISTOGRAM(name, label) \
  out += #label " : " + name.Summary() + "\n";
    QUICK_CONSUMER_STATS(QUICK_CONSUMER_COUNTER, QUICK_CONSUMER_GAUGE,
                         QUICK_CONSUMER_HISTOGRAM)
#undef QUICK_CONSUMER_COUNTER
#undef QUICK_CONSUMER_GAUGE
#undef QUICK_CONSUMER_HISTOGRAM
    return out;
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
