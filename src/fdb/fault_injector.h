#ifndef QUICK_FDB_FAULT_INJECTOR_H_
#define QUICK_FDB_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "fdb/fault_plan.h"

/// Cumulative injected-fault counters, named once (common/metrics.h's
/// declare-once lists).
#define QUICK_FDB_FAULT_COUNTS(X) \
  X(outage_rejections)            \
  X(read_faults)                  \
  X(forced_too_old)               \
  X(latency_spike_millis)         \
  X(torn_writes)                  \
  X(corrupted_writes)             \
  X(fsync_stall_millis)           \
  X(link_drops)                   \
  X(link_duplicates)              \
  X(link_delay_millis)            \
  X(link_partitions)

namespace quick::fdb {

/// Fault injection for the simulated cluster, combining two layers:
///
///  - a base probabilistic config (coin-flip per operation), exercising
///    QuiCK's at-least-once guarantee — commit_unknown_result in particular
///    is the FDB failure mode the paper calls out (§6.1, [11]): the commit
///    may or may not have applied;
///  - an optional time-windowed FaultPlan layering scheduled cluster
///    outages, elevated failure rates, forced transaction_too_old, and
///    latency spikes on top (the adversarial schedules the chaos suites
///    drive).
///
/// Evaluation is deterministic given (config.seed, plan, clock): windows
/// are a pure function of Clock time and all rolls come from one seeded
/// RNG.
class FaultInjector {
 public:
  struct Config {
    /// Probability a commit reports kCommitUnknownResult while having
    /// actually applied.
    double unknown_result_applied = 0.0;
    /// Probability a commit reports kCommitUnknownResult without applying.
    double unknown_result_dropped = 0.0;
    /// Probability a commit fails with a transient kUnavailable before
    /// being applied.
    double commit_unavailable = 0.0;
    /// Probability getReadVersion fails with transient kUnavailable.
    double grv_unavailable = 0.0;
    uint64_t seed = 42;
  };

  /// Cumulative injected-fault counters (observability for chaos tests).
  struct Counts {
    QUICK_FDB_FAULT_COUNTS(QUICK_STAT_FIELD)
  };

  FaultInjector() : FaultInjector(Config{}) {}
  explicit FaultInjector(const Config& config, FaultPlan plan = {},
                         Clock* clock = nullptr)
      : config_(config),
        plan_(std::move(plan)),
        clock_(clock),
        rng_(config.seed) {}

  enum class CommitFault {
    kNone,
    kUnknownApplied,
    kUnknownDropped,
    kUnavailable,
    kTooOld,
  };

  /// Rolls the dice for one commit attempt. Thread-safe.
  CommitFault NextCommitFault() {
    const FaultWindow effect = ActiveEffect();
    if (effect.full_outage) {
      counts_.outage_rejections.Increment();
      return CommitFault::kUnavailable;
    }
    const double p_unavailable =
        config_.commit_unavailable + effect.commit_unavailable;
    if (config_.unknown_result_applied == 0 &&
        config_.unknown_result_dropped == 0 && p_unavailable == 0 &&
        effect.transaction_too_old == 0) {
      return CommitFault::kNone;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const double roll = rng_.NextDouble();
    double threshold = config_.unknown_result_applied;
    if (roll < threshold) return CommitFault::kUnknownApplied;
    threshold += config_.unknown_result_dropped;
    if (roll < threshold) return CommitFault::kUnknownDropped;
    threshold += p_unavailable;
    if (roll < threshold) return CommitFault::kUnavailable;
    threshold += effect.transaction_too_old;
    if (roll < threshold) {
      counts_.forced_too_old.Increment();
      return CommitFault::kTooOld;
    }
    return CommitFault::kNone;
  }

  /// True when this GRV call should fail transiently. Thread-safe.
  bool NextGrvFault() {
    const FaultWindow effect = ActiveEffect();
    if (effect.full_outage) {
      counts_.outage_rejections.Increment();
      return true;
    }
    const double p = config_.grv_unavailable + effect.grv_unavailable;
    if (p == 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return rng_.NextDouble() < p;
  }

  /// Fault decision for one read (point or range): OK, kUnavailable, or
  /// kTransactionTooOld. Thread-safe.
  Status NextReadFault() {
    const FaultWindow effect = ActiveEffect();
    if (effect.full_outage) {
      counts_.outage_rejections.Increment();
      return Status::Unavailable("injected outage: cluster unreachable");
    }
    if (effect.read_unavailable == 0 && effect.transaction_too_old == 0) {
      return Status::OK();
    }
    std::lock_guard<std::mutex> lock(mu_);
    const double roll = rng_.NextDouble();
    if (roll < effect.read_unavailable) {
      counts_.read_faults.Increment();
      return Status::Unavailable("injected read failure");
    }
    if (roll < effect.read_unavailable + effect.transaction_too_old) {
      counts_.forced_too_old.Increment();
      return Status::TransactionTooOld("injected transaction_too_old");
    }
    return Status::OK();
  }

  /// Milliseconds of scheduled latency spike currently in effect; the
  /// caller pays them on its Clock (ManualClock advances, SystemClock
  /// blocks). Thread-safe.
  int64_t ExtraLatencyMillis() {
    if (plan_.empty() || clock_ == nullptr) return 0;
    const int64_t extra =
        plan_.EffectAt(clock_->NowMillis()).extra_latency_millis;
    if (extra > 0) counts_.latency_spike_millis.Increment(extra);
    return extra;
  }

  /// Advances the ordinal counter for `op` and returns the scheduled disk
  /// fault firing at the new ordinal, if any (at most one fires per
  /// operation; when several are scheduled on the same ordinal the first
  /// added wins). Thread-safe. The WAL / checkpoint writer consumes the
  /// fault; counters here record what was handed out.
  std::optional<DiskFault> NextDiskFault(DiskFault::Op op) {
    if (plan_.disk_faults().empty()) return std::nullopt;
    int64_t ordinal;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ordinal = ++disk_op_counts_[static_cast<size_t>(op)];
    }
    for (const DiskFault& f : plan_.disk_faults()) {
      if (f.op != op || f.at_op != ordinal) continue;
      switch (f.kind) {
        case DiskFault::Kind::kTornWrite:
          counts_.torn_writes.Increment();
          break;
        case DiskFault::Kind::kChecksumCorruption:
          counts_.corrupted_writes.Increment();
          break;
        case DiskFault::Kind::kFsyncStall:
          counts_.fsync_stall_millis.Increment(f.stall_millis);
          break;
      }
      return f;
    }
    return std::nullopt;
  }

  /// Advances the replication-link send ordinal and returns the scheduled
  /// link fault firing at the new ordinal, if any (first added wins on a
  /// shared ordinal). Thread-safe. The ReplicationLink consumes the fault;
  /// counters here record what was handed out.
  std::optional<LinkFault> NextLinkFault() {
    if (plan_.link_faults().empty()) return std::nullopt;
    int64_t ordinal;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ordinal = ++link_op_count_;
    }
    for (const LinkFault& f : plan_.link_faults()) {
      if (f.at_op != ordinal) continue;
      switch (f.kind) {
        case LinkFault::Kind::kDrop:
          counts_.link_drops.Increment();
          break;
        case LinkFault::Kind::kDuplicate:
          counts_.link_duplicates.Increment();
          break;
        case LinkFault::Kind::kDelay:
          counts_.link_delay_millis.Increment(f.delay_millis);
          break;
        case LinkFault::Kind::kPartition:
          counts_.link_partitions.Increment();
          break;
      }
      return f;
    }
    return std::nullopt;
  }

  const Config& config() const { return config_; }
  const FaultPlan& plan() const { return plan_; }

  Counts counts() const { return counts_.Read(); }

 private:
  /// The plan's aggregate effect at the cluster's current time; zero-effect
  /// when no plan or no clock was supplied.
  FaultWindow ActiveEffect() const {
    if (plan_.empty() || clock_ == nullptr) return FaultWindow{};
    return plan_.EffectAt(clock_->NowMillis());
  }

  Config config_;
  FaultPlan plan_;
  Clock* clock_;
  std::mutex mu_;
  Random rng_;

  QUICK_LIVE_COUNTERS(QUICK_FDB_FAULT_COUNTS, Counts) counts_;
  /// Per-Op ordinal counters for scheduled disk faults (guarded by mu_).
  int64_t disk_op_counts_[2] = {0, 0};
  /// Replication-link send ordinal (guarded by mu_).
  int64_t link_op_count_ = 0;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_FAULT_INJECTOR_H_
