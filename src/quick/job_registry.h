#ifndef QUICK_QUICK_JOB_REGISTRY_H_
#define QUICK_QUICK_JOB_REGISTRY_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cloudkit/database_id.h"
#include "cloudkit/queued_item.h"
#include "common/backoff.h"
#include "common/clock.h"
#include "common/status.h"
#include "quick/quick.h"

namespace quick::fdb {
class Transaction;
}  // namespace quick::fdb

namespace quick::core {

/// Execution context handed to a work-item handler. Handlers should poll
/// Expired() / LeaseLost() at convenient points and return early — QuiCK
/// bounds execution time and interrupts processing when the lease extender
/// loses the lease (Alg. 3).
struct WorkContext {
  ck::QueuedItem item;
  ck::DatabaseId db_id;
  std::string zone;
  /// Id of the consumer executing this attempt (handlers use it for
  /// logging and per-consumer behaviour in tests).
  std::string consumer_id;
  Clock* clock = nullptr;
  int64_t deadline_millis = 0;
  std::atomic<bool>* lease_lost = nullptr;
  int attempt = 0;

  bool Expired() const {
    return clock != nullptr && clock->NowMillis() > deadline_millis;
  }
  bool LeaseLost() const {
    return lease_lost != nullptr && lease_lost->load();
  }
};

using Handler = std::function<Status(WorkContext&)>;

/// An intended external side-effect, recorded as a transactional-outbox row
/// in the same transaction as the item's finish. The OutboxRelay later
/// applies it to the external store under `idempotency_key` — a crash
/// between the external write and the row's deletion can duplicate the
/// *attempt*, never the *effect*.
struct OutboxEffect {
  /// External system / destination key (free-form; the relay passes it
  /// through to the effect store).
  std::string target;
  /// Globally unique per intended effect; the dedupe handle.
  std::string idempotency_key;
  std::string payload;
};

/// What a handler produced: the final status plus everything that must
/// commit atomically with the item's successful Complete. Continuations,
/// effects, and the hook are applied only when `status` is OK and the
/// terminal transition is not fenced; a requeued (transient-failure) item
/// applies nothing.
struct WorkResult {
  Status status;
  /// Work enqueued in the finish transaction (Gray's queued transaction,
  /// "Queues Are Databases"): into the finished item's own database, or a
  /// local item's cluster top-level queue. An empty id is random; workflow
  /// steps use deterministic ids so a re-executed finish cannot fork the
  /// chain.
  std::vector<DelayedItem> continuations;
  std::vector<OutboxEffect> effects;
  /// Runs inside the finish transaction after the queue transition, for
  /// arbitrary same-transaction state (e.g. the workflow record). May be
  /// re-executed on transaction retry — must be idempotent within the
  /// transaction, like every QuiCK transaction body.
  std::function<Status(fdb::Transaction&)> txn_hook;

  WorkResult() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Status-only results keep
  // plain handlers a one-line return.
  WorkResult(Status s) : status(std::move(s)) {}
};

using WorkHandler = std::function<WorkResult(WorkContext&)>;

/// Invoked when the item leaves the queue through a terminal *failure*
/// (permanent error or retry exhaustion): the returned result's
/// continuations/effects/hook commit in the same transaction as the
/// quarantine (or legacy drop) — this is how a saga launches its
/// compensation chain atomically with the failing step's dead-lettering.
/// The returned status is ignored; the transition itself is the outcome.
using TerminalHandler =
    std::function<WorkResult(WorkContext&, const Status& final_status)>;

/// Per-job-type retry/throttle policy (§6: "each type of queued items can
/// set its own retry policy").
struct RetryPolicy {
  /// Immediate re-executions inside the Worker before requeueing (Alg. 3).
  int max_inline_retries = 1;
  /// Requeue backoff: initial * 2^error_count, capped (exponential
  /// backoff on the item's error count, §6).
  int64_t backoff_initial_millis = 1000;
  int64_t backoff_max_millis = 60000;
  /// Total attempts before the drop policy applies; 0 = retry indefinitely
  /// (which in production "would eventually cause alerts").
  int max_attempts = 0;
  /// When attempts are exhausted: true removes the item from the queue
  /// (see quarantine_on_failure for where it goes), false keeps retrying
  /// at the max backoff.
  bool drop_on_exhaust = true;
  /// Terminal-failure disposition. True (the default) moves permanently-
  /// failed, retry-exhausted, and unknown-job-type items into the zone's
  /// dead-letter quarantine — transactionally with the queue removal — so
  /// no item is ever silently lost; operators drain the quarantine via
  /// QuickAdmin. False reproduces the legacy behaviour of deleting the
  /// item outright, leaving only an alert as a trace.
  bool quarantine_on_failure = true;
  /// Per-consumer cap on concurrently processed items of this type
  /// (per-topic throttling, §7); 0 = unlimited.
  int max_concurrent = 0;
  /// Execution bound for one attempt (execution_bound_t, Alg. 3).
  int64_t execution_bound_millis = 30000;
  /// Raise a kRepeatedFailures alert once an item's error count reaches
  /// this value (0 disables) — the "eventually cause alerts and manual
  /// mitigation" hook of §6.
  int64_t alert_after_errors = 0;

  int64_t BackoffForErrorCount(int64_t error_count) const {
    ExponentialBackoff b(backoff_initial_millis, backoff_max_millis);
    return b.DelayForAttempt(static_cast<int>(
        std::min<int64_t>(error_count, 30)));
  }
};

/// Maps job types to handlers and policies. Registration happens at
/// startup; lookups are lock-free afterwards in spirit (a mutex guards the
/// map but contention is nil).
class JobRegistry {
 public:
  struct Entry {
    WorkHandler handler;
    RetryPolicy policy;
    /// May be null; see TerminalHandler.
    TerminalHandler on_terminal;
  };

  /// Plain handlers: the Status is the whole result (no continuations).
  void Register(const std::string& job_type, Handler handler,
                RetryPolicy policy = {}) {
    RegisterWork(
        job_type,
        [handler = std::move(handler)](WorkContext& ctx) {
          return WorkResult(handler(ctx));
        },
        policy);
  }

  /// Full-result handlers (transactional continuations, outbox effects,
  /// same-transaction hooks), with an optional terminal-failure handler.
  void RegisterWork(const std::string& job_type, WorkHandler handler,
                    RetryPolicy policy = {},
                    TerminalHandler on_terminal = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[job_type] = std::make_shared<Entry>(
        Entry{std::move(handler), policy, std::move(on_terminal)});
  }

  /// nullptr when no handler is registered for `job_type`.
  std::shared_ptr<const Entry> Find(const std::string& job_type) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(job_type);
    return it == entries_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_JOB_REGISTRY_H_
