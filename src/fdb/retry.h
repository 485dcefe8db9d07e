#ifndef QUICK_FDB_RETRY_H_
#define QUICK_FDB_RETRY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "fdb/database.h"
#include "fdb/executor.h"
#include "fdb/future.h"
#include "fdb/transaction.h"

namespace quick::fdb {

inline constexpr int kDefaultMaxAttempts = 25;

/// Registry counter names for the retry loop. Every retry (txn reset and
/// re-executed after a retryable error) and every budget exhaustion is
/// counted, so chaos runs can tell "healthy" from "burning retry budget".
inline constexpr const char* kRetryCounterName = "fdb.txn.retries";
inline constexpr const char* kRetryExhaustedCounterName =
    "fdb.txn.retries_exhausted";

namespace internal {

/// The two retry counters, resolved once on first use (retry.cc).
Counter* RetriesCounter();
Counter* RetriesExhaustedCounter();

}  // namespace internal

/// Canonical FoundationDB retry loop: runs `body` against a fresh
/// transaction, commits, and on retryable failures (conflicts, too-old,
/// unknown-result, transient unavailability) backs off and re-executes.
/// `body` has signature Status(Transaction&). Note kCommitUnknownResult is
/// retried, so `body` must be idempotent — every QuiCK transaction is, per
/// the paper's at-least-once contract (§2).
///
/// On budget exhaustion the returned kTimedOut status carries the last
/// underlying error (code + message), so a failure under fault injection
/// is diagnosable instead of a bare "budget exhausted".
template <typename Body>
Status RunTransaction(Database* db, const TransactionOptions& topts, Body&& body,
                      int max_attempts = kDefaultMaxAttempts) {
  static Counter* const retries =
      MetricsRegistry::Default()->GetCounter(kRetryCounterName);
  Transaction txn = db->CreateTransaction(topts);
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Status st = body(txn);
    if (st.ok()) st = txn.Commit();
    if (st.ok()) return st;
    last = st;
    Status retry = txn.OnError(st);
    if (!retry.ok()) return retry;  // non-retryable: surface the error
    retries->Increment();
  }
  internal::RetriesExhaustedCounter()->Increment();
  return Status::TimedOut(
      "transaction retry budget exhausted after " +
      std::to_string(max_attempts) + " attempts; last error: " +
      last.ToString());
}

template <typename Body>
Status RunTransaction(Database* db, Body&& body,
                      int max_attempts = kDefaultMaxAttempts) {
  return RunTransaction(db, TransactionOptions{}, std::forward<Body>(body),
                        max_attempts);
}

namespace internal {

/// Heap state for one async retry chain. Owns the transaction for the
/// chain's whole lifetime (commit acks may land on the cluster's pump
/// thread after the initiating frame has returned).
struct AsyncTxnState {
  AsyncTxnState(Database* db, const TransactionOptions& topts,
                std::function<Status(Transaction&)> body_fn, Executor* exec,
                CancelToken cancel_token, int max)
      : txn(db, topts),
        body(std::move(body_fn)),
        executor(exec),
        cancel(std::move(cancel_token)),
        max_attempts(max) {}

  Transaction txn;
  std::function<Status(Transaction&)> body;
  Executor* executor;
  CancelToken cancel;
  int max_attempts;
  int attempt = 0;
  Status last_error;
  Promise<Status> promise;
};

void AsyncTxnStep(const std::shared_ptr<AsyncTxnState>& s);

/// Resolves one attempt's outcome: success completes the chain, a
/// retryable error schedules a re-arm via Executor::PostAfter — the
/// non-blocking analogue of OnError's backoff sleep; no thread parks for
/// the delay — and anything else (or budget exhaustion) surfaces.
inline void AsyncTxnResolve(const std::shared_ptr<AsyncTxnState>& s,
                            const Status& st) {
  if (st.ok()) {
    s->promise.Set(Status::OK());
    return;
  }
  if (s->cancel.Cancelled()) {
    s->promise.Set(Status::Cancelled("async transaction chain cancelled"));
    return;
  }
  s->last_error = st;
  std::optional<int64_t> delay = s->txn.PrepareRetry(st);
  if (!delay.has_value()) {
    s->promise.Set(st);  // non-retryable: surface the error
    return;
  }
  if (++s->attempt >= s->max_attempts) {
    RetriesExhaustedCounter()->Increment();
    s->promise.Set(Status::TimedOut(
        "transaction retry budget exhausted after " +
        std::to_string(s->max_attempts) + " attempts; last error: " +
        s->last_error.ToString()));
    return;
  }
  RetriesCounter()->Increment();
  s->executor->PostAfter(*delay, [s] { AsyncTxnStep(s); });
}

inline void AsyncTxnStep(const std::shared_ptr<AsyncTxnState>& s) {
  if (s->cancel.Cancelled()) {
    s->promise.Set(Status::Cancelled("async transaction chain cancelled"));
    return;
  }
  const Status body_st = s->body(s->txn);
  if (!body_st.ok()) {
    AsyncTxnResolve(s, body_st);
    return;
  }
  // CommitAsync's future may complete inline (validation error, read-only
  // no-op) or on the cluster's pump thread; either way the resolution is
  // re-posted onto the executor so retries and continuations never run on
  // — and never block — the thread that drains the commit pipeline.
  s->txn.CommitAsync().OnReady([s](const Status& st) {
    s->executor->Post([s, st] { AsyncTxnResolve(s, st); });
  });
}

}  // namespace internal

/// Asynchronous RunTransaction: the same retry contract (retryable errors
/// re-execute an idempotent `body` against a reset transaction, budget
/// exhaustion surfaces kTimedOut carrying the last error) but no thread is
/// owned while a commit is in flight and no thread sleeps during backoff —
/// the chain re-arms itself with Executor::PostAfter. `body` runs on
/// `executor` threads and must capture state that outlives the chain.
/// Cancelling `cancel` stops the chain at the next step boundary with
/// kCancelled (the future always completes — callers draining an in-flight
/// window can count on it).
inline Future<Status> RunTransactionAsync(
    Database* db, const TransactionOptions& topts,
    std::function<Status(Transaction&)> body, Executor* executor,
    CancelToken cancel = {}, int max_attempts = kDefaultMaxAttempts) {
  auto s = std::make_shared<internal::AsyncTxnState>(
      db, topts, std::move(body), executor, std::move(cancel), max_attempts);
  Future<Status> future = s->promise.GetFuture();
  executor->Post([s] { internal::AsyncTxnStep(s); });
  return future;
}

inline Future<Status> RunTransactionAsync(
    Database* db, std::function<Status(Transaction&)> body, Executor* executor,
    CancelToken cancel = {}, int max_attempts = kDefaultMaxAttempts) {
  return RunTransactionAsync(db, TransactionOptions{}, std::move(body),
                             executor, std::move(cancel), max_attempts);
}

/// Runs `body` and returns a value produced inside the transaction.
/// `body` has signature Status(Transaction&, T*).
template <typename T, typename Body>
Result<T> RunTransactionResult(Database* db, const TransactionOptions& topts,
                               Body&& body,
                               int max_attempts = kDefaultMaxAttempts) {
  T out{};
  Status st = RunTransaction(
      db, topts, [&](Transaction& txn) { return body(txn, &out); },
      max_attempts);
  if (!st.ok()) return st;
  return out;
}

}  // namespace quick::fdb

#endif  // QUICK_FDB_RETRY_H_
