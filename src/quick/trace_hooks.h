#ifndef QUICK_QUICK_TRACE_HOOKS_H_
#define QUICK_QUICK_TRACE_HOOKS_H_

#include <string>
#include <utility>

#include "common/clock.h"
#include "common/trace.h"

namespace quick::core {

/// Span taxonomy of the QuiCK item lifecycle. A work item's chain is keyed
/// by its item id; a pointer's chain by its pointer key (which doubles as
/// its top-level item id). A well-formed work-item incarnation reads
///   birth stage -> (top_leased | dequeued) -> execute* -> terminal stage
/// with any number of non-terminal requeued/fenced/finish_failed spans in
/// between.
namespace stage {
/// Birth stages — each one opens a new incarnation of the chain.
inline constexpr const char* kEnqueued = "enqueued";
inline constexpr const char* kDeadLetterRequeued = "deadletter_requeued";
/// Pointer chain birth: the enqueue protocol created the Q_C pointer.
inline constexpr const char* kPointerCreated = "pointer_created";
/// Top-level lease obtained (pointer or local item).
inline constexpr const char* kTopLeased = "top_leased";
/// Failed lease attempt; detail distinguishes "read" vs "commit" (Fig. 7).
inline constexpr const char* kLeaseCollision = "lease_collision";
/// Work item batch-dequeued from its queue zone (parent: pointer trace).
inline constexpr const char* kDequeued = "dequeued";
/// One handler attempt (detail carries attempt index and outcome).
inline constexpr const char* kExecute = "execute";
/// Non-terminal transition: the item re-vests and will be retried.
inline constexpr const char* kRequeued = "requeued";
/// A finish transaction failed to commit (detail: the step and the
/// status). Not terminal: the lease runs out and the item runs again.
inline constexpr const char* kFinishFailed = "finish_failed";
/// Admission-control denials. Pre-birth on the enqueue path (the item was
/// never stored, so no incarnation opens); on the dispatch path the item
/// requeues, so neither is terminal.
inline constexpr const char* kAdmissionThrottled = "admission_throttled";
inline constexpr const char* kAdmissionShed = "admission_shed";
/// Terminal transitions — exactly one per incarnation commits.
inline constexpr const char* kCompleted = "completed";
inline constexpr const char* kQuarantined = "quarantined";
inline constexpr const char* kDropped = "dropped";
/// A transition this consumer attempted was fenced off: its lease had been
/// superseded or the item was already gone. Not terminal by itself — the
/// retaking consumer records the true terminal — but a chain may legally
/// end on a fence when the fenced consumer's own commit actually landed
/// under an unknown-result fault (the "fenced-then-retaken" resolution).
inline constexpr const char* kFenced = "fenced";
/// Workflow lifecycle stages. These live on the *workflow's* trace id (the
/// saga instance id), parented to the step item's chain — so a whole saga
/// renders as one chain across many queue items without adding spans to the
/// per-item taxonomy above.
inline constexpr const char* kWorkflowStarted = "wf_started";
inline constexpr const char* kWorkflowStepStart = "wf_step_start";
inline constexpr const char* kWorkflowStepFinish = "wf_step_finish";
inline constexpr const char* kWorkflowCompensate = "wf_compensate";
inline constexpr const char* kWorkflowDone = "wf_done";
/// Outbox relay applied (or deduped) one external effect.
inline constexpr const char* kOutboxRelay = "outbox_relay";
}  // namespace stage

/// True for the stages that remove an item from its queue for good.
inline bool IsTerminalStage(const std::string& name) {
  return name == stage::kCompleted || name == stage::kQuarantined ||
         name == stage::kDropped;
}

/// True for the stages that open a new incarnation of an item's chain
/// (first enqueue, or an operator requeue out of the quarantine).
inline bool IsBirthStage(const std::string& name) {
  return name == stage::kEnqueued || name == stage::kDeadLetterRequeued;
}

/// Thin span-recording facade bound to one actor. Every producer/consumer
/// call site goes through these helpers so disabled tracing costs one
/// relaxed atomic load and no string work.
class TraceHooks {
 public:
  TraceHooks(Tracer* tracer, Clock* clock, std::string actor)
      : tracer_(tracer), clock_(clock), actor_(std::move(actor)) {}

  bool enabled() const { return tracer_ != nullptr && tracer_->enabled(); }

  int64_t NowMicros() const { return clock_->NowMicros(); }

  /// Records a span covering [start_micros, end_micros].
  void Record(const std::string& trace_id, const char* name,
              int64_t start_micros, int64_t end_micros,
              std::string detail = std::string(),
              std::string parent = std::string()) const {
    if (!enabled()) return;
    Span span;
    span.trace_id = trace_id;
    span.name = name;
    span.actor = actor_;
    span.detail = std::move(detail);
    span.parent_trace = std::move(parent);
    span.start_micros = start_micros;
    span.end_micros = end_micros;
    tracer_->Record(std::move(span));
  }

  /// Records an instantaneous span stamped with the current time.
  void Mark(const std::string& trace_id, const char* name,
            std::string detail = std::string(),
            std::string parent = std::string()) const {
    if (!enabled()) return;
    const int64_t now = clock_->NowMicros();
    Record(trace_id, name, now, now, std::move(detail), std::move(parent));
  }

  Tracer* tracer() const { return tracer_; }

 private:
  Tracer* tracer_;
  Clock* clock_;
  std::string actor_;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_TRACE_HOOKS_H_
