#ifndef QUICK_WORKFLOW_WORKFLOW_H_
#define QUICK_WORKFLOW_WORKFLOW_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cloudkit/workflow_record.h"
#include "fdb/executor.h"
#include "fdb/future.h"
#include "quick/job_registry.h"
#include "quick/quick.h"
#include "quick/trace_hooks.h"

namespace quick::wf {

/// Per-step scratch handed to a step function alongside the queue-level
/// WorkContext.
struct StepContext {
  /// The payload this step executes with (the saga's start payload for step
  /// 0, the previous step's next_payload afterwards; compensations get the
  /// payload their forward chain was carrying when it failed).
  std::string payload;
  /// Carried to the next forward step; initialized to `payload`.
  std::string next_payload;
  /// External side-effects this step intends. Recorded as transactional-
  /// outbox rows in the step's finish transaction and applied exactly once
  /// per idempotency key by the OutboxRelay.
  std::vector<core::OutboxEffect> effects;
};

using StepFn = std::function<Status(core::WorkContext&, StepContext&)>;

struct StepSpec {
  std::string name;
  StepFn run;
  /// Optional undo. On saga rollback, compensations of the executed steps
  /// run in reverse step order; steps without one keep their 'X' status.
  StepFn compensate;
};

struct SagaSpec {
  std::string name;
  std::vector<StepSpec> steps;
  /// Retry policy applied to every step (and compensation) item.
  core::RetryPolicy policy;
};

/// The saga/workflow engine: each registered saga becomes one job type
/// ("_wf.<name>"), each step one queue item. The engine's handlers return
/// WorkResults whose continuations, outbox rows, and record updates commit
/// in the SAME FoundationDB transaction as the step item's Complete or
/// Quarantine — Gray's queued-transaction pattern, so every workflow state
/// transition is exactly-once even though step handlers run at-least-once.
///
/// Crash story: a consumer dying mid-step abandons the item's lease; another
/// consumer re-executes the step (handlers must tolerate re-execution; their
/// external effects are deduped by the outbox) and the finish commits once.
/// Deterministic step-item ids ("<wf_id>.f<i>" forward, "<wf_id>.c<j>"
/// compensation) make the enqueues idempotent, so a re-executed finish can
/// never fork the chain.
///
/// Lifecycle: the engine borrows Quick and the registry; after a substrate
/// restart (e.g. workload::Harness::Restart) construct a fresh engine over
/// the new Quick and re-register the sagas — registration overwrites the
/// stale closures in the surviving registry.
class WorkflowEngine {
 public:
  WorkflowEngine(core::Quick* quick, core::JobRegistry* registry);

  /// Registers `saga`'s job type. InvalidArgument on an unnamed saga, a
  /// saga with no steps, or a step without a run function.
  Status RegisterSaga(SagaSpec saga);

  /// Starts one workflow instance: writes the kRunning WorkflowRecord and
  /// enqueues step 0 as one Quick::Produce request (admitted, retrying a
  /// migration fence; neither exists on failure). `workflow_id` is the
  /// idempotency handle; random when empty. AlreadyExists when a record
  /// with that id exists.
  Result<std::string> Start(const ck::DatabaseId& db_id,
                            const std::string& saga,
                            const std::string& payload,
                            std::string workflow_id = "");

  /// Start's pipelined twin for continuation fan-out: the same request on
  /// `exec`'s async commit pipeline. The workflow id is written to
  /// *workflow_id_out up front (meaningful once the future resolves OK).
  fdb::Future<Status> StartAsync(const ck::DatabaseId& db_id,
                                 const std::string& saga,
                                 const std::string& payload,
                                 std::string* workflow_id_out,
                                 fdb::Executor* exec,
                                 fdb::CancelToken cancel = {});

  /// Strong read of a workflow's record; nullopt when unknown.
  Result<std::optional<ck::WorkflowRecord>> Load(
      const ck::DatabaseId& db_id, const std::string& workflow_id);

  /// Deterministic item ids, exposed for tests and trace tooling.
  static std::string ForwardItemId(const std::string& workflow_id, int step);
  static std::string CompensateItemId(const std::string& workflow_id,
                                      int step);
  static std::string JobTypeFor(const std::string& saga);

 private:
  struct DecodedPayload {
    std::string workflow_id;
    std::string saga;
    bool compensating = false;
    int64_t step = 0;
    std::string payload;
  };
  /// The queue item that runs `step` of a workflow (its compensation when
  /// `compensating`), carrying `payload`.
  static core::DelayedItem StepItem(const std::string& workflow_id,
                                    const std::string& saga,
                                    bool compensating, int step,
                                    const std::string& payload);
  static std::optional<DecodedPayload> DecodePayload(std::string_view raw);

  core::WorkResult RunForward(const std::shared_ptr<const SagaSpec>& spec,
                              core::WorkContext& ctx,
                              const DecodedPayload& p);
  core::WorkResult RunCompensate(const std::shared_ptr<const SagaSpec>& spec,
                                 core::WorkContext& ctx,
                                 const DecodedPayload& p);
  /// Shared tail of a successful (or no-op) compensation step: chain the
  /// next compensation downward or close the record as kCompensated.
  core::WorkResult FinishCompensation(
      const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
      const DecodedPayload& p, core::WorkResult wr);
  core::WorkResult OnForwardTerminal(
      const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
      const DecodedPayload& p, const Status& final_status);
  core::WorkResult OnCompensateTerminal(
      const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
      const DecodedPayload& p, const Status& final_status);

  /// Highest step index < `below` with a compensate function, or -1.
  static int PreviousCompensable(const SagaSpec& spec, int below);

  /// Start and StartAsync's one body (synchronous when `exec` is null):
  /// the start request, then the kWorkflowStarted span.
  fdb::Future<Status> Launch(const ck::DatabaseId& db_id,
                             const std::string& saga,
                             const std::string& payload,
                             const std::string& workflow_id,
                             fdb::Executor* exec, fdb::CancelToken cancel);

  core::Quick* quick_;
  core::JobRegistry* registry_;
  core::TraceHooks hooks_;

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<const SagaSpec>> sagas_;
};

}  // namespace quick::wf

#endif  // QUICK_WORKFLOW_WORKFLOW_H_
