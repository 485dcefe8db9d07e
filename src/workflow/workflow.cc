#include "workflow/workflow.h"

#include "common/random.h"
#include "fdb/retry.h"
#include "fdb/transaction.h"
#include "tuple/tuple.h"

namespace quick::wf {

namespace {

using core::stage::kWorkflowCompensate;
using core::stage::kWorkflowDone;
using core::stage::kWorkflowStarted;
using core::stage::kWorkflowStepFinish;
using core::stage::kWorkflowStepStart;

/// A finish transaction's hook that read-modify-writes the record of
/// workflow `workflow_id` in the same transaction; `mutate` edits the
/// decoded record.
std::function<Status(fdb::Transaction&)> UpdateRecord(
    const core::WorkContext& ctx, const std::string& workflow_id,
    std::function<void(ck::WorkflowRecord&)> mutate) {
  return [key = ck::WorkflowRecord::Key(ctx.db_id, workflow_id),
          clock = ctx.clock,
          mutate = std::move(mutate)](fdb::Transaction& txn) -> Status {
    QUICK_ASSIGN_OR_RETURN(std::optional<std::string> raw, txn.Get(key));
    if (!raw.has_value()) {
      return Status::Internal("workflow record missing at " + key);
    }
    std::optional<ck::WorkflowRecord> r = ck::WorkflowRecord::Decode(*raw);
    if (!r.has_value()) {
      return Status::Internal("corrupt workflow record at " + key);
    }
    mutate(*r);
    r->updated_millis = clock->NowMillis();
    txn.Set(key, r->Encode());
    return Status::OK();
  };
}

}  // namespace

WorkflowEngine::WorkflowEngine(core::Quick* quick,
                               core::JobRegistry* registry)
    : quick_(quick),
      registry_(registry),
      hooks_(quick->tracer(), quick->clock(), "workflow") {}

std::string WorkflowEngine::ForwardItemId(const std::string& workflow_id,
                                          int step) {
  return workflow_id + ".f" + std::to_string(step);
}

std::string WorkflowEngine::CompensateItemId(const std::string& workflow_id,
                                             int step) {
  return workflow_id + ".c" + std::to_string(step);
}

std::string WorkflowEngine::JobTypeFor(const std::string& saga) {
  return "_wf." + saga;
}

core::DelayedItem WorkflowEngine::StepItem(
    const std::string& workflow_id, const std::string& saga, bool compensating,
    int step, const std::string& payload) {
  core::DelayedItem item;
  item.job_type = JobTypeFor(saga);
  item.id = compensating ? CompensateItemId(workflow_id, step)
                         : ForwardItemId(workflow_id, step);
  item.payload = tup::Tuple()
                     .AddString(workflow_id)
                     .AddString(saga)
                     .AddInt(compensating ? 1 : 0)
                     .AddInt(step)
                     .AddString(payload)
                     .Encode();
  return item;
}

std::optional<WorkflowEngine::DecodedPayload> WorkflowEngine::DecodePayload(
    std::string_view raw) {
  Result<tup::Tuple> t = tup::Tuple::Decode(raw);
  if (!t.ok() || t->size() != 5) return std::nullopt;
  auto wf = t->GetString(0);
  auto saga = t->GetString(1);
  auto comp = t->GetInt(2);
  auto step = t->GetInt(3);
  auto payload = t->GetString(4);
  if (!wf.ok() || !saga.ok() || !comp.ok() || !step.ok() || !payload.ok()) {
    return std::nullopt;
  }
  DecodedPayload p;
  p.workflow_id = *std::move(wf);
  p.saga = *std::move(saga);
  p.compensating = *comp != 0;
  p.step = *step;
  p.payload = *std::move(payload);
  return p;
}

int WorkflowEngine::PreviousCompensable(const SagaSpec& spec, int below) {
  for (int j = below - 1; j >= 0; --j) {
    if (spec.steps[j].compensate != nullptr) return j;
  }
  return -1;
}

Status WorkflowEngine::RegisterSaga(SagaSpec saga) {
  if (saga.name.empty()) {
    return Status::InvalidArgument("saga needs a name");
  }
  if (saga.steps.empty()) {
    return Status::InvalidArgument("saga " + saga.name + " has no steps");
  }
  for (const StepSpec& s : saga.steps) {
    if (s.run == nullptr) {
      return Status::InvalidArgument("saga " + saga.name +
                                     " has a step without a run function");
    }
  }
  auto spec = std::make_shared<const SagaSpec>(std::move(saga));
  {
    std::lock_guard<std::mutex> lock(mu_);
    sagas_[spec->name] = spec;
  }
  registry_->RegisterWork(
      JobTypeFor(spec->name),
      [this, spec](core::WorkContext& ctx) -> core::WorkResult {
        std::optional<DecodedPayload> p = DecodePayload(ctx.item.payload);
        if (!p.has_value() || p->step < 0 ||
            p->step >= static_cast<int64_t>(spec->steps.size())) {
          return core::WorkResult(
              Status::Permanent("corrupt workflow payload on item " +
                                ctx.item.id));
        }
        return p->compensating ? RunCompensate(spec, ctx, *p)
                               : RunForward(spec, ctx, *p);
      },
      spec->policy,
      [this, spec](core::WorkContext& ctx,
                   const Status& final_status) -> core::WorkResult {
        std::optional<DecodedPayload> p = DecodePayload(ctx.item.payload);
        if (!p.has_value() || p->step < 0 ||
            p->step >= static_cast<int64_t>(spec->steps.size())) {
          // Undecodable item headed for the quarantine: nothing to chain.
          return core::WorkResult(Status::OK());
        }
        return p->compensating
                   ? OnCompensateTerminal(spec, ctx, *p, final_status)
                   : OnForwardTerminal(spec, ctx, *p, final_status);
      });
  return Status::OK();
}

core::WorkResult WorkflowEngine::RunForward(
    const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
    const DecodedPayload& p) {
  const int step = static_cast<int>(p.step);
  const int total = static_cast<int>(spec->steps.size());
  const StepSpec& step_spec = spec->steps[step];
  hooks_.Mark(p.workflow_id, kWorkflowStepStart,
              "step=" + std::to_string(step) + " name=" + step_spec.name,
              /*parent=*/ctx.item.id);
  StepContext sctx;
  sctx.payload = p.payload;
  sctx.next_payload = p.payload;
  const int64_t start = hooks_.NowMicros();
  Status st = step_spec.run(ctx, sctx);
  hooks_.Record(p.workflow_id, kWorkflowStepFinish, start, hooks_.NowMicros(),
                "step=" + std::to_string(step) + " status=" +
                    std::string(StatusCodeName(st.code())),
                /*parent=*/ctx.item.id);
  if (!st.ok()) return core::WorkResult(st);

  const bool last = step + 1 == total;
  core::WorkResult wr{Status::OK()};
  wr.effects = std::move(sctx.effects);
  if (!last) {
    wr.continuations.push_back(StepItem(p.workflow_id, spec->name,
                                        /*compensating=*/false, step + 1,
                                        sctx.next_payload));
  } else {
    hooks_.Mark(p.workflow_id, kWorkflowDone,
                "completed steps=" + std::to_string(total),
                /*parent=*/ctx.item.id);
  }
  wr.txn_hook = UpdateRecord(ctx, p.workflow_id, [step, last](auto& r) {
    if (step < static_cast<int>(r.step_status.size())) {
      r.step_status[step] = 'X';
    }
    r.current_step = step + 1;
    if (last) r.state = ck::WorkflowRecord::State::kCompleted;
  });
  return wr;
}

core::WorkResult WorkflowEngine::RunCompensate(
    const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
    const DecodedPayload& p) {
  const int step = static_cast<int>(p.step);
  const StepSpec& step_spec = spec->steps[step];
  Status st = Status::OK();
  if (step_spec.compensate != nullptr) {
    StepContext sctx;
    sctx.payload = p.payload;
    sctx.next_payload = p.payload;
    const int64_t start = hooks_.NowMicros();
    st = step_spec.compensate(ctx, sctx);
    hooks_.Record(p.workflow_id, kWorkflowCompensate, start,
                  hooks_.NowMicros(),
                  "step=" + std::to_string(step) + " name=" + step_spec.name +
                      " status=" + std::string(StatusCodeName(st.code())),
                  /*parent=*/ctx.item.id);
    if (!st.ok()) return core::WorkResult(st);
    core::WorkResult wr{Status::OK()};
    wr.effects = std::move(sctx.effects);
    return FinishCompensation(spec, ctx, p, std::move(wr));
  }
  return FinishCompensation(spec, ctx, p, core::WorkResult{Status::OK()});
}

core::WorkResult WorkflowEngine::FinishCompensation(
    const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
    const DecodedPayload& p, core::WorkResult wr) {
  const int step = static_cast<int>(p.step);
  const int next = PreviousCompensable(*spec, step);
  if (next >= 0) {
    wr.continuations.push_back(StepItem(p.workflow_id, spec->name,
                                        /*compensating=*/true, next,
                                        p.payload));
  } else {
    hooks_.Mark(p.workflow_id, kWorkflowDone, "compensated",
                /*parent=*/ctx.item.id);
  }
  wr.txn_hook = UpdateRecord(ctx, p.workflow_id, [step, next](auto& r) {
    if (step < static_cast<int>(r.step_status.size())) {
      r.step_status[step] = 'C';
    }
    if (next >= 0) {
      r.current_step = next;
    } else {
      r.state = ck::WorkflowRecord::State::kCompensated;
    }
  });
  return wr;
}

core::WorkResult WorkflowEngine::OnForwardTerminal(
    const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
    const DecodedPayload& p, const Status& final_status) {
  const int step = static_cast<int>(p.step);
  const int j = PreviousCompensable(*spec, step);
  hooks_.Mark(p.workflow_id, kWorkflowCompensate,
              "step=" + std::to_string(step) + " dead-lettered, rollback" +
                  (j >= 0 ? " from step " + std::to_string(j) : " empty"),
              /*parent=*/ctx.item.id);
  core::WorkResult wr{Status::OK()};
  if (j >= 0) {
    wr.continuations.push_back(StepItem(p.workflow_id, spec->name,
                                        /*compensating=*/true, j, p.payload));
  } else {
    hooks_.Mark(p.workflow_id, kWorkflowDone, "compensated (empty rollback)",
                /*parent=*/ctx.item.id);
  }
  wr.txn_hook = UpdateRecord(
      ctx, p.workflow_id, [step, j, msg = final_status.message()](auto& r) {
        if (step < static_cast<int>(r.step_status.size())) {
          r.step_status[step] = 'D';
        }
        r.failure = msg;
        if (j >= 0) {
          r.state = ck::WorkflowRecord::State::kCompensating;
          r.current_step = j;
        } else {
          r.state = ck::WorkflowRecord::State::kCompensated;
        }
      });
  return wr;
}

core::WorkResult WorkflowEngine::OnCompensateTerminal(
    const std::shared_ptr<const SagaSpec>& spec, core::WorkContext& ctx,
    const DecodedPayload& p, const Status& final_status) {
  (void)spec;
  const int step = static_cast<int>(p.step);
  hooks_.Mark(p.workflow_id, kWorkflowDone,
              "failed: compensation step=" + std::to_string(step) +
                  " dead-lettered",
              /*parent=*/ctx.item.id);
  core::WorkResult wr{Status::OK()};
  wr.txn_hook = UpdateRecord(
      ctx, p.workflow_id, [msg = final_status.message()](auto& r) {
        r.state = ck::WorkflowRecord::State::kFailed;
        r.failure = msg;
      });
  return wr;
}

fdb::Future<Status> WorkflowEngine::Launch(const ck::DatabaseId& db_id,
                                           const std::string& saga,
                                           const std::string& payload,
                                           const std::string& workflow_id,
                                           fdb::Executor* exec,
                                           fdb::CancelToken cancel) {
  std::shared_ptr<const SagaSpec> spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sagas_.find(saga);
    if (it != sagas_.end()) spec = it->second;
  }
  if (spec == nullptr) {
    fdb::Promise<Status> unknown;
    unknown.Set(Status::InvalidArgument("unknown saga " + saga));
    return unknown.GetFuture();
  }
  ck::WorkflowRecord r;
  r.id = workflow_id;
  r.saga = spec->name;
  r.state = ck::WorkflowRecord::State::kRunning;
  r.current_step = 0;
  r.total_steps = static_cast<int64_t>(spec->steps.size());
  r.step_status = std::string(spec->steps.size(), 'P');
  r.created_millis = r.updated_millis = quick_->clock()->NowMillis();
  const std::string key = ck::WorkflowRecord::Key(db_id, workflow_id);
  const std::string record = r.Encode();
  const core::DelayedItem step0 =
      StepItem(workflow_id, spec->name, /*compensating=*/false, 0, payload);
  core::ProduceRequest request;
  request.db_id = db_id;
  request.items.push_back(step0);
  request.body = [key, record, workflow_id](fdb::Transaction& txn,
                                            const ck::DatabaseRef&,
                                            std::vector<core::WorkItem>*) {
    QUICK_ASSIGN_OR_RETURN(std::optional<std::string> existing, txn.Get(key));
    if (existing.has_value()) {
      return Status::AlreadyExists("workflow " + workflow_id + " exists");
    }
    txn.Set(key, record);
    return Status::OK();
  };
  return quick_->Produce(std::move(request), exec, std::move(cancel))
      .Then([this, spec, db_id, workflow_id](const auto& ids) {
        if (ids.ok() && hooks_.enabled()) {
          hooks_.Mark(workflow_id, kWorkflowStarted,
                      "saga=" + spec->name +
                          " steps=" + std::to_string(spec->steps.size()) +
                          " db=" + db_id.ToString(),
                      /*parent=*/ForwardItemId(workflow_id, 0));
        }
        return ids.status();
      });
}

Result<std::string> WorkflowEngine::Start(const ck::DatabaseId& db_id,
                                          const std::string& saga,
                                          const std::string& payload,
                                          std::string workflow_id) {
  if (workflow_id.empty()) {
    workflow_id = Random::ThreadLocal().NextUuid();
  }
  QUICK_RETURN_IF_ERROR(
      Launch(db_id, saga, payload, workflow_id, nullptr, {}).Get());
  return workflow_id;
}

fdb::Future<Status> WorkflowEngine::StartAsync(const ck::DatabaseId& db_id,
                                               const std::string& saga,
                                               const std::string& payload,
                                               std::string* workflow_id_out,
                                               fdb::Executor* exec,
                                               fdb::CancelToken cancel) {
  const std::string workflow_id = Random::ThreadLocal().NextUuid();
  if (workflow_id_out != nullptr) *workflow_id_out = workflow_id;
  return Launch(db_id, saga, payload, workflow_id, exec, std::move(cancel));
}

Result<std::optional<ck::WorkflowRecord>> WorkflowEngine::Load(
    const ck::DatabaseId& db_id, const std::string& workflow_id) {
  const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(db_id);
  const std::string key = ck::WorkflowRecord::Key(db_id, workflow_id);
  return fdb::RunTransactionResult<std::optional<ck::WorkflowRecord>>(
      db.cluster, fdb::TransactionOptions{},
      [&](fdb::Transaction& txn, std::optional<ck::WorkflowRecord>* out) {
        out->reset();
        QUICK_ASSIGN_OR_RETURN(std::optional<std::string> raw, txn.Get(key));
        if (!raw.has_value()) return Status::OK();
        std::optional<ck::WorkflowRecord> r =
            ck::WorkflowRecord::Decode(*raw);
        if (!r.has_value()) {
          return Status::Internal("corrupt workflow record at " + key);
        }
        *out = *std::move(r);
        return Status::OK();
      });
}

}  // namespace quick::wf
