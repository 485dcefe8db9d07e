#include "reclayer/query_planner.h"

#include <algorithm>
#include <sstream>

namespace quick::rl {

std::string QueryPlan::Explain() const {
  std::ostringstream os;
  if (kind == Kind::kFullScan) {
    os << "FullScan";
  } else {
    os << "IndexScan(" << index_name << ") bounds=["
       << (begin.has_value() ? begin->ToString() : "-inf")
       << (begin_inclusive ? "" : " excl") << ", "
       << (end.has_value() ? end->ToString() : "+inf")
       << (end_inclusive ? " incl" : "") << "]";
  }
  os << " residual=" << residual.size();
  return os.str();
}

Result<QueryPlan> QueryPlanner::Plan(const PlannedQuery& query) const {
  const RecordTypeDef* type = metadata_->FindRecordType(query.record_type);
  if (type == nullptr) {
    return Status::InvalidArgument("unknown record type " + query.record_type);
  }
  for (const FieldPredicate& p : query.predicates) {
    if (type->FindField(p.field) == nullptr) {
      return Status::InvalidArgument("unknown field " + p.field + " on " +
                                     query.record_type);
    }
  }

  QueryPlan best;  // defaults to full scan; every predicate residual
  best.residual = query.predicates;

  for (const IndexDef& index : metadata_->indexes()) {
    if (index.kind != IndexKind::kValue) continue;
    if (!index.Covers(query.record_type)) continue;

    // Greedily absorb predicates along the index's field order: equality
    // predicates extend the bound prefix; the first range predicate on the
    // next field closes it.
    tup::Tuple eq_prefix;
    std::vector<bool> used(query.predicates.size(), false);
    int bound = 0;
    const FieldPredicate* range_pred = nullptr;

    for (const std::string& field : index.fields) {
      // Prefer an equality on this field.
      int eq_at = -1;
      int range_at = -1;
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        if (used[i] || query.predicates[i].field != field) continue;
        if (query.predicates[i].op == FieldPredicate::Op::kEquals) {
          eq_at = static_cast<int>(i);
          break;
        }
        if (range_at < 0) range_at = static_cast<int>(i);
      }
      if (eq_at >= 0) {
        used[eq_at] = true;
        eq_prefix.Add(query.predicates[eq_at].value);
        ++bound;
        continue;
      }
      if (range_at >= 0) {
        used[range_at] = true;
        range_pred = &query.predicates[range_at];
        ++bound;
      }
      break;  // prefix broken (or closed by a range)
    }

    if (bound <= best.bound_predicates &&
        !(best.kind == QueryPlan::Kind::kFullScan && bound > 0)) {
      continue;
    }

    QueryPlan plan;
    plan.kind = QueryPlan::Kind::kIndexScan;
    plan.index_name = index.name;
    plan.bound_predicates = bound;
    if (range_pred == nullptr) {
      if (!eq_prefix.empty()) {
        plan.begin = eq_prefix;
        plan.end = eq_prefix;
        plan.end_inclusive = true;  // prefix range: every extension matches
      }
    } else {
      tup::Tuple lower = eq_prefix;
      tup::Tuple upper = eq_prefix;
      switch (range_pred->op) {
        case FieldPredicate::Op::kLess:
          plan.begin = eq_prefix.empty() ? std::nullopt
                                         : std::optional<tup::Tuple>(eq_prefix);
          upper.Add(range_pred->value);
          plan.end = upper;
          plan.end_inclusive = false;
          break;
        case FieldPredicate::Op::kLessOrEqual:
          plan.begin = eq_prefix.empty() ? std::nullopt
                                         : std::optional<tup::Tuple>(eq_prefix);
          upper.Add(range_pred->value);
          plan.end = upper;
          plan.end_inclusive = true;
          break;
        case FieldPredicate::Op::kGreater:
          lower.Add(range_pred->value);
          plan.begin = lower;
          plan.begin_inclusive = false;
          if (!eq_prefix.empty()) {
            plan.end = eq_prefix;
            plan.end_inclusive = true;
          }
          break;
        case FieldPredicate::Op::kGreaterOrEqual:
          lower.Add(range_pred->value);
          plan.begin = lower;
          plan.begin_inclusive = true;
          if (!eq_prefix.empty()) {
            plan.end = eq_prefix;
            plan.end_inclusive = true;
          }
          break;
        case FieldPredicate::Op::kEquals:
          break;  // unreachable
      }
    }
    for (size_t i = 0; i < query.predicates.size(); ++i) {
      if (!used[i]) plan.residual.push_back(query.predicates[i]);
    }
    best = std::move(plan);
  }
  return best;
}

bool EvaluatePredicate(const Record& record, const FieldPredicate& predicate) {
  const std::strong_ordering cmp = tup::CompareElements(
      record.ElementOrNull(predicate.field), predicate.value);
  switch (predicate.op) {
    case FieldPredicate::Op::kEquals:
      return cmp == std::strong_ordering::equal;
    case FieldPredicate::Op::kLess:
      return cmp == std::strong_ordering::less;
    case FieldPredicate::Op::kLessOrEqual:
      return cmp != std::strong_ordering::greater;
    case FieldPredicate::Op::kGreater:
      return cmp == std::strong_ordering::greater;
    case FieldPredicate::Op::kGreaterOrEqual:
      return cmp != std::strong_ordering::less;
  }
  return false;
}

Result<std::vector<Record>> ExecutePlanned(RecordStore* store,
                                           const QueryPlanner& planner,
                                           const PlannedQuery& query) {
  QUICK_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(query));
  std::vector<Record> candidates;
  if (plan.kind == QueryPlan::Kind::kFullScan) {
    QUICK_ASSIGN_OR_RETURN(candidates, store->ScanRecords());
  } else {
    IndexBounds bounds;
    bounds.begin = plan.begin;
    bounds.begin_inclusive = plan.begin_inclusive;
    bounds.end = plan.end;
    bounds.end_inclusive = plan.end_inclusive;
    QUICK_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                           store->ScanIndexBounds(plan.index_name, bounds));
    for (const IndexEntry& entry : entries) {
      QUICK_ASSIGN_OR_RETURN(
          std::optional<Record> rec,
          store->LoadByFullPrimaryKey(entry.primary_key.Encode()));
      if (!rec.has_value()) {
        return Status::Internal("index entry without record");
      }
      candidates.push_back(*std::move(rec));
    }
  }

  std::vector<Record> out;
  for (Record& rec : candidates) {
    if (rec.type() != query.record_type) continue;
    bool keep = true;
    for (const FieldPredicate& p : plan.residual) {
      if (!EvaluatePredicate(rec, p)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    out.push_back(std::move(rec));
    if (query.limit > 0 && static_cast<int>(out.size()) >= query.limit) break;
  }
  return out;
}

}  // namespace quick::rl
