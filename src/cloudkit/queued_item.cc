#include "cloudkit/queued_item.h"

namespace quick::ck {

// Fields are set in name order, the order a record keeps them in, so each
// one appends.

rl::Record QueuedItem::ToRecord() const {
  rl::Record rec(kRecordType);
  rec.Reserve(10)
      .SetString("db_key", db_key)
      .SetInt("enqueue_time", enqueue_time)
      .SetInt("error_count", error_count)
      .SetString("id", id)
      .SetString("job_type", job_type)
      .SetInt("last_active_time", last_active_time)
      .SetString("lease_id", lease_id)
      .SetBytes("payload", payload)
      .SetInt("priority", priority)
      .SetInt("vesting_time", vesting_time);
  return rec;
}

Result<QueuedItem> QueuedItem::FromRecord(rl::Record record) {
  if (record.type() != kRecordType) {
    return Status::InvalidArgument("record is not a QueuedItem");
  }
  QueuedItem item;
  QUICK_ASSIGN_OR_RETURN(item.id, record.TakeString("id"));
  QUICK_ASSIGN_OR_RETURN(item.job_type, record.TakeString("job_type"));
  QUICK_ASSIGN_OR_RETURN(item.priority, record.GetInt("priority"));
  QUICK_ASSIGN_OR_RETURN(item.vesting_time, record.GetInt("vesting_time"));
  QUICK_ASSIGN_OR_RETURN(item.lease_id, record.TakeString("lease_id"));
  QUICK_ASSIGN_OR_RETURN(item.error_count, record.GetInt("error_count"));
  QUICK_ASSIGN_OR_RETURN(item.payload, record.TakeBytes("payload"));
  QUICK_ASSIGN_OR_RETURN(item.enqueue_time, record.GetInt("enqueue_time"));
  QUICK_ASSIGN_OR_RETURN(item.db_key, record.TakeString("db_key"));
  QUICK_ASSIGN_OR_RETURN(item.last_active_time,
                         record.GetInt("last_active_time"));
  return item;
}

rl::Record DeadLetterItem::ToRecord() const {
  rl::Record rec(kRecordType);
  rec.Reserve(10)
      .SetInt("attempts", attempts)
      .SetString("db_key", db_key)
      .SetInt("enqueue_time", enqueue_time)
      .SetString("final_error", final_error)
      .SetString("id", id)
      .SetString("job_type", job_type)
      .SetBytes("payload", payload)
      .SetInt("priority", priority)
      .SetInt("quarantine_time", quarantine_time)
      .SetString("reason", reason);
  return rec;
}

Result<DeadLetterItem> DeadLetterItem::FromRecord(rl::Record record) {
  if (record.type() != kRecordType) {
    return Status::InvalidArgument("record is not a DeadLetterItem");
  }
  DeadLetterItem item;
  QUICK_ASSIGN_OR_RETURN(item.id, record.TakeString("id"));
  QUICK_ASSIGN_OR_RETURN(item.job_type, record.TakeString("job_type"));
  QUICK_ASSIGN_OR_RETURN(item.priority, record.GetInt("priority"));
  QUICK_ASSIGN_OR_RETURN(item.payload, record.TakeBytes("payload"));
  QUICK_ASSIGN_OR_RETURN(item.enqueue_time, record.GetInt("enqueue_time"));
  QUICK_ASSIGN_OR_RETURN(item.db_key, record.TakeString("db_key"));
  QUICK_ASSIGN_OR_RETURN(item.attempts, record.GetInt("attempts"));
  QUICK_ASSIGN_OR_RETURN(item.reason, record.TakeString("reason"));
  QUICK_ASSIGN_OR_RETURN(item.final_error, record.TakeString("final_error"));
  QUICK_ASSIGN_OR_RETURN(item.quarantine_time,
                         record.GetInt("quarantine_time"));
  return item;
}

}  // namespace quick::ck
