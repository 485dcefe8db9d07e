#include "quick/pointer.h"

#include "cloudkit/queue_zone.h"
#include "tuple/tuple.h"

namespace quick::core {

ck::QueuedItem Pointer::ToItem() const {
  ck::QueuedItem item;
  item.id = Key();
  item.job_type = ck::kPointerJobType;
  item.db_key = Key();
  // The payload is the tuple (app, user, kind, zone).
  item.payload.reserve(db_id.EncodedSize() + zone.size() + 2);
  db_id.AppendTo(&item.payload);
  tup::AppendString(zone, &item.payload);
  return item;
}

Result<Pointer> Pointer::FromItem(const ck::QueuedItem& item) {
  if (item.job_type != ck::kPointerJobType) {
    return Status::InvalidArgument("item is not a pointer");
  }
  tup::TupleReader reader(item.payload);
  Pointer p;
  QUICK_RETURN_IF_ERROR(reader.ReadString(&p.db_id.app));
  QUICK_RETURN_IF_ERROR(reader.ReadString(&p.db_id.user));
  QUICK_ASSIGN_OR_RETURN(int64_t kind, reader.ReadInt());
  if (kind < 0 || kind > 2) return Status::InvalidArgument("bad kind");
  p.db_id.kind = static_cast<ck::DatabaseKind>(kind);
  QUICK_RETURN_IF_ERROR(reader.ReadString(&p.zone));
  if (!reader.done()) return Status::InvalidArgument("malformed pointer");
  return p;
}

}  // namespace quick::core
