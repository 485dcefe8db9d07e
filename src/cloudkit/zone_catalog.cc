#include "cloudkit/zone_catalog.h"

namespace quick::ck {

namespace {

constexpr const char* kZoneDescriptorType = "ZoneDescriptor";

rl::RecordMetadata BuildCatalogMetadata() {
  rl::RecordMetadata meta;
  rl::RecordTypeDef descriptor;
  descriptor.name = kZoneDescriptorType;
  descriptor.fields = {{"name", rl::FieldType::kString},
                       {"type", rl::FieldType::kInt64}};
  descriptor.primary_key_fields = {"name"};
  Status st = meta.AddRecordType(std::move(descriptor));
  (void)st;
  return meta;
}

}  // namespace

const rl::RecordMetadata& ZoneCatalog::Metadata() {
  static const rl::RecordMetadata* meta =
      new rl::RecordMetadata(BuildCatalogMetadata());
  return *meta;
}

ZoneCatalog::ZoneCatalog(fdb::Transaction* txn, const DatabaseRef& db,
                         Clock* clock)
    : txn_(txn),
      db_(db),
      clock_(clock),
      store_(txn, db.subspace.Sub("zc"), &Metadata()) {}

Status ZoneCatalog::CreateZone(const std::string& zone_name, ZoneType type) {
  if (zone_name.empty()) {
    return Status::InvalidArgument("zone name must not be empty");
  }
  QUICK_ASSIGN_OR_RETURN(std::optional<ZoneType> existing,
                         GetZoneType(zone_name));
  if (existing.has_value()) {
    return Status::AlreadyExists("zone " + zone_name);
  }
  rl::Record descriptor(kZoneDescriptorType);
  descriptor.SetString("name", zone_name)
      .SetInt("type", static_cast<int64_t>(type));
  return store_.SaveRecord(descriptor);
}

Result<std::optional<ZoneType>> ZoneCatalog::GetZoneType(
    const std::string& zone_name) {
  QUICK_ASSIGN_OR_RETURN(
      std::optional<rl::Record> rec,
      store_.LoadRecord(kZoneDescriptorType,
                        tup::Tuple().AddString(zone_name).Encode()));
  if (!rec.has_value()) return std::optional<ZoneType>(std::nullopt);
  QUICK_ASSIGN_OR_RETURN(int64_t type, rec->GetInt("type"));
  if (type < 0 || type > 2) {
    return Status::Internal("corrupt zone descriptor for " + zone_name);
  }
  return std::optional<ZoneType>(static_cast<ZoneType>(type));
}

Result<std::vector<std::pair<std::string, ZoneType>>> ZoneCatalog::ListZones() {
  QUICK_ASSIGN_OR_RETURN(std::vector<rl::Record> records,
                         store_.ScanRecords());
  std::vector<std::pair<std::string, ZoneType>> out;
  out.reserve(records.size());
  for (const rl::Record& rec : records) {
    QUICK_ASSIGN_OR_RETURN(std::string name, rec.GetString("name"));
    QUICK_ASSIGN_OR_RETURN(int64_t type, rec.GetInt("type"));
    out.emplace_back(std::move(name), static_cast<ZoneType>(type));
  }
  return out;
}

Result<QueueZone> ZoneCatalog::OpenQueueZone(const std::string& zone_name) {
  QUICK_ASSIGN_OR_RETURN(std::optional<ZoneType> type, GetZoneType(zone_name));
  if (!type.has_value()) {
    return Status::NotFound("zone " + zone_name + " not in catalog");
  }
  if (*type == ZoneType::kRegular) {
    return Status::FailedPrecondition("zone " + zone_name +
                                      " is not a queue zone");
  }
  return QueueZone(txn_, db_.ZoneSubspace(zone_name), clock_,
                   /*fifo=*/*type == ZoneType::kFifoQueue);
}

Status ZoneCatalog::DeleteZone(const std::string& zone_name) {
  QUICK_ASSIGN_OR_RETURN(std::optional<ZoneType> type, GetZoneType(zone_name));
  if (!type.has_value()) {
    return Status::NotFound("zone " + zone_name + " not in catalog");
  }
  QUICK_RETURN_IF_ERROR(
      store_
          .DeleteRecord(kZoneDescriptorType,
                        tup::Tuple().AddString(zone_name).Encode())
          .status());
  txn_->ClearRange(db_.ZoneSubspace(zone_name).Range());
  return Status::OK();
}

}  // namespace quick::ck
