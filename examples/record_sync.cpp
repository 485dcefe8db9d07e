// Cross-device sync with version indexes (§5 points at the mechanism: "a
// similar mechanism [FoundationDB commit timestamps] is used to implement
// CloudKit sync"). A device holds a sync token — the versionstamp of the
// last change it saw — and fetches "everything that changed since" with one
// ordered scan of a VERSION index. Deletes are synced through a tombstone
// record so they appear in the change feed too.
//
// Build & run:  ./build/examples/record_sync

#include <cstdio>

#include "fdb/retry.h"
#include "fdb/cluster_set.h"
#include "reclayer/record_store.h"

namespace {

quick::rl::RecordMetadata NotesSchema() {
  quick::rl::RecordMetadata meta;
  quick::rl::RecordTypeDef note;
  note.name = "Note";
  note.fields = {{"id", quick::rl::FieldType::kString},
                 {"body", quick::rl::FieldType::kString},
                 {"deleted", quick::rl::FieldType::kBool}};
  note.primary_key_fields = {"id"};
  (void)meta.AddRecordType(std::move(note));

  quick::rl::IndexDef changes;
  changes.name = "changes";
  changes.kind = quick::rl::IndexKind::kVersion;  // last-modified order
  (void)meta.AddIndex(std::move(changes));
  return meta;
}

}  // namespace

int main() {
  using namespace quick;

  fdb::ClusterSet clusters;
  clusters.AddCluster("main");
  fdb::Database* db = clusters.Get("main");
  const rl::RecordMetadata meta = NotesSchema();
  const tup::Subspace subspace(tup::Tuple().AddString("notes"));

  auto save = [&](const std::string& id, const std::string& body,
                  bool deleted = false) {
    return fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
      rl::RecordStore store(&txn, subspace, &meta);
      rl::Record r("Note");
      r.SetString("id", id).SetString("body", body).SetBool("deleted",
                                                            deleted);
      return store.SaveRecord(r);
    });
  };

  // Device A edits three notes while device B is offline.
  if (!save("groceries", "milk, eggs").ok()) return 1;
  if (!save("ideas", "reproduce QuiCK").ok()) return 1;
  if (!save("travel", "pack charger").ok()) return 1;

  // Device B's first sync: empty token, fetch everything, remember the
  // newest stamp as the next token.
  std::string token;
  auto sync = [&](const char* device) -> Result<int> {
    int fetched = 0;
    Status st = fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
      rl::RecordStore store(&txn, subspace, &meta);
      auto entries = store.ScanVersionIndex(
          "changes",
          token.empty() ? std::nullopt : std::optional<std::string>(token));
      QUICK_RETURN_IF_ERROR(entries.status());
      fetched = 0;
      for (const rl::VersionIndexEntry& e : *entries) {
        QUICK_ASSIGN_OR_RETURN(
            std::optional<rl::Record> rec,
            store.LoadByFullPrimaryKey(e.primary_key.Encode()));
        if (!rec.has_value()) continue;
        const bool deleted = (*rec).GetBool("deleted").value_or(false);
        std::printf("  [%s] %s \"%s\"%s\n", device,
                    deleted ? "tombstone" : "changed",
                    (*rec).GetString("id").value().c_str(),
                    deleted ? ""
                            : (" -> " + (*rec).GetString("body").value())
                                  .c_str());
        token = e.versionstamp;  // entries arrive in commit order
        ++fetched;
      }
      return Status::OK();
    });
    if (!st.ok()) return st;
    return fetched;
  };

  std::printf("[device B] initial sync:\n");
  auto n = sync("B");
  if (!n.ok() || *n != 3) return 1;

  std::printf("[device B] nothing new:\n");
  n = sync("B");
  if (!n.ok() || *n != 0) return 1;
  std::printf("  [B] up to date\n");

  // Device A edits one note and tombstones another; B's incremental sync
  // fetches exactly those two, in commit order.
  if (!save("groceries", "milk, eggs, coffee").ok()) return 1;
  if (!save("travel", "", /*deleted=*/true).ok()) return 1;

  std::printf("[device B] incremental sync:\n");
  n = sync("B");
  if (!n.ok() || *n != 2) return 1;

  std::printf("SUCCESS: incremental sync fetched only the delta, in commit "
              "order\n");
  return 0;
}
