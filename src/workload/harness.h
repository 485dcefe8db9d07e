#ifndef QUICK_WORKLOAD_HARNESS_H_
#define QUICK_WORKLOAD_HARNESS_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fdb/replication.h"
#include "quick/alerts.h"
#include "quick/consumer.h"
#include "quick/quick.h"

namespace quick::wl {

/// Simulated-work job type registered by the harness.
inline constexpr const char* kSimJobType = "sim_work";

struct HarnessOptions {
  int num_clusters = 1;
  /// Injected FoundationDB latencies (zero by default; benches that model
  /// the paper's 2-DC deployment pass LatencyModel::PaperLike()).
  fdb::LatencyModel latency;
  /// Service time each simulated work item burns (the paper used ~50 ms;
  /// benches scale this down).
  int64_t work_millis = 2;
  /// GRV cache staleness for relaxed reads.
  int64_t grv_cache_staleness_millis = 50;
  /// Group-commit batch cap on the simulated clusters
  /// (Database::Options::max_commit_batch; benches set 1 to measure the
  /// commit-path batching win).
  int max_commit_batch = 128;
  /// Enqueue follow-up slack (QuickConfig::pointer_vesting_slack_millis),
  /// scaled down with the rest of the time base.
  int64_t pointer_vesting_slack_millis = 50;
  uint64_t seed = 42;
  std::string app = "bench";
  /// Top-level queue shards per cluster (QuickConfig::top_zone_shards);
  /// the scale harness sweeps this axis (DESIGN.md §12).
  int top_zone_shards = 1;
  /// Durable WAL + checkpointing on every cluster (cluster `i` logs to
  /// `<wal_dir>/cluster<i>`). Off by default — benches and tests that do
  /// not exercise durability keep today's purely in-memory clusters.
  bool enable_wal = false;
  std::string wal_dir;
  int64_t checkpoint_interval_bytes = 4 << 20;
  /// Per-cluster fault schedule (disk faults drive the crash-recovery
  /// suites; time windows compose as before).
  fdb::FaultPlan fault_plan;
  /// Warm standbys per cluster (DESIGN.md §10). Requires enable_wal;
  /// each cluster becomes a ReplicationGroup under `<wal_dir>/<name>`
  /// with the primary in region0 and standbys in region1..N. 0 keeps
  /// plain unreplicated clusters.
  int replicas_per_cluster = 0;
  /// Background log-shipping cadence; <= 0 disables the pump thread
  /// (tests then drive PumpReplication() by hand for determinism).
  int64_t replication_pump_interval_millis = 2;
  /// Receives replication alerts (divergence halts, promotions, refused
  /// promotions) on top of consumer alerts. Not owned; may be null.
  core::AlertSink* alert_sink = nullptr;
};

/// Owns a full QuiCK deployment — clusters, CloudKit, QuiCK, job registry
/// with a simulated-work handler, and the scanner-election cache — so
/// benchmarks and examples set up in one line.
class Harness {
 public:
  explicit Harness(const HarnessOptions& options);
  ~Harness();

  core::Quick* quick() { return quick_.get(); }
  ck::CloudKitService* cloudkit() { return ck_.get(); }
  /// The simulated clusters, exposed so benches can read commit-path
  /// stats (batch sizes, conflicts) off each Database.
  fdb::ClusterSet* clusters() { return clusters_.get(); }
  core::JobRegistry* registry() { return &registry_; }
  core::LeaseCache* election() { return &election_; }
  const std::vector<std::string>& cluster_names() const { return names_; }
  const HarnessOptions& options() const { return options_; }

  /// The logical database of simulated client `i` (one queue per client,
  /// matching the paper's "150K distinct clients and one CloudKit app").
  ck::DatabaseId ClientDb(int client) const {
    return ck::DatabaseId::Private(options_.app,
                                   "client" + std::to_string(client));
  }

  /// Enqueues `items` simulated work items for `client` as one
  /// Quick::EnqueueBatch (the paper's 1–4 tasks per enqueue).
  Status EnqueueSim(int client, int items, int64_t vesting_delay_millis = 0);

  /// New consumer over all clusters, wired to this harness's registry and
  /// election cache.
  std::unique_ptr<core::Consumer> MakeConsumer(core::ConsumerConfig config,
                                               const std::string& id);

  /// Total simulated work items executed so far.
  int64_t WorkExecuted() const { return work_executed_.load(); }

  /// The replication group behind `cluster` (nullptr when
  /// replicas_per_cluster is 0 or the name is unknown).
  fdb::ReplicationGroup* replication(const std::string& cluster);

  /// Fails `cluster` over to a standby region and repoints the cluster
  /// name at the new primary — in-flight client operations on the old
  /// one surface kUnavailable / kCommitUnknownResult, and every
  /// re-resolved operation lands on the promoted region. Returns the new
  /// primary's region name.
  Result<std::string> Failover(
      const std::string& cluster,
      const fdb::ReplicationGroup::FailoverOptions& options = {});

  /// Kills `cluster`'s current primary region (its disk survives for a
  /// later Failover drain).
  void KillRegion(const std::string& cluster);

  /// Ships one pump of log to every standby of every cluster (the manual
  /// path when the background pump is disabled).
  void PumpReplication();

  /// Simulated process restart: tears down QuiCK, CloudKit, and every
  /// cluster, then rebuilds them from the same options. With the WAL
  /// enabled the clusters recover from their directories — leases, dead
  /// letters, and queue state resume from the last durable commit. Any
  /// consumers built before the restart must be discarded first; the
  /// executed-work counter deliberately survives (it models the client's
  /// side of the ledger).
  void Restart();

 private:
  /// Constructs clusters/CloudKit/QuiCK from options_ (ctor and Restart).
  void Build();
  void StartPump();
  void StopPump();
  /// Maps a replication event to an operator alert on alert_sink.
  void OnReplicationEvent(const std::string& cluster,
                          const fdb::ReplicationEvent& event);

  HarnessOptions options_;
  /// Replication groups, declared before clusters_ so the ClusterSet's
  /// non-owned overrides never outlive the primaries they point at.
  std::map<std::string, std::unique_ptr<fdb::ReplicationGroup>> groups_;
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::vector<std::string> names_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<core::Quick> quick_;
  core::JobRegistry registry_;
  core::LeaseCache election_;
  std::atomic<int64_t> work_executed_{0};
  std::thread pump_thread_;
  std::atomic<bool> pump_stop_{false};
};

}  // namespace quick::wl

#endif  // QUICK_WORKLOAD_HARNESS_H_
