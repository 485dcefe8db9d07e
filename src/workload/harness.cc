#include "workload/harness.h"

#include <algorithm>
#include <thread>

namespace quick::wl {

Harness::Harness(const HarnessOptions& options)
    : options_(options), election_(SystemClock::Default()) {
  Build();

  const int64_t work_millis = options.work_millis;
  registry_.Register(kSimJobType, [this, work_millis](core::WorkContext&) {
    if (work_millis > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(work_millis));
    }
    work_executed_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
}

Harness::~Harness() { StopPump(); }

void Harness::OnReplicationEvent(const std::string& cluster,
                                 const fdb::ReplicationEvent& event) {
  if (options_.alert_sink == nullptr) return;
  core::Alert alert;
  switch (event.kind) {
    case fdb::ReplicationEvent::Kind::kReplicaDivergence:
      alert.kind = core::Alert::Kind::kReplicaDivergence;
      break;
    case fdb::ReplicationEvent::Kind::kPromoted:
      alert.kind = core::Alert::Kind::kReplicaPromoted;
      break;
    case fdb::ReplicationEvent::Kind::kPromotionRefused:
      alert.kind = core::Alert::Kind::kPromotionRefused;
      break;
    case fdb::ReplicationEvent::Kind::kEpochSealed:
      return;  // a normal step of every failover, not operator-actionable
  }
  alert.cluster = cluster;
  alert.detail = event.region + " epoch=" + std::to_string(event.epoch) +
                 " version=" + std::to_string(event.version) + ": " +
                 event.detail;
  options_.alert_sink->Raise(alert);
}

void Harness::Build() {
  fdb::Database::Options db_opts;
  db_opts.clock = SystemClock::Default();
  db_opts.latency = options_.latency;
  db_opts.grv_cache_staleness_millis = options_.grv_cache_staleness_millis;
  db_opts.max_commit_batch = options_.max_commit_batch;
  db_opts.fault_plan = options_.fault_plan;
  clusters_ = std::make_unique<fdb::ClusterSet>(db_opts);
  const bool replicated =
      options_.enable_wal && options_.replicas_per_cluster > 0;
  for (int i = 0; i < options_.num_clusters; ++i) {
    const std::string name = "cluster" + std::to_string(i);
    if (replicated) {
      // The cluster is a replication group: region0 primary + warm
      // standbys, fenced failover, the cluster name following the
      // promoted primary via ClusterSet::Retarget.
      fdb::ReplicationGroupOptions gopts;
      gopts.num_replicas = options_.replicas_per_cluster;
      gopts.db_options = db_opts;
      gopts.db_options.durability.checkpoint_interval_bytes =
          options_.checkpoint_interval_bytes;
      gopts.dir = options_.wal_dir + "/" + name;
      gopts.on_event = [this, name](const fdb::ReplicationEvent& event) {
        OnReplicationEvent(name, event);
      };
      auto group = std::make_unique<fdb::ReplicationGroup>(name, gopts);
      const Status st = group->Start();
      (void)st;  // a failed region surfaces as kUnavailable on first use
      clusters_->AddExternal(name, group->primary());
      groups_[name] = std::move(group);
    } else if (options_.enable_wal) {
      fdb::Database::Options opts = db_opts;
      opts.durability.enable_wal = true;
      opts.durability.dir = options_.wal_dir + "/" + name;
      opts.durability.checkpoint_interval_bytes =
          options_.checkpoint_interval_bytes;
      clusters_->AddCluster(name, opts);
    } else {
      clusters_->AddCluster(name);
    }
    names_.push_back(name);
  }
  ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(),
                                              SystemClock::Default());
  core::QuickConfig qconfig;
  qconfig.pointer_vesting_slack_millis = options_.pointer_vesting_slack_millis;
  qconfig.top_zone_shards = options_.top_zone_shards;
  quick_ = std::make_unique<core::Quick>(ck_.get(), qconfig);
  StartPump();
}

void Harness::StartPump() {
  if (groups_.empty() || options_.replication_pump_interval_millis <= 0) {
    return;
  }
  pump_stop_.store(false, std::memory_order_release);
  pump_thread_ = std::thread([this] {
    while (!pump_stop_.load(std::memory_order_acquire)) {
      for (auto& [name, group] : groups_) (void)group->PumpOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.replication_pump_interval_millis));
    }
  });
}

void Harness::StopPump() {
  pump_stop_.store(true, std::memory_order_release);
  if (pump_thread_.joinable()) pump_thread_.join();
}

fdb::ReplicationGroup* Harness::replication(const std::string& cluster) {
  auto it = groups_.find(cluster);
  return it == groups_.end() ? nullptr : it->second.get();
}

Result<std::string> Harness::Failover(
    const std::string& cluster,
    const fdb::ReplicationGroup::FailoverOptions& options) {
  auto it = groups_.find(cluster);
  if (it == groups_.end()) {
    return Status::InvalidArgument(cluster + " is not replicated");
  }
  Result<std::string> promoted = it->second->Failover(options);
  QUICK_RETURN_IF_ERROR(promoted.status());
  clusters_->Retarget(cluster, it->second->primary());
  return promoted;
}

void Harness::KillRegion(const std::string& cluster) {
  auto it = groups_.find(cluster);
  if (it != groups_.end()) it->second->KillPrimary();
}

void Harness::PumpReplication() {
  for (auto& [name, group] : groups_) (void)group->PumpOnce();
}

void Harness::Restart() {
  // Teardown order mirrors construction (QuiCK holds the CloudKit pointer,
  // CloudKit holds the clusters, the ClusterSet's overrides point into the
  // replication groups); Build() then recovers each cluster — and each
  // group's fencing manifest and regions — from its directory.
  StopPump();
  quick_.reset();
  ck_.reset();
  clusters_.reset();
  groups_.clear();
  names_.clear();
  Build();
}

Status Harness::EnqueueSim(int client, int items,
                           int64_t vesting_delay_millis) {
  std::vector<core::WorkItem> batch(std::max(items, 0));
  for (core::WorkItem& item : batch) item.job_type = kSimJobType;
  return quick_->EnqueueBatch(ClientDb(client), batch, vesting_delay_millis)
      .status();
}

std::unique_ptr<core::Consumer> Harness::MakeConsumer(
    core::ConsumerConfig config, const std::string& id) {
  return std::make_unique<core::Consumer>(quick_.get(), names_, &registry_,
                                          config, id, &election_);
}

}  // namespace quick::wl
