// Tenant migration (§6 "User-move and local work items"): CloudKit
// rebalances by moving logical databases between FoundationDB clusters,
// and any deferred work must follow the data. This example queues work for
// a user, moves the user mid-flight, and shows the destination's consumers
// executing the carried items while the source is left clean.
//
// Build & run:  ./build/examples/user_migration

#include <cstdio>

#include "control/balancer.h"
#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"

int main() {
  using namespace quick;

  fdb::ClusterSet clusters;
  clusters.AddCluster("eu-west");
  clusters.AddCluster("ap-east");
  ck::CloudKitService cloudkit(&clusters, SystemClock::Default());
  core::Quick quick(&cloudkit);

  std::vector<std::string> processed_on;
  core::JobRegistry registry;
  registry.Register("compact_backup", [&](core::WorkContext& ctx) {
    // Record which cluster's consumer ran the item (the zone lives where
    // the pointer was found).
    processed_on.push_back(ctx.item.payload);
    return Status::OK();
  });

  const ck::DatabaseId user = ck::DatabaseId::Private("backup-app", "dana");
  const std::string source = cloudkit.placement()->AssignOrGet(user);
  const std::string destination = source == "eu-west" ? "ap-east" : "eu-west";
  std::printf("[placement] dana lives on %s\n", source.c_str());

  // Queue three compaction tasks (deliberately delayed so they are still
  // queued when the move happens).
  for (int i = 1; i <= 3; ++i) {
    core::WorkItem item;
    item.job_type = "compact_backup";
    item.payload = "snapshot-" + std::to_string(i);
    auto id = quick.Enqueue(user, item, /*vesting_delay_millis=*/50);
    if (!id.ok()) return 1;
  }
  std::printf("[client] queued %lld tasks on %s\n",
              static_cast<long long>(quick.PendingCount(user).value_or(-1)),
              source.c_str());

  // Rebalance: move dana — data AND queued tasks — to the other cluster,
  // through the orchestrated state machine (copy -> catch-up -> fenced
  // flip). Raw CommitMove would refuse the flip with work still queued.
  control::TenantBalancer balancer(&quick);
  Status st = balancer.MoveTenant(user, destination);
  std::printf("[move] %s -> %s : %s\n", source.c_str(), destination.c_str(),
              st.ToString().c_str());
  if (!st.ok()) return 1;
  std::printf("[move] source top-level queue: %lld entries, destination: "
              "%lld entries\n",
              static_cast<long long>(quick.TopLevelCount(source).value_or(-1)),
              static_cast<long long>(
                  quick.TopLevelCount(destination).value_or(-1)));

  // Consumers at both sites; only the destination finds dana's work.
  core::ConsumerConfig config;
  config.dequeue_max = 4;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  core::Consumer src_consumer(&quick, {source}, &registry, config, "src");
  core::Consumer dst_consumer(&quick, {destination}, &registry, config, "dst");

  SystemClock::Default()->SleepMillis(60);  // let the items vest
  for (int pass = 0; pass < 3; ++pass) {
    (void)src_consumer.RunOnePass(source);
    (void)dst_consumer.RunOnePass(destination);
  }

  std::printf("[stats] source processed %lld, destination processed %lld\n",
              static_cast<long long>(
                  src_consumer.stats().items_processed.Value()),
              static_cast<long long>(
                  dst_consumer.stats().items_processed.Value()));
  const bool ok = dst_consumer.stats().items_processed.Value() == 3 &&
                  src_consumer.stats().items_processed.Value() == 0 &&
                  quick.PendingCount(user).value_or(-1) == 0;
  std::printf("%s\n", ok ? "SUCCESS" : "INCOMPLETE");
  return ok ? 0 : 1;
}
