// Push-notification pipeline (the paper's running example, §1/§3): a
// client writes data and schedules a push notification *atomically* — the
// enqueue rides in the same FoundationDB transaction as the data write, so
// there are no spurious notifications for aborted writes and no lost
// notifications for committed ones. Delivery goes through a flaky
// simulated APNs; transient failures retry with exponential backoff,
// unregistered devices are permanent failures and are quarantined as dead
// letters (RetryPolicy::quarantine_on_failure, on by default) for an
// operator to inspect, requeue or purge.
//
// Build & run:  ./build/examples/push_notifications

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"

namespace {

// A downstream push service that is throttled and occasionally down.
class SimulatedApns {
 public:
  quick::Status Deliver(const std::string& device, const std::string& body) {
    std::lock_guard<std::mutex> lock(mu_);
    if (device == "unregistered-device") {
      return quick::Status::Permanent("device token revoked");
    }
    // Fail the first two calls per device to exercise retries.
    if (++attempts_[device] <= 2) {
      return quick::Status::Unavailable("APNs throttled, retry later");
    }
    std::printf("  [apns] delivered to %-10s : %s\n", device.c_str(),
                body.c_str());
    ++delivered_;
    return quick::Status::OK();
  }

  int delivered() const { return delivered_; }

 private:
  std::mutex mu_;
  std::map<std::string, int> attempts_;
  std::atomic<int> delivered_{0};
};

}  // namespace

int main() {
  using namespace quick;

  fdb::ClusterSet clusters;
  clusters.AddCluster("main");
  ck::CloudKitService cloudkit(&clusters, SystemClock::Default());
  core::Quick quick(&cloudkit);

  SimulatedApns apns;
  core::JobRegistry registry;
  core::RetryPolicy policy;
  policy.max_inline_retries = 0;           // rely on requeue + backoff
  policy.backoff_initial_millis = 20;      // compressed for the demo
  policy.backoff_max_millis = 100;
  registry.Register(
      "push",
      [&apns](core::WorkContext& ctx) {
        // Payload: "<device>|<message>".
        const size_t sep = ctx.item.payload.find('|');
        return apns.Deliver(ctx.item.payload.substr(0, sep),
                            ctx.item.payload.substr(sep + 1));
      },
      policy);

  // Client request: save a message AND schedule its notification in one
  // transaction. If the data write aborted, no notification would exist.
  auto send_message = [&](const std::string& user, const std::string& device,
                          const std::string& text) {
    const ck::DatabaseId db_id = ck::DatabaseId::Private("chat-app", user);
    const ck::DatabaseRef db = cloudkit.OpenDatabase(db_id);
    core::EnqueueFollowUp follow_up;
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      // 1. The user-visible data write.
      txn.Set(db.subspace.Pack(tup::Tuple().AddString("msg").AddString(text)),
              text);
      // 2. The deferred notification, same transaction.
      core::WorkItem item;
      item.job_type = "push";
      item.payload = device + "|" + text;
      return quick.EnqueueInTransaction(&txn, db, item, 0, &follow_up)
          .status();
    });
    if (st.ok()) quick.ExecuteFollowUp(db, follow_up);
    std::printf("[client] %s wrote \"%s\" -> %s\n", user.c_str(), text.c_str(),
                st.ToString().c_str());
    return st;
  };

  (void)send_message("alice", "alice-phone", "lunch?");
  (void)send_message("bob", "bob-tablet", "on my way");
  (void)send_message("carol", "unregistered-device", "hello?");

  // Consumer loop: drive synchronously until the retries play out.
  core::ConsumerConfig config;
  config.dequeue_max = 4;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.pointer_lease_millis = 20;
  config.item_lease_millis = 50;  // short leases so retries reappear fast
  core::Consumer consumer(&quick, {"main"}, &registry, config, "apns-worker");
  for (int pass = 0; pass < 200 && apns.delivered() < 2; ++pass) {
    (void)consumer.RunOnePass("main");
    SystemClock::Default()->SleepMillis(10);
  }

  core::ConsumerStats& s = consumer.stats();
  std::printf(
      "\n[stats] delivered=%d retried=%lld quarantined=%lld\n",
      apns.delivered(), static_cast<long long>(s.items_requeued.Value()),
      static_cast<long long>(s.items_quarantined.Value()));
  const bool ok = apns.delivered() == 2 && s.items_quarantined.Value() == 1;
  std::printf("%s\n", ok ? "SUCCESS" : "INCOMPLETE");
  return ok ? 0 : 1;
}
