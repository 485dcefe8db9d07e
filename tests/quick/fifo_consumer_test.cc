// End-to-end FIFO tenant zones: QuickConfig::fifo_tenant_zones makes the
// whole pipeline — enqueue, dequeue, retry, GC — run over the
// strict-commit-order schema (§5's commit-timestamp extension).

#include <gtest/gtest.h>

#include "fdb/retry.h"
#include "quick/consumer.h"

namespace quick::core {
namespace {

class FifoConsumerTest : public ::testing::Test {
 protected:
  FifoConsumerTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    QuickConfig qconfig;
    qconfig.fifo_tenant_zones = true;
    quick_ = std::make_unique<Quick>(ck_.get(), qconfig);
    registry_.Register("t", [this](WorkContext& ctx) {
      order_.push_back(ctx.item.payload);
      return Status::OK();
    });
  }

  ConsumerConfig FifoConfig() {
    ConsumerConfig config;
    config.sequential = true;
    config.relaxed_reads_for_peek = false;
    config.dequeue_max = 2;
    return config;
  }

  std::string MustEnqueue(const std::string& payload, int64_t priority = 0) {
    WorkItem item;
    item.job_type = "t";
    item.payload = payload;
    item.priority = priority;
    auto id = quick_->Enqueue(ck::DatabaseId::Private("app", "u1"), item, 0);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  ManualClock clock_{80000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
  JobRegistry registry_;
  std::vector<std::string> order_;
};

TEST_F(FifoConsumerTest, ProcessesInEnqueueOrderDespitePriorities) {
  // Priorities would reorder the default view; FIFO mode must not.
  MustEnqueue("first", /*priority=*/9);
  MustEnqueue("second", /*priority=*/0);
  MustEnqueue("third", /*priority=*/5);
  MustEnqueue("fourth", /*priority=*/1);

  Consumer consumer(quick_.get(), {"c1"}, &registry_, FifoConfig(), "fifo");
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  }
  EXPECT_EQ(order_, (std::vector<std::string>{"first", "second", "third",
                                              "fourth"}));
  EXPECT_EQ(quick_->PendingCount(ck::DatabaseId::Private("app", "u1"))
                .value_or(-1),
            0);
}

TEST_F(FifoConsumerTest, RetriedItemDoesNotJumpTheLine) {
  int failures = 1;
  RetryPolicy policy;
  policy.max_inline_retries = 0;
  policy.backoff_initial_millis = 100;
  registry_.Register(
      "flaky",
      [&](WorkContext& ctx) {
        if (failures > 0 && ctx.item.payload == "a") {
          --failures;
          return Status::Unavailable("x");
        }
        order_.push_back(ctx.item.payload);
        return Status::OK();
      },
      policy);
  WorkItem item;
  item.job_type = "flaky";
  item.payload = "a";
  ASSERT_TRUE(quick_->Enqueue(ck::DatabaseId::Private("app", "u1"), item, 0)
                  .ok());
  item.payload = "b";
  ASSERT_TRUE(quick_->Enqueue(ck::DatabaseId::Private("app", "u1"), item, 0)
                  .ok());

  Consumer consumer(quick_.get(), {"c1"}, &registry_, FifoConfig(), "fifo");
  // Pass 1: "a" fails and is requeued (arrival position retained), "b"
  // cannot run before "a"'s retry vests... but FIFO ordering here is about
  // the dequeue view: "b" was dequeued in the same batch and completes.
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  clock_.AdvanceMillis(6000);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  // "a" executes on the retry; its arrival stamp never changed.
  EXPECT_EQ(order_, (std::vector<std::string>{"b", "a"}));
}

TEST_F(FifoConsumerTest, GcStillCollectsFifoZonePointers) {
  MustEnqueue("only");
  ConsumerConfig config = FifoConfig();
  config.min_inactive_millis = 100;
  config.pointer_lease_millis = 50;
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "fifo-gc");
  for (int round = 0; round < 10; ++round) {
    clock_.AdvanceMillis(3000);
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  }
  EXPECT_EQ(order_, std::vector<std::string>{"only"});
  EXPECT_EQ(quick_->TopLevelCount("c1").value_or(-1), 0);
}

}  // namespace
}  // namespace quick::core
