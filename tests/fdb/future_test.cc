// Deterministic unit tests for the Future/Promise/combinator layer and the
// executors that drive async transaction chains: completion and callback
// ordering, Then chaining (including flattening), WhenAll fan-in, sticky
// cancellation tokens, ManualExecutor virtual-time timers, and the
// ThreadPoolExecutor's shutdown contract (including teardown right after a
// foreign thread's Post).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "fdb/executor.h"
#include "fdb/future.h"

namespace quick::fdb {
namespace {

TEST(FutureTest, SetBeforeGet) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.IsReady());
  p.Set(42);
  EXPECT_TRUE(f.IsReady());
  EXPECT_EQ(f.Get(), 42);
}

TEST(FutureTest, DefaultConstructedIsInvalid) {
  Future<int> f;
  EXPECT_FALSE(f.valid());
}

TEST(FutureTest, CallbacksRegisteredBeforeCompletionRunInOrder) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  std::vector<int> order;
  f.OnReady([&](const int& v) { order.push_back(v * 10); });
  f.OnReady([&](const int& v) { order.push_back(v * 10 + 1); });
  EXPECT_TRUE(order.empty());  // nothing runs before completion
  p.Set(1);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 11);
}

TEST(FutureTest, CallbackAfterCompletionRunsInline) {
  Promise<int> p;
  p.Set(7);
  int seen = 0;
  p.GetFuture().OnReady([&](const int& v) { seen = v; });
  EXPECT_EQ(seen, 7);
}

TEST(FutureTest, FirstCompletionWins) {
  Promise<std::string> p;
  Promise<std::string> copy = p;  // copies complete the same future
  p.Set("first");
  copy.Set("second");
  EXPECT_EQ(p.GetFuture().Get(), "first");
}

TEST(FutureTest, ThenTransformsValue) {
  Promise<int> p;
  Future<std::string> chained =
      p.GetFuture().Then([](const int& v) { return std::to_string(v + 1); });
  p.Set(41);
  EXPECT_EQ(chained.Get(), "42");
}

TEST(FutureTest, ThenFlattensFutureReturningFn) {
  Promise<int> outer;
  Promise<int> inner;
  // fn returns Future<int>; the chain must be Future<int>, not
  // Future<Future<int>>, and completes only when the inner one does.
  Future<int> chained = outer.GetFuture().Then(
      [&inner](const int&) { return inner.GetFuture(); });
  outer.Set(1);
  EXPECT_FALSE(chained.IsReady());
  inner.Set(99);
  EXPECT_EQ(chained.Get(), 99);
}

TEST(FutureTest, WhenAllPreservesInputOrder) {
  std::vector<Promise<int>> promises(3);
  std::vector<Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.GetFuture());
  Future<std::vector<int>> all = WhenAll(std::move(futures));
  // Complete out of order; results must still be in input order.
  promises[2].Set(30);
  promises[0].Set(10);
  EXPECT_FALSE(all.IsReady());
  promises[1].Set(20);
  ASSERT_TRUE(all.IsReady());
  EXPECT_EQ(all.Get(), (std::vector<int>{10, 20, 30}));
}

TEST(FutureTest, WhenAllOfNothingCompletesImmediately) {
  Future<std::vector<int>> all = WhenAll(std::vector<Future<int>>{});
  ASSERT_TRUE(all.IsReady());
  EXPECT_TRUE(all.Get().empty());
}

TEST(FutureTest, WaitBlocksUntilCompletedFromAnotherThread) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  std::thread completer([&p] { p.Set(5); });
  f.Wait();
  EXPECT_EQ(f.Get(), 5);
  completer.join();
}

TEST(CancelTokenTest, CopiesShareTheFlagAndCancelIsSticky) {
  CancelToken token;
  CancelToken copy = token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(copy.Cancelled());
  copy.Cancel();
  EXPECT_TRUE(token.Cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(copy.Cancelled());
}

TEST(ManualExecutorTest, PostedTasksRunFifoOnRunUntilIdle) {
  ManualExecutor exec;
  std::vector<int> order;
  exec.Post([&] { order.push_back(1); });
  exec.Post([&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());  // nothing runs until pumped
  EXPECT_EQ(exec.RunUntilIdle(), 2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ManualExecutorTest, TasksPostedByTasksRunInTheSamePump) {
  ManualExecutor exec;
  int ran = 0;
  exec.Post([&] {
    ++ran;
    exec.Post([&] { ++ran; });
  });
  EXPECT_EQ(exec.RunUntilIdle(), 2);
  EXPECT_EQ(ran, 2);
}

TEST(ManualExecutorTest, TimersFireInDeadlineOrderOnAdvance) {
  ManualExecutor exec;
  std::vector<int> order;
  exec.PostAfter(50, [&] { order.push_back(50); });
  exec.PostAfter(10, [&] { order.push_back(10); });
  exec.PostAfter(30, [&] { order.push_back(30); });
  EXPECT_EQ(exec.PendingTimers(), 3u);

  exec.AdvanceMillis(10);
  exec.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{10}));
  EXPECT_EQ(exec.PendingTimers(), 2u);

  exec.AdvanceMillis(40);  // t=50: both remaining timers are due
  exec.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{10, 30, 50}));
  EXPECT_EQ(exec.PendingTimers(), 0u);
}

TEST(ManualExecutorTest, NonPositiveDelayIsDueImmediately) {
  ManualExecutor exec;
  bool ran = false;
  exec.PostAfter(0, [&] { ran = true; });
  exec.AdvanceMillis(0);
  exec.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolExecutorTest, RunsPostedTasks) {
  ThreadPoolExecutor exec(2);
  std::atomic<int> ran{0};
  Promise<bool> done;
  for (int i = 0; i < 10; ++i) {
    exec.Post([&] {
      if (ran.fetch_add(1) + 1 == 10) done.Set(true);
    });
  }
  done.GetFuture().Wait();
  EXPECT_EQ(ran.load(), 10);
  exec.Shutdown();
}

TEST(ThreadPoolExecutorTest, PostAfterFiresAfterTheDelay) {
  ThreadPoolExecutor exec(1);
  const int64_t start = SystemClock::Default()->NowMillis();
  Promise<int64_t> fired;
  exec.PostAfter(20, [&] { fired.Set(SystemClock::Default()->NowMillis()); });
  EXPECT_GE(fired.GetFuture().Get() - start, 20);
  exec.Shutdown();
}

TEST(ThreadPoolExecutorTest, ShutdownDropsPendingTimersAndIsIdempotent) {
  auto exec = std::make_unique<ThreadPoolExecutor>(2);
  std::atomic<bool> fired{false};
  exec->PostAfter(60000, [&] { fired.store(true); });
  exec->Shutdown();
  exec->Shutdown();  // safe to call twice
  exec->Post([&] { fired.store(true); });  // dropped after shutdown
  exec.reset();
  EXPECT_FALSE(fired.load());
}

// The consumer's teardown pattern: a foreign thread (the commit pump) posts
// the task that lets the owner shut down and destroy the executor. Post
// must be done with the executor's state before that task can run, or the
// owner destroys the condition variable under the poster's notify.
TEST(ThreadPoolExecutorTest, OwnerMayDestroyOnceAForeignPostHasRun) {
  for (int i = 0; i < 2000; ++i) {
    auto exec = std::make_unique<ThreadPoolExecutor>(1);
    ThreadPoolExecutor* raw = exec.get();
    std::atomic<bool> ran{false};
    std::thread poster([raw, &ran] { raw->Post([&ran] { ran.store(true); }); });
    while (!ran.load()) std::this_thread::yield();
    exec.reset();
    poster.join();
  }
}

}  // namespace
}  // namespace quick::fdb
