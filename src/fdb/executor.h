#ifndef QUICK_FDB_EXECUTOR_H_
#define QUICK_FDB_EXECUTOR_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace quick::fdb {

/// Where async transaction continuations run. Post schedules a task as soon
/// as a thread is free; PostAfter schedules it once `delay_millis` of the
/// executor's clock have elapsed — the non-blocking replacement for a
/// backoff sleep (a retrying transaction re-arms instead of parking the
/// thread that drains the pipeline).
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void Post(std::function<void()> fn) = 0;
  virtual void PostAfter(int64_t delay_millis, std::function<void()> fn) = 0;
};

/// Deterministic single-threaded executor for unit tests: nothing runs
/// until the test pumps it. Posting is thread-safe (commit acks arrive from
/// the cluster's pump thread); running is meant for the test thread.
class ManualExecutor : public Executor {
 public:
  void Post(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(std::move(fn));
  }

  void PostAfter(int64_t delay_millis, std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    timers_.emplace_back(now_millis_ + std::max<int64_t>(delay_millis, 0),
                         std::move(fn));
  }

  /// Advances the executor's virtual clock; due timers become ready in
  /// deadline order.
  void AdvanceMillis(int64_t millis) {
    std::lock_guard<std::mutex> lock(mu_);
    now_millis_ += millis;
    std::stable_sort(timers_.begin(), timers_.end(),
                     [](const Timer& a, const Timer& b) {
                       return a.first < b.first;
                     });
    while (!timers_.empty() && timers_.front().first <= now_millis_) {
      ready_.push_back(std::move(timers_.front().second));
      timers_.erase(timers_.begin());
    }
  }

  /// Runs tasks (including those they post) until the queue is empty.
  /// Returns the number executed.
  int RunUntilIdle() {
    int ran = 0;
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (ready_.empty()) return ran;
        task = std::move(ready_.front());
        ready_.pop_front();
      }
      task();
      ++ran;
    }
  }

  size_t PendingTimers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timers_.size();
  }

  int64_t now_millis() const {
    std::lock_guard<std::mutex> lock(mu_);
    return now_millis_;
  }

 private:
  using Timer = std::pair<int64_t, std::function<void()>>;
  mutable std::mutex mu_;
  std::deque<std::function<void()>> ready_;
  std::vector<Timer> timers_;
  int64_t now_millis_ = 0;
};

/// N worker threads draining a task queue, with timers measured on the
/// injected Clock. With a SystemClock, timer waits are real condition-
/// variable waits; with a ManualClock the pool degrades to a short
/// real-time poll (deterministic tests should prefer ManualExecutor).
class ThreadPoolExecutor : public Executor {
 public:
  explicit ThreadPoolExecutor(int num_threads,
                              Clock* clock = SystemClock::Default())
      : clock_(clock) {
    threads_.reserve(static_cast<size_t>(std::max(num_threads, 1)));
    for (int i = 0; i < std::max(num_threads, 1); ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPoolExecutor() override { Shutdown(); }

  /// Notifies under the lock: once a worker can see the task, the poster
  /// is done with cv_. A foreign poster (a commit-pump ack) whose task lets
  /// the owner destroy this executor then never notifies a destroyed cv_.
  void Post(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;  // shutting down: drop (captured state frees)
    ready_.push_back(std::move(fn));
    cv_.notify_one();
  }

  void PostAfter(int64_t delay_millis, std::function<void()> fn) override {
    if (delay_millis <= 0) {
      Post(std::move(fn));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    timers_.push(Timer{clock_->NowMillis() + delay_millis, next_timer_seq_++,
                       std::move(fn)});
    cv_.notify_one();
  }

  /// Stops the pool and joins every thread. Queued tasks and pending timers
  /// are dropped — callers that need their continuations to finish must
  /// drain before shutting down. Safe to call twice.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  struct Timer {
    int64_t due_millis;
    uint64_t seq;  // FIFO among equal deadlines
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (due_millis != other.due_millis) return due_millis > other.due_millis;
      return seq > other.seq;
    }
  };

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      const int64_t now = clock_->NowMillis();
      while (!timers_.empty() && timers_.top().due_millis <= now) {
        ready_.push_back(std::move(const_cast<Timer&>(timers_.top()).fn));
        timers_.pop();
      }
      if (!ready_.empty()) {
        std::function<void()> task = std::move(ready_.front());
        ready_.pop_front();
        lock.unlock();
        task();
        lock.lock();
        continue;
      }
      if (timers_.empty()) {
        cv_.wait(lock);
      } else {
        // Bounded wait so a ManualClock (whose time moves independently of
        // real time) still gets its timers fired promptly.
        const int64_t wait = std::clamp<int64_t>(
            timers_.top().due_millis - now, 1, 20);
        cv_.wait_for(lock, std::chrono::milliseconds(wait));
      }
    }
  }

  Clock* clock_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> ready_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t next_timer_seq_ = 0;
  bool stopped_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_EXECUTOR_H_
