// VirtualClock is the foundation of every deterministic timing test in the
// repo (client backoff, the circuit breaker, net deadlines), so its own
// semantics are pinned exactly here: registration/wake ordering, predicate
// re-checks, sleep accounting, and the no-lost-wakeup guarantee.
#include "src/common/clock.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

namespace rc::common {
namespace {

TEST(MonotonicClockTest, NowAdvancesAndSleepElapses) {
  MonotonicClock* clock = MonotonicClock::Instance();
  int64_t a = clock->NowUs();
  clock->SleepUs(1000);
  int64_t b = clock->NowUs();
  EXPECT_GE(b - a, 1000);
  clock->SleepUs(0);    // no-ops must return immediately
  clock->SleepUs(-10);
}

TEST(MonotonicClockTest, WaitUntilHonorsPredicateAndDeadline) {
  MonotonicClock* clock = MonotonicClock::Instance();
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;

  {
    // Already-true predicate returns immediately.
    std::unique_lock<std::mutex> lock(mu);
    ready = true;
    EXPECT_TRUE(clock->WaitUntil(lock, cv, clock->NowUs() + 1'000'000, [&] { return ready; }));
    ready = false;
  }
  {
    // Expired deadline with a false predicate returns false without waiting.
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_FALSE(clock->WaitUntil(lock, cv, clock->NowUs() - 1, [&] { return ready; }));
  }
  // A notify with the predicate satisfied ends the wait before the deadline.
  std::thread writer([&] {
    std::lock_guard<std::mutex> lock(mu);
    ready = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(clock->WaitUntil(lock, cv, clock->NowUs() + 5'000'000, [&] { return ready; }));
  }
  writer.join();
}

TEST(VirtualClockTest, TimeMovesOnlyWhenAdvanced) {
  VirtualClock clock(VirtualClock::Options{.start_us = 100});
  EXPECT_EQ(clock.NowUs(), 100);
  clock.AdvanceUs(40);
  EXPECT_EQ(clock.NowUs(), 140);
  clock.AdvanceUs(0);    // <= 0 is a no-op
  clock.AdvanceUs(-5);
  EXPECT_EQ(clock.NowUs(), 140);
  clock.AdvanceToUs(200);
  EXPECT_EQ(clock.NowUs(), 200);
  clock.AdvanceToUs(150);  // already past: no-op
  EXPECT_EQ(clock.NowUs(), 200);
}

TEST(VirtualClockTest, SleeperWakesExactlyAtDeadline) {
  VirtualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepUs(500);
    woke.store(true);
  });
  clock.AwaitWaiters(1);
  EXPECT_EQ(clock.waiters(), 1u);
  clock.AdvanceUs(499);
  EXPECT_FALSE(woke.load());  // deterministic: time has provably not reached 500
  clock.AdvanceUs(1);
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(clock.slept_us(), 500);
}

TEST(VirtualClockTest, AutoAdvanceOnSleepRunsInline) {
  VirtualClock clock(VirtualClock::Options{.auto_advance_on_sleep = true});
  // Synchronous backoff naps (e.g. the store-retry schedule 500, 1000) run on
  // the calling thread; auto-advance keeps them from deadlocking and records
  // the exact schedule.
  clock.SleepUs(500);
  clock.SleepUs(1000);
  EXPECT_EQ(clock.NowUs(), 1500);
  EXPECT_EQ(clock.slept_us(), 1500);
}

TEST(VirtualClockTest, WaitUntilWakesOnDeadlineWithFinalPredicate) {
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::atomic<bool> returned{false};
  bool result = true;
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mu);
    result = clock.WaitUntil(lock, cv, 250, [&] { return ready; });
    returned.store(true);
  });
  clock.AwaitWaiters(1);
  clock.AdvanceUs(249);
  EXPECT_FALSE(returned.load());
  clock.AdvanceUs(1);  // crosses the deadline; predicate still false
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(result);
}

TEST(VirtualClockTest, WaitUntilWakesEarlyOnNotify) {
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  bool result = false;
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mu);
    result = clock.WaitUntil(lock, cv, 1'000'000, [&] { return ready; });
  });
  clock.AwaitWaiters(1);
  {
    std::lock_guard<std::mutex> lock(mu);
    ready = true;
    cv.notify_all();
  }
  waiter.join();
  EXPECT_TRUE(result);
  EXPECT_EQ(clock.NowUs(), 0);  // no virtual time passed
  EXPECT_EQ(clock.waiters(), 0u);
}

TEST(VirtualClockTest, SpuriousNotifyReparksUntilDeadline) {
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lock(mu);
    clock.WaitUntil(lock, cv, 100, [&] { return ready; });
    returned.store(true);
  });
  clock.AwaitWaiters(1);
  {
    // A notify whose predicate is still false must re-park the waiter.
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  }
  clock.AwaitWaiters(1);
  EXPECT_FALSE(returned.load());
  clock.AdvanceUs(100);
  waiter.join();
  EXPECT_TRUE(returned.load());
}

TEST(VirtualClockTest, ManyWaitersAllReleasedByOneAdvance) {
  VirtualClock clock;
  constexpr int kThreads = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::unique_lock<std::mutex> lock(mu);
      clock.WaitUntil(lock, cv, 10 * (i + 1), [] { return false; });
      done.fetch_add(1);
    });
  }
  clock.AwaitWaiters(kThreads);
  clock.AdvanceUs(10 * kThreads);  // crosses every deadline at once
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), kThreads);
  EXPECT_EQ(clock.waiters(), 0u);
}

}  // namespace
}  // namespace rc::common
