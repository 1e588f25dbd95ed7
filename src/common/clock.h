// rc::common::Clock — injectable time for every timing-sensitive component
// (client deadlines, the net client's pool wait, retry/backoff naps, the
// circuit breaker). Production code uses MonotonicClock (a thin veneer over
// std::chrono::steady_clock); tests substitute VirtualClock, a
// step-controlled clock whose time only moves when the test advances it, so
// pool-wait expiries, backoff schedules, and deadline math are asserted exactly
// — no real sleeps, no flaky tolerances.
//
// The waiting model: components that park a thread until "time T or
// condition C" call Clock::WaitUntil with their own mutex (held), their own
// condition_variable (the one their writers notify), an absolute deadline in
// this clock's microseconds, and the predicate. MonotonicClock maps this to
// cv.wait_until; VirtualClock registers the waiter and wakes it when an
// Advance crosses the deadline (or the caller's cv is notified normally).
// This keeps the lost-wakeup window closed: VirtualClock::Advance locks each
// waiter's own mutex before notifying, so a waiter that has registered but
// not yet blocked cannot miss the wake.
#ifndef RC_SRC_COMMON_CLOCK_H_
#define RC_SRC_COMMON_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>

namespace rc::common {

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic microseconds since an arbitrary fixed epoch. Deadlines passed
  // to WaitUntil are absolute values on this same scale.
  virtual int64_t NowUs() const = 0;

  // Blocks the calling thread for `us` of this clock's time (<= 0 returns
  // immediately). Used by backoff paths that have no condition to watch.
  virtual void SleepUs(int64_t us) = 0;

  // Blocks until pred() is true or the clock reaches deadline_us. `lock`
  // must hold the caller's own mutex (the one guarding pred's state) on
  // entry and holds it again on return; pred is only evaluated under it.
  // `cv` must be the condition variable the caller's writers notify when
  // pred's inputs change — external notifies wake the wait early exactly as
  // with std::condition_variable::wait_until. Returns the final pred().
  virtual bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                         int64_t deadline_us, const std::function<bool()>& pred) = 0;
};

// Production clock: steady_clock, real sleeps, cv.wait_until.
class MonotonicClock final : public Clock {
 public:
  // Shared process-wide instance (the default everywhere a Clock* is null).
  static MonotonicClock* Instance();

  int64_t NowUs() const override;
  void SleepUs(int64_t us) override;
  bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                 int64_t deadline_us, const std::function<bool()>& pred) override;
};

// Test clock: time is a counter that moves only via AdvanceUs/AdvanceToUs
// (or, with auto_advance_on_sleep, via SleepUs itself — for code whose
// backoff naps run on the test's own thread and would otherwise deadlock
// waiting for an advance that can never come). Sleepers and WaitUntil
// waiters are woken deterministically when an advance crosses their
// deadline.
class VirtualClock final : public Clock {
 public:
  struct Options {
    int64_t start_us = 0;
    // SleepUs(n) advances the clock by n instead of blocking the caller.
    bool auto_advance_on_sleep = false;
  };
  VirtualClock();
  explicit VirtualClock(Options options);

  int64_t NowUs() const override;
  void SleepUs(int64_t us) override;
  bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                 int64_t deadline_us, const std::function<bool()>& pred) override;

  // Moves time forward and wakes every sleeper/waiter whose deadline was
  // reached (plus every WaitUntil waiter, which re-checks its predicate and
  // deadline and re-parks if neither is met). Advancing by <= 0 is a no-op.
  void AdvanceUs(int64_t us);
  void AdvanceToUs(int64_t deadline_us);  // no-op when already past

  // Threads currently blocked in SleepUs or WaitUntil on this clock. A test
  // that must advance only once the thread under test is provably parked
  // spins on this (or calls AwaitWaiters).
  size_t waiters() const;
  // Blocks (in real time — no virtual time passes) until waiters() >= n.
  void AwaitWaiters(size_t n);

  // Total microseconds spent (or skipped, in auto-advance mode) inside
  // SleepUs — lets tests assert a backoff schedule exactly.
  int64_t slept_us() const;

 private:
  struct Waiter {
    std::condition_variable* cv;
    std::mutex* mu;
  };

  Options options_;
  mutable std::mutex mu_;
  // Signals sleepers (time moved) and AwaitWaiters (waiter count changed).
  std::condition_variable clock_cv_;
  int64_t now_us_;
  int64_t slept_us_ = 0;
  size_t sleepers_ = 0;
  std::list<Waiter> waiters_;
};

}  // namespace rc::common

#endif  // RC_SRC_COMMON_CLOCK_H_
