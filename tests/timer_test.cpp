// Tests for the cooperative timer service (sync/timer_service.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "async/gran.hpp"
#include "sync/timer_service.hpp"
#include "util/timer.hpp"

namespace gran {
namespace {

using namespace std::chrono_literals;

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

TEST(TimerService, TaskSleepsAtLeastTheDuration) {
  thread_manager tm(test_config(2));
  auto f = async([] {
    const auto t0 = std::chrono::steady_clock::now();
    this_task::sleep_for(30ms);
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  });
  EXPECT_GE(f.get(), 29);  // allow 1ms clock granularity slack
}

TEST(TimerService, WorkerStaysUsableWhileTaskSleeps) {
  // The whole point of cooperative sleep: one worker, a sleeping task, and
  // other tasks still make progress during the sleep.
  thread_manager tm(test_config(1));
  std::atomic<int> progressed{0};
  auto sleeper = async([&] {
    this_task::sleep_for(50ms);
    return progressed.load();
  });
  std::this_thread::sleep_for(5ms);  // let the sleeper park
  for (int i = 0; i < 100; ++i) tm.spawn([&progressed] { ++progressed; });
  // All 100 must run to completion *before* the sleeper returns.
  EXPECT_EQ(sleeper.get(), 100);
}

TEST(TimerService, MultipleSleepersWakeInDeadlineOrder) {
  thread_manager tm(test_config(2));
  std::atomic<int> order{0};
  std::atomic<int> pos_long{-1}, pos_short{-1};
  auto long_sleep = async([&] {
    this_task::sleep_for(60ms);
    pos_long = order++;
  });
  auto short_sleep = async([&] {
    this_task::sleep_for(15ms);
    pos_short = order++;
  });
  long_sleep.wait();
  short_sleep.wait();
  EXPECT_LT(pos_short.load(), pos_long.load());
}

// A stray wake (thread_manager::wake by anyone but the timer) of a sleeping
// task costs one re-check: the sleep still lasts its whole duration, and the
// timer's entry for the interrupted round never wakes the task after it
// retired (under ASan that wake reports use-after-poison in timer_main).
TEST(TimerService, StrayWakeDoesNotEndTheSleep) {
  thread_manager tm(test_config(2));
  std::atomic<task*> self{nullptr};
  std::atomic<std::int64_t> slept_ms{-1};
  tm.spawn([&] {
    self = this_task::current();
    const auto t0 = std::chrono::steady_clock::now();
    this_task::sleep_for(100ms);
    slept_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  });
  task* t = nullptr;
  while ((t = self.load()) == nullptr) std::this_thread::yield();
  while (t->state() != task_state::suspended) std::this_thread::yield();
  tm.wake(t);
  tm.wait_idle();
  EXPECT_GE(slept_ms.load(), 99);  // allow 1ms clock granularity slack
  // Past every deadline the sleep queued.
  std::this_thread::sleep_for(200ms);
}

TEST(TimerService, PastDeadlineReturnsImmediately) {
  thread_manager tm(test_config(1));
  auto f = async([] {
    stopwatch w;
    this_task::sleep_until(std::chrono::steady_clock::now() - 10ms);
    return w.elapsed_ns();
  });
  EXPECT_LT(f.get(), 20'000'000);  // well under 20ms: no actual parking
}

TEST(TimerService, ExternalThreadSleepIsPlainBlocking) {
  stopwatch w;
  timer_service::global().sleep_for(10ms);
  EXPECT_GE(w.elapsed_ns(), 9'000'000);
}

TEST(TimerService, ManyConcurrentSleepers) {
  thread_manager tm(test_config(4));
  std::atomic<int> woken{0};
  std::vector<future<void>> fs;
  for (int i = 0; i < 50; ++i)
    fs.push_back(async([&woken, i] {
      this_task::sleep_for(std::chrono::milliseconds(5 + i % 7));
      ++woken;
    }));
  when_all(fs).wait();
  EXPECT_EQ(woken.load(), 50);
  EXPECT_EQ(timer_service::global().pending(), 0u);
}


// --- timed future waits ---------------------------------------------------------

TEST(TimedFutureWait, TimeoutWhenNeverSet) {
  thread_manager tm(test_config(2));
  promise<int> p;
  future<int> f = p.get_future();
  // Inside a task (cooperative timed wait):
  auto task_result = async([f] { return f.wait_for(20ms); });
  EXPECT_EQ(task_result.get(), std::future_status::timeout);
  // From the external main thread:
  EXPECT_EQ(f.wait_for(10ms), std::future_status::timeout);
  p.set_value(1);  // cleanup
}

TEST(TimedFutureWait, ReadyBeforeDeadline) {
  thread_manager tm(test_config(2));
  promise<int> p;
  future<int> f = p.get_future();
  auto waiter = async([f] { return f.wait_for(500ms); });
  std::this_thread::sleep_for(10ms);
  p.set_value(42);
  EXPECT_EQ(waiter.get(), std::future_status::ready);
  EXPECT_EQ(f.get(), 42);
}

TEST(TimedFutureWait, AlreadyReadyReturnsImmediately) {
  thread_manager tm(test_config(1));
  auto f = make_ready_future<int>(7);
  stopwatch w;
  EXPECT_EQ(f.wait_for(1000ms), std::future_status::ready);
  EXPECT_LT(w.elapsed_ns(), 100'000'000);
}

TEST(TimedFutureWait, ExternalThreadReadyBeforeDeadline) {
  thread_manager tm(test_config(1));
  promise<int> p;
  future<int> f = p.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(15ms);
    p.set_value(5);
  });
  EXPECT_EQ(f.wait_for(2000ms), std::future_status::ready);
  setter.join();
}

TEST(TimedFutureWait, TimeoutThenValueStillUsable) {
  thread_manager tm(test_config(2));
  promise<int> p;
  future<int> f = p.get_future();
  auto r = async([f] {
    const auto first = f.wait_for(5ms);   // times out
    const int v = f.get();                // then blocks until the value
    return std::make_pair(first, v);
  });
  std::this_thread::sleep_for(30ms);
  p.set_value(9);
  const auto [status, value] = r.get();
  EXPECT_EQ(status, std::future_status::timeout);
  EXPECT_EQ(value, 9);
}

TEST(TimedFutureWait, StressRacingSettersAndDeadlines) {
  // Timer wake and value-set race each other across many iterations; any
  // stale waiter entry or ticket mishandling shows up as a hang or UAF
  // (run under ASan/TSan configurations too).
  thread_manager tm(test_config(2));
  for (int round = 0; round < 100; ++round) {
    promise<int> p;
    future<int> f = p.get_future();
    auto waiter = async([f] { return f.wait_for(std::chrono::microseconds(500)); });
    if (round % 2 == 0) p.set_value(round);
    const auto status = waiter.get();
    if (round % 2 == 0) {
      EXPECT_EQ(f.get(), round);
    } else {
      EXPECT_EQ(status, std::future_status::timeout);
      p.set_value(round);  // keep the state sane
    }
  }
}

}  // namespace
}  // namespace gran
