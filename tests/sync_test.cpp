// Tests for the cooperative synchronization primitives (src/sync): the
// block_until wait loop, mutex, condition_variable, latch, barrier,
// semaphore, event, channel — exercised from tasks, from external threads,
// and mixed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "async/gran.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// Spins until `t` (blocked in a primitive) has switched away.
void await_suspended(const task* t) {
  while (t->state() != task_state::suspended) std::this_thread::yield();
}

// Runs `body` in a task on `tm` and returns that task once it has blocked.
template <typename Body>
task* spawn_and_block(thread_manager& tm, Body body) {
  std::atomic<task*> self{nullptr};
  tm.spawn([&self, body] {
    self = this_task::current();
    body();
  });
  task* t = nullptr;
  while ((t = self.load()) == nullptr) std::this_thread::yield();
  await_suspended(t);
  return t;
}

// --- block_until -------------------------------------------------------------

// A stray wake (thread_manager::wake by someone other than the primitive)
// costs one re-check: the waiter neither returns early nor stays queued
// twice, and its real release leaves the queue empty.
TEST(BlockUntil, StrayWakeRechecksWithoutQueueingTwice) {
  thread_manager tm(test_config(2));
  spinlock guard;
  wait_queue q;
  bool ready = false;
  std::atomic<int> checks{0};
  std::atomic<bool> returned{false};
  const auto queued = [&] {
    guard.lock();
    const std::size_t n = q.size();
    guard.unlock();
    return n;
  };

  task* t = spawn_and_block(tm, [&] {
    block_until(guard, q, [&] {
      ++checks;
      return ready;
    });
    returned = true;
  });
  EXPECT_EQ(checks.load(), 1);
  tm.wake(t);  // stray: the task's entry is still queued
  await_suspended(t);
  EXPECT_EQ(checks.load(), 2);
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(queued(), 1u);

  guard.lock();
  ready = true;
  wait_queue to_wake = q.detach_all();
  guard.unlock();
  to_wake.dispatch_all();
  tm.wait_idle();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(queued(), 0u);
}

// The same stray wake on a semaphore: the task takes one permit, and a later
// release finds no stale entry to wake (the task is gone by then).
TEST(BlockUntil, StrayWakeLeavesNoStaleSemaphoreEntry) {
  thread_manager tm(test_config(2));
  counting_semaphore sem(0);
  task* t = spawn_and_block(tm, [&sem] { sem.acquire(); });
  tm.wake(t);
  await_suspended(t);
  sem.release(1);
  tm.wait_idle();
  sem.release(1);
  EXPECT_EQ(sem.value(), 1);
}

// --- mutex -------------------------------------------------------------------

TEST(Mutex, MutualExclusionAmongTasks) {
  thread_manager tm(test_config(4));
  gran::mutex m;
  long counter = 0;
  latch done(2000);
  for (int i = 0; i < 2000; ++i)
    tm.spawn([&] {
      std::lock_guard<gran::mutex> lock(m);
      ++counter;  // data race unless the mutex works
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(counter, 2000);
}

TEST(Mutex, TryLock) {
  thread_manager tm(test_config(1));
  gran::mutex m;
  EXPECT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(Mutex, ExternalThreadCanBlock) {
  thread_manager tm(test_config(2));
  gran::mutex m;
  std::atomic<bool> task_has_lock{false};
  std::atomic<bool> task_release{false};
  tm.spawn([&] {
    m.lock();
    task_has_lock = true;
    while (!task_release) this_task::yield();
    m.unlock();
  });
  while (!task_has_lock) {
  }
  std::atomic<bool> external_acquired{false};
  std::thread external([&] {
    m.lock();  // blocks as an external waiter
    external_acquired = true;
    m.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(external_acquired.load());
  task_release = true;
  external.join();
  EXPECT_TRUE(external_acquired.load());
  tm.wait_idle();
}

// --- condition_variable --------------------------------------------------------

TEST(ConditionVariable, PredicateWait) {
  thread_manager tm(test_config(2));
  gran::mutex m;
  gran::condition_variable cv;
  int stage = 0;
  auto waiter = async([&] {
    std::unique_lock<gran::mutex> lock(m);
    cv.wait(lock, [&] { return stage == 2; });
    return stage;
  });
  auto setter = async([&] {
    {
      std::unique_lock<gran::mutex> lock(m);
      stage = 1;
    }
    cv.notify_all();  // waiter's predicate still false: must keep waiting
    {
      std::unique_lock<gran::mutex> lock(m);
      stage = 2;
    }
    cv.notify_all();
    return 0;
  });
  EXPECT_EQ(waiter.get(), 2);
  setter.get();
}

TEST(ConditionVariable, NotifyOneWakesExactlyOneEventually) {
  thread_manager tm(test_config(2));
  gran::mutex m;
  gran::condition_variable cv;
  int ready = 0;
  std::atomic<int> woken{0};
  latch done(3);
  for (int i = 0; i < 3; ++i)
    tm.spawn([&] {
      std::unique_lock<gran::mutex> lock(m);
      cv.wait(lock, [&] { return ready > 0; });
      --ready;
      ++woken;
      done.count_down();
    });
  for (int i = 0; i < 3; ++i) {
    {
      std::unique_lock<gran::mutex> lock(m);
      ++ready;
    }
    cv.notify_one();
  }
  // Stragglers may need further nudges if a notified waiter consumed two
  // tokens' worth of predicate; notify_all resolves the remainder safely.
  cv.notify_all();
  done.wait();
  EXPECT_EQ(woken.load(), 3);
}

TEST(ConditionVariable, ExternalWaiter) {
  thread_manager tm(test_config(1));
  gran::mutex m;
  gran::condition_variable cv;
  bool flag = false;
  std::thread external([&] {
    std::unique_lock<gran::mutex> lock(m);
    cv.wait(lock, [&] { return flag; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    std::unique_lock<gran::mutex> lock(m);
    flag = true;
  }
  cv.notify_all();
  external.join();
  SUCCEED();
}

// A stray wake ends one cv wait (a spurious wake its contract allows), and
// the predicate loop waits again with one entry queued, not two: a later
// notify finds no stale entry naming the retired task.
TEST(ConditionVariable, StrayWakeLeavesNoStaleEntry) {
  thread_manager tm(test_config(2));
  gran::mutex m;
  condition_variable cv;
  bool go = false;
  task* t = spawn_and_block(tm, [&] {
    std::unique_lock<gran::mutex> lock(m);
    cv.wait(lock, [&] { return go; });
  });
  tm.wake(t);
  await_suspended(t);
  {
    std::lock_guard<gran::mutex> lock(m);
    go = true;
  }
  cv.notify_one();
  tm.wait_idle();
  cv.notify_one();
  SUCCEED();
}

// --- latch ---------------------------------------------------------------------

TEST(Latch, BasicCountdown) {
  thread_manager tm(test_config(2));
  latch l(10);
  EXPECT_FALSE(l.try_wait());
  for (int i = 0; i < 10; ++i) tm.spawn([&l] { l.count_down(); });
  l.wait();  // external wait
  EXPECT_TRUE(l.try_wait());
  l.wait();  // waiting on a released latch returns immediately
}

TEST(Latch, WaitFromTask) {
  thread_manager tm(test_config(2));
  latch l(3);
  std::atomic<bool> joined{false};
  tm.spawn([&] {
    l.wait();  // suspends the task, not the worker
    joined = true;
  });
  for (int i = 0; i < 3; ++i) tm.spawn([&l] { l.count_down(); });
  tm.wait_idle();
  EXPECT_TRUE(joined.load());
}

TEST(Latch, ArriveAndWait) {
  thread_manager tm(test_config(3));
  latch l(3);
  std::atomic<int> after{0};
  for (int i = 0; i < 3; ++i)
    tm.spawn([&] {
      l.arrive_and_wait();
      ++after;
    });
  tm.wait_idle();
  EXPECT_EQ(after.load(), 3);
}

TEST(Latch, MultiCount) {
  latch l(5);
  l.count_down(3);
  EXPECT_FALSE(l.try_wait());
  l.count_down(2);
  EXPECT_TRUE(l.try_wait());
}

// --- barrier --------------------------------------------------------------------

TEST(Barrier, PhasesSynchronize) {
  thread_manager tm(test_config(3));
  constexpr int parties = 3, rounds = 5;
  barrier b(parties);
  std::atomic<int> phase_counts[rounds] = {};
  latch done(parties);
  for (int p = 0; p < parties; ++p)
    tm.spawn([&] {
      for (int r = 0; r < rounds; ++r) {
        ++phase_counts[r];
        b.arrive_and_wait();
        // After the barrier, everyone must have arrived at round r.
        EXPECT_EQ(phase_counts[r].load(), parties);
      }
      done.count_down();
    });
  done.wait();
}

TEST(Barrier, CompletionFunctionRuns) {
  thread_manager tm(test_config(2));
  std::atomic<int> completions{0};
  barrier b(2, [&] { ++completions; });
  latch done(2);
  for (int p = 0; p < 2; ++p)
    tm.spawn([&] {
      for (int r = 0; r < 3; ++r) b.arrive_and_wait();
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(completions.load(), 3);
}

TEST(Barrier, ArriveAndDrop) {
  thread_manager tm(test_config(2));
  barrier b(2);
  std::atomic<bool> alone_passed{false};
  tm.spawn([&] {
    b.arrive_and_wait();  // phase 1 with the dropper
    b.arrive_and_wait();  // now expected == 1: passes alone
    alone_passed = true;
  });
  tm.spawn([&] {
    b.arrive_and_wait();  // phase 1
    b.arrive_and_drop();  // leaves
  });
  tm.wait_idle();
  EXPECT_TRUE(alone_passed.load());
  EXPECT_EQ(b.expected(), 1);
}

// --- semaphore ------------------------------------------------------------------

TEST(Semaphore, LimitsConcurrency) {
  thread_manager tm(test_config(4));
  counting_semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  latch done(50);
  for (int i = 0; i < 50; ++i)
    tm.spawn([&] {
      sem.acquire();
      const int now = ++inside;
      int expected = max_inside.load();
      while (now > expected && !max_inside.compare_exchange_weak(expected, now)) {
      }
      this_task::yield();  // give others a chance to pile up
      --inside;
      sem.release();
      done.count_down();
    });
  done.wait();
  EXPECT_LE(max_inside.load(), 2);
  EXPECT_EQ(sem.value(), 2);
}

TEST(Semaphore, TryAcquire) {
  counting_semaphore sem(1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Semaphore, ReleaseMany) {
  thread_manager tm(test_config(2));
  counting_semaphore sem(0);
  std::atomic<int> acquired{0};
  latch done(5);
  for (int i = 0; i < 5; ++i)
    tm.spawn([&] {
      sem.acquire();
      ++acquired;
      done.count_down();
    });
  sem.release(5);
  done.wait();
  EXPECT_EQ(acquired.load(), 5);
  EXPECT_EQ(sem.value(), 0);
}

// --- event ----------------------------------------------------------------------

TEST(Event, SetReleasesAllWaiters) {
  thread_manager tm(test_config(2));
  event e;
  std::atomic<int> released{0};
  latch done(4);
  for (int i = 0; i < 4; ++i)
    tm.spawn([&] {
      e.wait();
      ++released;
      done.count_down();
    });
  EXPECT_EQ(released.load(), 0);
  e.set();
  done.wait();
  EXPECT_EQ(released.load(), 4);
  EXPECT_TRUE(e.is_set());
}

TEST(Event, WaitAfterSetReturnsImmediately) {
  thread_manager tm(test_config(1));
  event e;
  e.set();
  e.wait();  // external, already set
  std::atomic<bool> ran{false};
  tm.spawn([&] {
    e.wait();
    ran = true;
  });
  tm.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(Event, Reset) {
  event e;
  e.set();
  EXPECT_TRUE(e.is_set());
  e.reset();
  EXPECT_FALSE(e.is_set());
}

// --- channel --------------------------------------------------------------------

TEST(Channel, OrderedDelivery) {
  thread_manager tm(test_config(2));
  channel<int> ch(8);
  auto producer = async([&] {
    for (int i = 0; i < 100; ++i) ch.send(i);
    ch.close();
    return 0;
  });
  auto consumer = async([&] {
    int expected = 0;
    while (auto v = ch.recv()) EXPECT_EQ(*v, expected++);
    return expected;
  });
  EXPECT_EQ(consumer.get(), 100);
  producer.get();
}

TEST(Channel, BackpressureBlocksSender) {
  thread_manager tm(test_config(2));
  channel<int> ch(2);
  std::atomic<int> sent{0};
  tm.spawn([&] {
    for (int i = 0; i < 10; ++i) {
      ch.send(i);
      ++sent;
    }
  });
  // Without a consumer the sender can get at most capacity items in.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(sent.load(), 3);
  int received = 0;
  while (received < 10) {
    ASSERT_TRUE(ch.recv().has_value());
    ++received;
  }
  tm.wait_idle();
  EXPECT_EQ(sent.load(), 10);
}

TEST(Channel, CloseUnblocksEveryone) {
  thread_manager tm(test_config(2));
  channel<int> ch(1);
  auto r1 = async([&] { return ch.recv().has_value(); });
  auto r2 = async([&] { return ch.recv().has_value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.close();
  EXPECT_FALSE(r1.get());
  EXPECT_FALSE(r2.get());
  EXPECT_FALSE(ch.send(1));  // closed channel rejects sends
}

TEST(Channel, DrainAfterClose) {
  thread_manager tm(test_config(1));
  channel<int> ch(8);
  ch.send(1);
  ch.send(2);
  ch.close();
  EXPECT_EQ(ch.recv().value(), 1);
  EXPECT_EQ(ch.recv().value(), 2);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(Channel, TrySendTryRecv) {
  thread_manager tm(test_config(1));
  channel<int> ch(1);
  EXPECT_FALSE(ch.try_recv().has_value());
  EXPECT_TRUE(ch.try_send(7));
  EXPECT_FALSE(ch.try_send(8));  // full
  EXPECT_EQ(ch.try_recv().value(), 7);
}

TEST(Channel, ManyProducersManyConsumers) {
  thread_manager tm(test_config(4));
  channel<int> ch(16);
  constexpr int producers = 4, per = 500;
  std::atomic<long> total{0};
  std::atomic<int> producers_left{producers};
  latch done(producers + 3);
  for (int p = 0; p < producers; ++p)
    tm.spawn([&] {
      for (int i = 1; i <= per; ++i) ch.send(i);
      if (--producers_left == 0) ch.close();
      done.count_down();
    });
  for (int c = 0; c < 3; ++c)
    tm.spawn([&] {
      while (auto v = ch.recv()) total += *v;
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(total.load(), static_cast<long>(producers) * per * (per + 1) / 2);
}

}  // namespace
}  // namespace gran
