// Integration tests for the thread manager and the scheduling policies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "perf/heartbeat.hpp"
#include "sync/latch.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers, const std::string& policy = "priority-local-fifo") {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.policy = policy;
  cfg.pin_workers = false;  // the CI host is oversubscribed
  return cfg;
}

TEST(ThreadManager, RunsSpawnedTasks) {
  thread_manager tm(test_config(2));
  std::atomic<long> sum{0};
  for (int i = 0; i < 5000; ++i) tm.spawn([&sum, i] { sum += i; });
  tm.wait_idle();
  EXPECT_EQ(sum.load(), 4999L * 5000 / 2);
}

TEST(ThreadManager, CountsTasksAndPhases) {
  thread_manager tm(test_config(2));
  tm.reset_counters();
  for (int i = 0; i < 100; ++i) tm.spawn([] {});
  tm.wait_idle();
  const auto totals = tm.counter_totals();
  EXPECT_EQ(totals.tasks_executed, 100u);
  EXPECT_GE(totals.phases_executed, 100u);
  EXPECT_GE(totals.func_ns, totals.exec_ns);  // tfunc ⊇ texec
  EXPECT_EQ(tm.tasks_alive(), 0u);
}

TEST(ThreadManager, SpawnFromInsideTask) {
  thread_manager tm(test_config(2));
  std::atomic<int> done{0};
  tm.spawn([&] {
    for (int i = 0; i < 50; ++i)
      thread_manager::current()->spawn([&done] { ++done; });
  });
  tm.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadManager, YieldEndsPhase) {
  thread_manager tm(test_config(1));
  tm.reset_counters();
  tm.spawn([] {
    for (int i = 0; i < 4; ++i) this_task::yield();
  });
  tm.wait_idle();
  const auto totals = tm.counter_totals();
  EXPECT_EQ(totals.tasks_executed, 1u);
  EXPECT_EQ(totals.phases_executed, 5u);  // initial phase + 4 yields
}

TEST(ThreadManager, SuspendAndExternalWake) {
  thread_manager tm(test_config(2));
  std::atomic<task*> self{nullptr};
  std::atomic<bool> resumed{false};
  tm.spawn([&] {
    // Announce the suspension before publishing: a wake that lands while
    // the task is still active would otherwise be lost.
    this_task::prepare_suspend();
    self.store(this_task::current());
    this_task::commit_suspend();
    resumed.store(true);
  });
  while (self.load() == nullptr) {
  }
  tm.wake(self.load());
  tm.wait_idle();
  EXPECT_TRUE(resumed.load());
}

TEST(ThreadManager, ThisTaskIdentity) {
  thread_manager tm(test_config(1));
  std::atomic<std::uint64_t> observed_id{0};
  std::atomic<int> observed_worker{-2};
  const std::uint64_t id = tm.spawn([&] {
    observed_id = this_task::id();
    observed_worker = this_task::worker_index();
  });
  tm.wait_idle();
  EXPECT_EQ(observed_id.load(), id);
  EXPECT_EQ(observed_worker.load(), 0);
  EXPECT_EQ(this_task::current(), nullptr);     // outside any task
  EXPECT_EQ(this_task::worker_index(), -1);     // outside any worker
}

TEST(ThreadManager, WorkDistributionAcrossWorkers) {
  thread_manager tm(test_config(4));
  tm.reset_counters();
  latch gate(200);
  for (int i = 0; i < 200; ++i)
    tm.spawn([&gate] {
      // Enough work that stealing pays off even on one physical CPU.
      volatile double x = 1.0;
      for (int k = 0; k < 20000; ++k) x = x * 1.0000001 + 0.1;
      gate.count_down();
    });
  gate.wait();
  tm.wait_idle();
  // External spawns round-robin across workers: more than one worker must
  // have executed something.
  int active_workers = 0;
  for (int w = 0; w < tm.num_workers(); ++w)
    if (tm.worker(w).counters.tasks_executed.load() > 0) ++active_workers;
  EXPECT_GT(active_workers, 1);
}

TEST(ThreadManager, PrioritiesAllRun) {
  thread_manager tm(test_config(2));
  std::atomic<int> ran{0};
  tm.spawn([&] { ++ran; }, task_priority::high, "high");
  tm.spawn([&] { ++ran; }, task_priority::normal, "normal");
  tm.spawn([&] { ++ran; }, task_priority::low, "low");
  tm.wait_idle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadManager, LowPriorityRunsLast) {
  // One worker: a low-priority task spawned first must still run after the
  // normal-priority work that arrives later (low queue is drained only when
  // everything else is empty).
  thread_manager tm(test_config(1));
  std::vector<int> order;
  gran::latch done(3);
  // Hold the worker until all three are queued, or it may run the low task
  // before the normal ones arrive.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  tm.spawn([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  tm.spawn(
      [&] {
        order.push_back(0);  // low
        done.count_down();
      },
      task_priority::low);
  tm.spawn(
      [&] {
        order.push_back(1);
        done.count_down();
      },
      task_priority::normal);
  tm.spawn(
      [&] {
        order.push_back(2);
        done.count_down();
      },
      task_priority::normal);
  release.store(true);
  done.wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 0) << "low-priority task must run after normal ones";
}

class PolicyParam : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyParam, CorrectUnderEachPolicy) {
  thread_manager tm(test_config(3, GetParam()));
  EXPECT_STREQ(tm.policy().name(), GetParam());
  std::atomic<long> sum{0};
  for (int i = 0; i < 2000; ++i) tm.spawn([&sum, i] { sum += i; });
  tm.wait_idle();
  EXPECT_EQ(sum.load(), 1999L * 2000 / 2);
}

TEST_P(PolicyParam, SuspendWakeUnderEachPolicy) {
  thread_manager tm(test_config(2, GetParam()));
  std::atomic<task*> self{nullptr};
  std::atomic<bool> resumed{false};
  tm.spawn([&] {
    this_task::prepare_suspend();
    self.store(this_task::current());
    this_task::commit_suspend();
    resumed = true;
  });
  while (!self.load()) {
  }
  tm.wake(self.load());
  tm.wait_idle();
  EXPECT_TRUE(resumed.load());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyParam,
                         ::testing::Values("priority-local-fifo", "static-fifo",
                                           "work-stealing-lifo",
                                           "channel-steal"));

TEST(ThreadManager, UnknownPolicyThrows) {
  EXPECT_THROW(thread_manager tm(test_config(1, "no-such-policy")),
               std::invalid_argument);
}

TEST(ThreadManager, QueueCountersAdvance) {
  thread_manager tm(test_config(2));
  tm.reset_counters();
  for (int i = 0; i < 500; ++i) tm.spawn([] {});
  tm.wait_idle();
  const auto totals = tm.counter_totals();
  // Every task passes through a pending queue at least once.
  EXPECT_GE(totals.queues.pending_accesses, 500u);
  EXPECT_GE(totals.queues.staged_accesses, 1u);
  EXPECT_EQ(totals.tasks_converted, 500u);
}

TEST(ThreadManager, ResetCountersZeroes) {
  thread_manager tm(test_config(2));
  for (int i = 0; i < 50; ++i) tm.spawn([] {});
  tm.wait_idle();
  // Idle workers keep probing their queues (and counting the accesses)
  // until they are stopped.
  tm.stop();
  tm.reset_counters();
  const auto totals = tm.counter_totals();
  EXPECT_EQ(totals.tasks_executed, 0u);
  EXPECT_EQ(totals.queues.pending_accesses, 0u);
}

TEST(ThreadManager, PerfCountersRegistered) {
  thread_manager tm(test_config(2));
  auto& reg = perf::registry::instance();
  for (int i = 0; i < 100; ++i) tm.spawn([] {});
  tm.wait_idle();
  EXPECT_EQ(reg.value_or("/threads/count/cumulative", -1), 100.0);
  EXPECT_GE(reg.value_or("/threads/idle-rate", -1), 0.0);
  EXPECT_LE(reg.value_or("/threads/idle-rate", 2), 1.0);
  EXPECT_GE(reg.value_or("/threads{worker#0}/count/cumulative", -1), 0.0);
  EXPECT_FALSE(reg.list("/threads").empty());
}

TEST(ThreadManager, InstanceCountersSumToAggregate) {
  // The per-worker {worker#N} instances must decompose the aggregate exactly
  // — both views read the same per-worker atomics.
  thread_manager tm(test_config(4));
  auto& reg = perf::registry::instance();
  tm.reset_counters();
  constexpr int n = 400;
  for (int i = 0; i < n; ++i)
    tm.spawn([] {
      volatile double x = 1.0;
      for (int k = 0; k < 5000; ++k) x = x * 1.0000001 + 0.1;
    });
  tm.wait_idle();

  for (const char* name : {"count/cumulative", "count/stolen", "count/stolen-local",
                           "count/stolen-remote"}) {
    const double aggregate =
        reg.value_or(std::string("/threads/") + name, -1);
    ASSERT_GE(aggregate, 0.0) << name;
    double sum = 0;
    for (int w = 0; w < tm.num_workers(); ++w)
      sum += reg.value_or(
          "/threads{worker#" + std::to_string(w) + "}/" + name, 0);
    EXPECT_EQ(sum, aggregate) << name;
  }
  EXPECT_EQ(reg.value_or("/threads/count/cumulative", -1),
            static_cast<double>(n));

  // The locality split decomposes the steal count.
  const double stolen = reg.value_or("/threads/count/stolen", -1);
  const double local = reg.value_or("/threads/count/stolen-local", -1);
  const double remote = reg.value_or("/threads/count/stolen-remote", -1);
  EXPECT_EQ(local + remote, stolen);
}

TEST(ThreadManager, PinPlanExposedAndNoRejectedPins) {
  // test_config disables pinning, so the plan leaves every worker unpinned
  // and no pin can have been rejected.
  thread_manager tm(test_config(3));
  const auto& plan = tm.plan();
  EXPECT_FALSE(plan.pinned());
  ASSERT_EQ(plan.workers.size(), 3u);
  for (const auto& a : plan.workers) {
    EXPECT_EQ(a.cpu, -1);
    EXPECT_GE(a.domain, 0);
  }
  EXPECT_EQ(tm.pins_rejected(), 0u);
  auto& reg = perf::registry::instance();
  EXPECT_EQ(reg.value_or("/threads/count/pin-rejected", -1), 0.0);
}

TEST(ThreadManager, TaskDurationHistogramCounters) {
  thread_manager tm(test_config(2));
  auto& reg = perf::registry::instance();
  tm.reset_counters();
  constexpr int n = 200;
  for (int i = 0; i < n; ++i)
    tm.spawn([] {
      volatile double x = 1.0;
      for (int k = 0; k < 2000; ++k) x = x * 1.0000001 + 0.1;
    });
  tm.wait_idle();

  EXPECT_EQ(reg.value_or("/threads/histogram/task-duration/count", -1),
            static_cast<double>(n));
  const double p50 = reg.value_or("/threads/histogram/task-duration/p50", -1);
  const double p95 = reg.value_or("/threads/histogram/task-duration/p95", -1);
  const double p99 = reg.value_or("/threads/histogram/task-duration/p99", -1);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(reg.value_or("/threads/histogram/task-duration/mean", -1), 0.0);
  // Overhead histogram records inter-phase gaps: at least one sample once
  // more than one task ran on a worker.
  EXPECT_GT(reg.value_or("/threads/histogram/task-overhead/count", -1), 0.0);

  // Per-worker instances exist and their sample counts decompose the total.
  double inst_count = 0;
  for (int w = 0; w < tm.num_workers(); ++w)
    inst_count += reg.value_or(
        "/threads{worker#" + std::to_string(w) + "}/histogram/task-duration/count", 0);
  EXPECT_EQ(inst_count, static_cast<double>(n));
}

TEST(ThreadManager, CountersUnregisteredAfterDestruction) {
  {
    thread_manager tm(test_config(1));
    EXPECT_FALSE(perf::registry::instance().list("/threads").empty());
  }
  EXPECT_TRUE(perf::registry::instance().list("/threads").empty());
}

TEST(ThreadManager, DefaultManagerLifecycle) {
  EXPECT_EQ(default_manager(), nullptr);
  {
    thread_manager tm(test_config(1));
    EXPECT_EQ(default_manager(), &tm);
    EXPECT_EQ(&resolve_manager(), &tm);
  }
  EXPECT_EQ(default_manager(), nullptr);
}

TEST(ThreadManager, DrainsOnDestruction) {
  std::atomic<int> done{0};
  {
    thread_manager tm(test_config(2));
    for (int i = 0; i < 1000; ++i) tm.spawn([&done] { ++done; });
    // No wait_idle: the destructor must drain everything.
  }
  EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadManager, OversubscribedWorkers) {
  // More workers than physical CPUs must still be correct (the CI host has
  // one CPU, so every multi-worker test already oversubscribes; make it
  // explicit and bigger here).
  thread_manager tm(test_config(8));
  std::atomic<long> sum{0};
  for (int i = 0; i < 3000; ++i) tm.spawn([&sum] { ++sum; });
  tm.wait_idle();
  EXPECT_EQ(sum.load(), 3000);
}

TEST(ThreadManager, HighPriorityQueueConfig) {
  scheduler_config cfg = test_config(4);
  cfg.high_priority_queues = 2;
  thread_manager tm(cfg);
  EXPECT_TRUE(tm.worker(0).owns_high_queue);
  EXPECT_TRUE(tm.worker(1).owns_high_queue);
  EXPECT_FALSE(tm.worker(2).owns_high_queue);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) tm.spawn([&ran] { ++ran; }, task_priority::high);
  tm.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}


TEST(ThreadManager, HighPriorityRunsBeforeQueuedNormal) {
  // One worker, briefly blocked: queue normal work first, then a high-
  // priority task. The high-priority dual queue is searched first, so the
  // high task must run before the queued normal ones.
  thread_manager tm(test_config(1));
  gran::latch all_done(4);
  std::vector<int> order;
  // Hold the worker's OS thread until everything is queued. A gran::latch
  // wait would suspend the task and free the worker to run the first
  // normal task as soon as it is spawned.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  tm.spawn([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i)
    tm.spawn(
        [&order, &all_done, i] {
          order.push_back(i);  // single worker: no race
          all_done.count_down();
        },
        task_priority::normal);
  tm.spawn(
      [&order, &all_done] {
        order.push_back(100);
        all_done.count_down();
      },
      task_priority::high);
  release.store(true);
  all_done.wait();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 100) << "high-priority task must run first";
}


TEST(ThreadManager, GranWorkersEnvDefault) {
  ::setenv("GRAN_WORKERS", "3", 1);
  {
    scheduler_config cfg;  // num_workers = 0 -> env wins
    cfg.pin_workers = false;
    thread_manager tm(cfg);
    EXPECT_EQ(tm.num_workers(), 3);
  }
  {
    scheduler_config cfg = test_config(2);  // explicit config beats env
    thread_manager tm(cfg);
    EXPECT_EQ(tm.num_workers(), 2);
  }
  ::unsetenv("GRAN_WORKERS");
}

TEST(ThreadManager, InstantaneousQueueGauges) {
  thread_manager tm(test_config(1));
  auto& reg = perf::registry::instance();
  // Block the single worker, then queue work and observe the gauges. The
  // blocker spins on an OS-level yield: a cooperative wait would suspend the
  // task and free the worker to drain the queue under the test's feet.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  tm.spawn([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 10; ++i) tm.spawn([] {});
  const double queued =
      reg.value_or("/threads/count/instantaneous/pending", 0) +
      reg.value_or("/threads/count/instantaneous/staged", 0);
  EXPECT_GE(queued, 10.0);
  release.store(true);
  tm.wait_idle();
  EXPECT_EQ(reg.value_or("/threads/count/instantaneous/alive", -1), 0.0);
}


TEST(ThreadManager, HeartbeatCountersAndBoardAttached) {
  thread_manager tm(test_config(2));
  auto& reg = perf::registry::instance();
  EXPECT_EQ(perf::heartbeat_board::instance().active_workers(), 2);

  for (int i = 0; i < 200; ++i)
    tm.spawn([] {
      volatile double x = 1.0;
      for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 0.1;
    });
  tm.wait_idle();

  // Workers just finished a scheduler round: every heartbeat is recent and
  // the max-age gauge reflects the staleness of the oldest one.
  const double max_age = reg.value_or("/threads/watchdog/heartbeat-age-max-ns", -1);
  EXPECT_GE(max_age, 0.0);
  EXPECT_LT(max_age, 5e9);
  for (int w = 0; w < tm.num_workers(); ++w) {
    const double age = reg.value_or(
        "/threads{worker#" + std::to_string(w) + "}/watchdog/heartbeat-age-ns", -2);
    EXPECT_GE(age, 0.0) << "worker " << w;
  }

  // Stall counters are registered (and, in a healthy run, untouched since
  // the last reset).
  EXPECT_GE(reg.value_or("/threads/count/stall-stuck", -1), 0.0);
  EXPECT_GE(reg.value_or("/threads/count/stall-starved", -1), 0.0);
  EXPECT_GE(reg.value_or("/threads/count/stall-flatline", -1), 0.0);
  // The starving gauge exists; after the drain the idle workers report as
  // starving (no work to find), so it reads in [0, num_workers].
  const double starving = reg.value_or("/threads/count/instantaneous/starving", -1);
  EXPECT_GE(starving, 0.0);
  EXPECT_LE(starving, static_cast<double>(tm.num_workers()));
}

TEST(ThreadManager, HeartbeatBoardDetachedAfterStop) {
  {
    thread_manager tm(test_config(2));
    EXPECT_EQ(perf::heartbeat_board::instance().active_workers(), 2);
  }
  EXPECT_EQ(perf::heartbeat_board::instance().active_workers(), 0);
}

TEST(ThreadManager, SpawnMoveOnlyBody) {
  thread_manager tm(test_config(2));
  auto payload = std::make_unique<int>(17);
  std::atomic<int> seen{0};
  tm.spawn([p = std::move(payload), &seen] { seen = *p; });
  tm.wait_idle();
  EXPECT_EQ(seen.load(), 17);
}

TEST(ThreadManager, StressManySmallTasks) {
  thread_manager tm(test_config(4));
  std::atomic<long> sum{0};
  constexpr int n = 50'000;
  for (int i = 0; i < n; ++i) tm.spawn([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
  tm.wait_idle();
  EXPECT_EQ(sum.load(), n);
}

}  // namespace
}  // namespace gran
