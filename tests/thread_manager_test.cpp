// Integration tests for the thread manager and the scheduling policies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "async/async.hpp"
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

// A pool whose starved workers go from spinning straight to the park
// check, with no OS-yield phase in between: on a loaded host each
// sched_yield can give away a whole time slice, so a worker in that phase
// probes as rarely as a parked one, for as long as a second.
scheduler_config no_yield_config(int workers, const std::string& policy) {
  scheduler_config cfg = test_config(workers, policy);
  cfg.idle_yield_limit = cfg.idle_spin_limit;
  return cfg;
}

// Pending-queue misses worker `w` makes in a 20 ms window. A worker that
// keeps searching makes hundreds of thousands; a parked one wakes every
// idle_park_us (2 ms) for one round of a few probes, under 100 in all.
std::uint64_t pending_misses_in_window(const thread_manager& tm, int w) {
  const auto misses = [&] { return tm.worker(w).counters.read(counter_event::pending_misses); };
  const std::uint64_t before = misses();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return misses() - before;
}
// Far above what a parked worker makes in that window and far below a
// searching one, even when a loaded host stretches the window.
constexpr std::uint64_t parked_misses_ceiling = 5000;

// True once every worker of `tm` stays parked through one window; false if
// that has not happened within 10 s.
bool pool_parks(const thread_manager& tm) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool parked = true;
    for (int w = 0; w < tm.num_workers() && parked; ++w)
      parked = pending_misses_in_window(tm, w) < parked_misses_ceiling;
    if (parked) return true;
  }
  return false;
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
    if (tm.worker(w).counters.read(counter_event::retired) > 0) ++active_workers;
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

// Counts the live copies of a task body: the last one dies when the runtime
// deletes the task. Dying takes a few microseconds, so a manager that
// counted a task retired before deleting it lets wait_idle return early.
struct body_token {
  std::atomic<int>* live;
  explicit body_token(std::atomic<int>& n) : live(&n) { live->fetch_add(1); }
  body_token(body_token&& o) noexcept : live(std::exchange(o.live, nullptr)) {}
  body_token(const body_token&) = delete;
  body_token& operator=(const body_token&) = delete;
  ~body_token() {
    if (live == nullptr) return;
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(5);
    while (std::chrono::steady_clock::now() < until) {
    }
    live->fetch_sub(1);
  }
};

// wait_idle() reads the per-worker liveness cells. Each task spawn_on()s its
// children onto workers other than its own, so a task's creation and its
// retirement land in different workers' cells; wait_idle must still return
// only once every task is done and deleted. A concurrent reader never sees
// more tasks alive than were spawned so far, so the sum never wraps.
TEST_P(PolicyParam, WaitIdleNeverReturnsWhileATaskIsAlive) {
  constexpr int workers = 4;
  constexpr int depth = 6;
  constexpr int tree = (1 << (depth + 1)) - 1;  // binary tree of tasks
  thread_manager tm(test_config(workers, GetParam()));
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<int> done{0};
  std::atomic<int> live{0};
  std::atomic<bool> reading{true};
  std::atomic<bool> over_spawned{false};
  std::thread reader([&] {
    while (reading.load()) {
      const std::uint64_t alive = tm.tasks_alive();
      if (alive > spawned.load()) over_spawned = true;
    }
  });
  std::function<void(int)> node = [&](int level) {
    if (level > 0) {
      const int me = this_task::worker_index();
      for (int c = 1; c <= 2; ++c) {
        spawned.fetch_add(1);
        tm.spawn_on((me + c) % workers,
                    [&node, level, token = body_token(live)] { node(level - 1); });
      }
    }
    done.fetch_add(1);
  };
  for (int round = 0; round < 200; ++round) {
    done = 0;
    spawned.fetch_add(1);
    tm.spawn([&node, token = body_token(live)] { node(depth); });
    tm.wait_idle();
    ASSERT_EQ(done.load(), tree) << GetParam() << " round " << round;
    ASSERT_EQ(live.load(), 0) << GetParam() << " round " << round;
    ASSERT_EQ(tm.tasks_alive(), 0u);
  }
  reading = false;
  reader.join();
  EXPECT_FALSE(over_spawned.load());
  EXPECT_EQ(spawned.load(), 200u * tree);
}

// Every way a task enters a queue (external and in-task spawns, a yield's
// re-enqueue, a wake from a future or from an external latch, each
// priority) adds one to the queued count and the start of its next phase
// takes one away, so a drained pool reads exactly zero, unclamped, and
// parks.
TEST_P(PolicyParam, DrainedPoolParksWithNothingCountedQueued) {
  thread_manager tm(no_yield_config(4, GetParam()));
  constexpr int roots = 200;
  const task_priority priorities[] = {task_priority::normal, task_priority::high,
                                      task_priority::low};
  std::atomic<long> sum{0};
  latch gate(1);
  std::thread external([&] {
    for (int i = 0; i < roots; ++i) {
      tm.spawn(
          [&tm, &sum, &gate, i] {
            auto child = async_on(tm, task_priority::normal, [i] {
              this_task::yield();
              return i;
            });
            this_task::yield();
            if (i % 4 == 0) gate.wait();
            sum.fetch_add(child.get());
            tm.spawn([&sum] { sum.fetch_add(1); }, task_priority::low);
          },
          priorities[i % 3]);
    }
    gate.count_down();
  });
  external.join();
  tm.wait_idle();
  EXPECT_EQ(sum.load(), roots * (roots - 1) / 2 + roots);
  EXPECT_TRUE(pool_parks(tm));
  EXPECT_EQ(tm.queued_tasks(), 0);
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
  // under every policy: both views read the same per-worker cells, and a
  // queue probe is counted in the cells of the worker that made it.
  for (const char* policy :
       {"priority-local-fifo", "static-fifo", "work-stealing-lifo", "channel-steal"}) {
    SCOPED_TRACE(policy);
    thread_manager tm(test_config(4, policy));
    auto& reg = perf::registry::instance();
    tm.reset_counters();
    constexpr int n = 400;
    for (int i = 0; i < n; ++i)
      tm.spawn(
          [] {
            volatile double x = 1.0;
            for (int k = 0; k < 5000; ++k) x = x * 1.0000001 + 0.1;
          },
          i % 8 == 0 ? task_priority::low : task_priority::normal);
    tm.wait_idle();
    // Idle workers keep probing until they are stopped; the registrations
    // live until the destructor.
    tm.stop();

    for (const char* name :
         {"count/cumulative", "count/cumulative-phases", "count/stolen",
          "count/stolen-local", "count/stolen-remote", "count/pending-accesses",
          "count/pending-misses"}) {
      const double aggregate = reg.value_or(std::string("/threads/") + name, -1);
      ASSERT_GE(aggregate, 0.0) << name;
      double sum = 0;
      for (int w = 0; w < tm.num_workers(); ++w)
        sum += reg.value_or("/threads{worker#" + std::to_string(w) + "}/" + name, 0);
      EXPECT_EQ(sum, aggregate) << name;
    }
    EXPECT_EQ(reg.value_or("/threads/count/cumulative", -1), static_cast<double>(n));
    EXPECT_GE(reg.value_or("/threads/count/pending-accesses", -1), static_cast<double>(n));

    // The locality split decomposes the steal count.
    const double stolen = reg.value_or("/threads/count/stolen", -1);
    const double local = reg.value_or("/threads/count/stolen-local", -1);
    const double remote = reg.value_or("/threads/count/stolen-remote", -1);
    EXPECT_EQ(local + remote, stolen);
  }
}

TEST(ThreadManager, ResetRacesNothing) {
  // reset_counters() stores into no cell a worker writes, so it may run
  // while the workers count: no reading wraps below zero, and the tasks
  // executed since a reset never exceed the tasks spawned so far.
  thread_manager tm(test_config(4));
  auto& reg = perf::registry::instance();
  constexpr std::uint64_t wrapped = std::uint64_t{1} << 62;
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<bool> done{false};

  std::thread resetter([&] {
    while (!done.load()) {
      tm.reset_counters();
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!done.load()) {
      const auto t = tm.counter_totals();
      const std::uint64_t so_far = spawned.load();
      EXPECT_LE(t.tasks_executed, so_far);
      for (const std::uint64_t v :
           {t.tasks_executed, t.phases_executed, t.exec_ns, t.func_ns, t.tasks_stolen,
            t.tasks_stolen_remote, t.tasks_converted, t.tasks_spawned,
            t.queues.pending_accesses, t.queues.pending_misses, t.queues.staged_accesses,
            t.queues.staged_misses})
        EXPECT_LT(v, wrapped);
      for (const auto& [name, value] : reg.query_all("/threads"))
        EXPECT_LT(value.value, static_cast<double>(wrapped)) << name;
    }
  });

  for (int i = 0; i < 20000; ++i) {
    spawned.fetch_add(1);
    tm.spawn([] {});
  }
  tm.wait_idle();
  done.store(true);
  resetter.join();
  reader.join();
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
  const char* none[] = {"prog"};
  const config::settings knobs = config::resolve({"GRAN_WORKERS=3"}, cli_args(1, none));
  {
    scheduler_config cfg;  // num_workers = 0 -> the knob wins
    cfg.pin_workers = false;
    thread_manager tm(with_knobs(cfg, knobs));
    EXPECT_EQ(tm.num_workers(), 3);
  }
  {
    // explicit config beats the knob
    thread_manager tm(with_knobs(test_config(2), knobs));
    EXPECT_EQ(tm.num_workers(), 2);
  }
}

// `queued` counts every policy's queues; `pending` and `staged` scan the
// dual queues, which only the two dual-queue policies fill.
TEST(ThreadManager, InstantaneousQueueGauges) {
  for (const std::string policy :
       {"priority-local-fifo", "static-fifo", "work-stealing-lifo", "channel-steal"}) {
    SCOPED_TRACE(policy);
    thread_manager tm(test_config(1, policy));
    auto& reg = perf::registry::instance();
    // Block the single worker, then queue work and observe the gauges. The
    // blocker spins on an OS-level yield: a cooperative wait would suspend
    // the task and free the worker to drain the queue under the test's feet.
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    tm.spawn([&] {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!started.load()) std::this_thread::yield();
    for (int i = 0; i < 10; ++i) tm.spawn([] {});
    EXPECT_GE(reg.value_or("/threads/count/instantaneous/queued", 0), 10.0);
    if (policy == "priority-local-fifo" || policy == "static-fifo") {
      const double in_dual_queues =
          reg.value_or("/threads/count/instantaneous/pending", 0) +
          reg.value_or("/threads/count/instantaneous/staged", 0);
      EXPECT_GE(in_dual_queues, 10.0);
    }
    release.store(true);
    tm.wait_idle();
    EXPECT_EQ(reg.value_or("/threads/count/instantaneous/alive", -1), 0.0);
  }
}

// Under static-fifo, which never steals, worker 1 idles while a task waits
// behind the one worker 0 is running. A worker parks only while the queued
// count reads zero, so worker 1 must keep searching (DESIGN.md decision 7).
TEST(ThreadManager, IdleWorkerDoesNotParkWhileATaskIsQueued) {
  thread_manager tm(no_yield_config(2, "static-fifo"));
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  tm.spawn_on(0, [&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<bool> ran{false};
  tm.spawn_on(0, [&ran] { ran.store(true); });
  // Past worker 1's spin phase (about 0.1 ms), to where a worker that saw
  // no queued work would park.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t misses = pending_misses_in_window(tm, 1);
  EXPECT_FALSE(ran.load());
  release.store(true);
  tm.wait_idle();
  EXPECT_GE(misses, parked_misses_ceiling) << "worker 1 parked beside a queued task";
}


TEST(ThreadManager, HeartbeatAndStallCountersRegistered) {
  thread_manager tm(test_config(2));
  auto& reg = perf::registry::instance();

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

// A phase in flight shows on its worker's liveness gauges: the running task's
// id, and an age that grows while the phase runs.
TEST(ThreadManager, RunningTaskGaugesFollowASpinningTask) {
  thread_manager tm(test_config(2));
  auto& reg = perf::registry::instance();
  std::atomic<int> worker{-1};
  std::atomic<std::uint64_t> id{0};
  std::atomic<bool> release{false};
  tm.spawn([&] {
    worker.store(this_task::worker_index());
    id.store(this_task::id());
    while (!release.load()) {
    }
  });
  while (id.load() == 0) std::this_thread::yield();
  const std::string inst =
      "/threads{worker#" + std::to_string(worker.load()) + "}/watchdog/";
  EXPECT_EQ(reg.value_or(inst + "running-task", -1), static_cast<double>(id.load()));
  const double first = reg.value_or(inst + "running-ns", -1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double second = reg.value_or(inst + "running-ns", -1);
  EXPECT_GT(first, 0.0);
  EXPECT_GT(second, first);
  EXPECT_EQ(reg.value_or(inst + "running-task", -1), static_cast<double>(id.load()));
  release.store(true);
  tm.wait_idle();
  EXPECT_EQ(reg.value_or(inst + "running-task", -1), 0.0);
  EXPECT_EQ(reg.value_or(inst + "running-ns", -1), 0.0);
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
