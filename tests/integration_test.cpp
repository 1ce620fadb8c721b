// End-to-end tests across the whole stack: runtime + futures + stencil +
// metrics + simulator, plus failure-injection and lifecycle edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "async/gran.hpp"
#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "sim/sim_backend.hpp"
#include "stencil/futurized.hpp"
#include "stencil/serial.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

TEST(Integration, StencilMetricsPipelineNative) {
  // The full measurement loop the paper describes: run the benchmark,
  // read the counters, compute the metrics.
  thread_manager tm(test_config(2));
  stencil::params p;
  p.total_points = 100'000;
  p.partition_size = 2'000;
  p.time_steps = 10;

  tm.reset_counters();
  const auto run = stencil::run_futurized(tm, p);
  tm.wait_idle();  // drain the final tasks' accounting

  const auto totals = tm.counter_totals();
  core::run_measurement meas;
  meas.exec_time_s = run.elapsed_s;
  meas.cores = tm.num_workers();
  meas.tasks = totals.tasks_executed;
  meas.phases = totals.phases_executed;
  meas.exec_ns = static_cast<double>(totals.exec_ns);
  meas.func_ns = static_cast<double>(totals.func_ns);
  const auto m = core::compute_metrics(meas, 0.0);

  EXPECT_EQ(meas.tasks, p.num_tasks());
  EXPECT_GT(m.task_duration_ns, 0.0);
  EXPECT_GE(m.idle_rate, 0.0);
  EXPECT_LE(m.idle_rate, 1.0);
}

TEST(Integration, NativeAndSimBackendsAgreeOnShape) {
  // Same sweep through both backends: the *ordering* of fine vs. medium
  // grain must agree (fine-grained flood is slower than medium grain).
  stencil::params base;
  base.total_points = 200'000;
  base.time_steps = 10;
  const core::sweep_config cfg{{250, 20'000}, 2, false};

  core::native_backend native(base);
  core::granularity_experiment native_exp(native, cfg);
  const auto native_points = native_exp.run(2);

  sim::sim_backend sim_be("haswell", base);
  core::granularity_experiment sim_exp(sim_be, cfg);
  const auto sim_points = sim_exp.run(2);

  EXPECT_GT(native_points[0].exec_time_s.mean(), native_points[1].exec_time_s.mean());
  EXPECT_GT(sim_points[0].exec_time_s.mean(), sim_points[1].exec_time_s.mean());
}

TEST(Integration, ExceptionsFlowThroughDependencyTree) {
  thread_manager tm(test_config(2));
  // A dataflow tree where one leaf throws: the error must reach the root.
  auto ok = async([] { return 1; });
  auto bad = async([]() -> int { throw std::runtime_error("leaf failure"); });
  auto mid = dataflow(
      [](future<int>& a, future<int>& b) { return a.get() + b.get(); }, ok, bad);
  auto root =
      dataflow([](future<int>& m) { return m.get() * 2; }, mid);
  EXPECT_THROW(root.get(), std::runtime_error);
}

TEST(Integration, ManagersAreRestartable) {
  // Sequential managers in one process (the experiment driver's pattern:
  // one per core-count configuration).
  for (int round = 0; round < 3; ++round) {
    thread_manager tm(test_config(1 + round));
    std::atomic<int> done{0};
    for (int i = 0; i < 200; ++i) tm.spawn([&done] { ++done; });
    tm.wait_idle();
    EXPECT_EQ(done.load(), 200);
  }
}

TEST(Integration, TwoManagersCoexist) {
  // Cross-manager wakes route through task::owner().
  thread_manager a(test_config(1));
  thread_manager b(test_config(1));
  std::atomic<task*> waiter{nullptr};
  std::atomic<bool> woken{false};
  a.spawn([&] {
    this_task::prepare_suspend();
    waiter.store(this_task::current());
    this_task::commit_suspend();
    woken = true;
  });
  while (!waiter.load()) {
  }
  // Wake from a task of the *other* manager.
  b.spawn([&] { waiter.load()->owner()->wake(waiter.load()); });
  a.wait_idle();
  b.wait_idle();
  EXPECT_TRUE(woken.load());
}

TEST(Integration, HeavySuspensionChurn) {
  // Many tasks ping-ponging through a semaphore: exercises the
  // suspend/wake protocol under contention.
  thread_manager tm(test_config(4));
  counting_semaphore sem(1);
  std::atomic<long> critical{0};
  latch done(2'000);
  for (int i = 0; i < 2'000; ++i)
    tm.spawn([&] {
      sem.acquire();
      ++critical;
      sem.release();
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(critical.load(), 2'000);
}

TEST(Integration, StencilUnderEachPolicy) {
  for (const char* policy :
       {"priority-local-fifo", "static-fifo", "work-stealing-lifo",
        "channel-steal"}) {
    scheduler_config cfg = test_config(2);
    cfg.policy = policy;
    thread_manager tm(cfg);
    stencil::params p;
    p.total_points = 20'000;
    p.partition_size = 500;
    p.time_steps = 5;
    const auto run = stencil::run_futurized(tm, p);
    const auto serial = stencil::run_serial(p);
    ASSERT_EQ(run.state.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(run.state[i], serial[i]) << policy << " point " << i;
  }
}

TEST(Integration, SimMatchesPaperHeadlineClaims) {
  // The two selector claims of §IV on a simulated Haswell sweep: both rules
  // land within a modest factor of the optimum.
  stencil::params base;
  base.total_points = 4'000'000;
  base.time_steps = 20;
  sim::sim_backend backend("haswell", base);
  core::granularity_experiment exp(backend, {core::granularity_sweep(160, 4'000'000, 3), 1});
  const auto points = exp.run(28);

  const auto sel = core::idle_rate_threshold(points, 0.30);
  ASSERT_TRUE(sel.has_value());
  EXPECT_LT(sel->regret, 0.35) << "§IV-A: threshold pick within ~1/3 of optimum";

  const auto pq = core::pending_queue_minimum(points);
  EXPECT_LT(pq.regret, 0.35) << "§IV-E: queue-minimum pick within ~1/3 of optimum";
}


TEST(Integration, SuspendWakeProtocolHammer) {
  // Adversarial interleaving hunt: tasks repeatedly announce suspension
  // while an external thread fires wakes at them as fast as it can. Any
  // lost-wakeup or double-enqueue bug in the task state machine deadlocks
  // or corrupts this within a few thousand iterations.
  //
  // Teardown protocol (tasks must not be deleted while any waker may still
  // hold their pointer): after its rounds each task parks once more, then
  // spins on `gate` with yield() — it cannot terminate while gate is false.
  // The main thread joins the rogue waker, delivers one final controlled
  // wake to every task *before* opening the gate, and only then lets them
  // exit.
  thread_manager tm(test_config(2));
  constexpr int kTasks = 8, kRounds = 2'000;
  std::atomic<task*> slots[kTasks] = {};
  task* final_slots[kTasks] = {};
  std::atomic<bool> stop{false};
  std::atomic<bool> gate{false};
  std::atomic<int> rounds_finished{0};
  std::atomic<long> rounds_done{0};

  for (int i = 0; i < kTasks; ++i)
    tm.spawn([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        slots[i].store(this_task::current(), std::memory_order_release);
        this_task::suspend();
        rounds_done.fetch_add(1, std::memory_order_relaxed);
      }
      slots[i].store(nullptr, std::memory_order_release);
      // Announce before publishing, so main's final wake cannot land while
      // this task is still active and be lost.
      this_task::prepare_suspend();
      final_slots[i] = this_task::current();
      rounds_finished.fetch_add(1, std::memory_order_acq_rel);
      this_task::commit_suspend();  // woken by the rogue waker or by main below
      while (!gate.load(std::memory_order_acquire)) this_task::yield();
    });

  std::thread waker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (auto& slot : slots)
        if (task* t = slot.load(std::memory_order_acquire)) t->owner()->wake(t);
    }
  });

  while (rounds_finished.load(std::memory_order_acquire) < kTasks)
    std::this_thread::yield();
  stop = true;
  waker.join();
  // Single remaining wake source (this thread); tasks are all still alive.
  for (task* t : final_slots) tm.wake(t);
  gate.store(true, std::memory_order_release);
  tm.wait_idle();
  EXPECT_EQ(rounds_done.load(), static_cast<long>(kTasks) * kRounds);
}

TEST(Integration, LongDependencyChainsThroughRuntime) {
  thread_manager tm(test_config(2));
  future<long> f = make_ready_future<long>(0);
  for (int i = 0; i < 2'000; ++i)
    f = f.then([](future<long> prev) { return prev.get() + 1; });
  EXPECT_EQ(f.get(), 2'000);
}

}  // namespace
}  // namespace gran
