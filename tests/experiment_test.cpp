// Tests for the experiment driver (core/experiment.hpp): the sweep method
// itself on a fake backend, then both real backends through it.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "sim/sim_backend.hpp"

namespace gran::core {
namespace {

// No runtime, no simulator: replays scripted measurements per (x, cores)
// and counts the runs it was asked for.
class fake_backend final : public backend {
 public:
  std::string name() const override { return "fake"; }
  run_result run(double x, int cores) override {
    ++runs[{x, cores}];
    auto& script = scripts[x];
    run_result r;
    r.x = x;
    r.tasks = 10;
    r.m = script.empty() ? run_measurement{} : script[(runs[{x, cores}] - 1) % script.size()];
    r.m.cores = cores;
    return r;
  }

  std::map<double, std::vector<run_measurement>> scripts;
  std::map<std::pair<double, int>, int> runs;
};

run_measurement meas(double exec_time_s, std::uint64_t tasks, double exec_ns, double func_ns,
                     std::uint64_t pending = 0) {
  run_measurement m;
  m.exec_time_s = exec_time_s;
  m.tasks = tasks;
  m.exec_ns = exec_ns;
  m.func_ns = func_ns;
  m.pending_accesses = pending;
  return m;
}

TEST(ExperimentDriver, AveragesCountsNotRatios) {
  // Two samples: idle-rate 10% on 100 ns of func time, 90% on 1000 ns.
  // Eq. 1 over the averaged counts is (1100 - 190) / 1100; the mean of the
  // per-sample ratios would be 50%.
  fake_backend b;
  b.scripts[1'000] = {meas(1.0, 10, 90, 100), meas(3.0, 30, 100, 1'000)};
  granularity_experiment exp(b, {{1'000}, 2, false});
  const auto points = exp.run(4);

  ASSERT_EQ(points.size(), 1u);
  const sweep_point& p = points[0];
  EXPECT_DOUBLE_EQ(p.m.idle_rate, (1'100.0 - 190.0) / 1'100.0);
  EXPECT_EQ(p.mean.tasks, 20u);
  EXPECT_DOUBLE_EQ(p.m.task_duration_ns, 95.0 / 20.0);
  EXPECT_DOUBLE_EQ(p.m.task_overhead_ns, 455.0 / 20.0);
  EXPECT_EQ(p.mean.cores, 4);
  EXPECT_DOUBLE_EQ(p.exec_time_s.mean(), 2.0);
  EXPECT_GT(p.cov, 0.0);
  EXPECT_EQ(b.runs.size(), 1u) << "no 1-core pass when measure_baseline is off";
}

TEST(ExperimentDriver, BaselineMeasuredOnceAndReusedAcrossCoreCounts) {
  fake_backend b;
  b.scripts[500] = {meas(1.0, 10, 1'000, 1'100)};
  b.scripts[5'000] = {meas(1.0, 10, 10'000, 10'500)};
  granularity_experiment exp(b, {{500, 5'000}, 1});
  const auto four = exp.run(4);
  const auto eight = exp.run(8);

  EXPECT_EQ((b.runs[{500, 1}]), 1);
  EXPECT_EQ((b.runs[{5'000, 1}]), 1);
  for (const auto* sweep : {&four, &eight}) {
    EXPECT_DOUBLE_EQ((*sweep)[0].td1_ns, 100.0);
    EXPECT_DOUBLE_EQ((*sweep)[1].td1_ns, 1'000.0);
  }
  EXPECT_EQ(eight[0].cores, 8);
}

TEST(ExperimentDriver, BaselineSkippedWhenDisabled) {
  fake_backend b;
  b.scripts[5'000] = {meas(1.0, 10, 10'000, 10'500)};
  granularity_experiment exp(b, {{5'000}, 1, false});
  const auto points = exp.run(4);
  EXPECT_EQ(points[0].td1_ns, 0.0);
  EXPECT_EQ(points[0].m.wait_time_s, 0.0);
  EXPECT_EQ((b.runs[{5'000, 1}]), 0);
}

TEST(ExperimentDriver, SelectorsOnAGrainAxis) {
  // Grains in ns. Fastest at 10 us; idle-rate first <= 30% at 3 us; fewest
  // pending-queue accesses at 30 us.
  fake_backend b;
  b.scripts[1'000] = {meas(4.0, 10, 50, 100, 900)};
  b.scripts[3'000] = {meas(2.0, 10, 80, 100, 500)};
  b.scripts[10'000] = {meas(1.0, 10, 95, 100, 300)};
  b.scripts[30'000] = {meas(1.5, 10, 60, 100, 100)};
  granularity_experiment exp(b, {{1'000, 3'000, 10'000, 30'000}, 1, false});
  const auto points = exp.run(8);

  const selection best = best_exec_time(points);
  EXPECT_EQ(best.x, 10'000.0);
  EXPECT_EQ(best.index, 2u);
  EXPECT_EQ(best.regret, 0.0);

  const auto by_idle = idle_rate_threshold(points, 0.30);
  ASSERT_TRUE(by_idle.has_value());
  EXPECT_EQ(by_idle->x, 3'000.0);
  EXPECT_DOUBLE_EQ(by_idle->regret, 1.0);
  EXPECT_FALSE(idle_rate_threshold(points, 0.01).has_value());

  const selection by_queue = pending_queue_minimum(points);
  EXPECT_EQ(by_queue.x, 30'000.0);
  EXPECT_DOUBLE_EQ(by_queue.regret, 0.5);
}

// --- the real backends through the driver -----------------------------------

stencil::params grid(std::size_t points, std::size_t steps) {
  stencil::params p;
  p.total_points = points;
  p.time_steps = steps;
  return p;
}

TEST(ExperimentDriver, SimSweepProducesConsistentPoints) {
  sim::sim_backend backend("haswell", grid(500'000, 10));
  granularity_experiment exp(backend, {{1'000, 10'000, 100'000}, 2});
  int progress_calls = 0;
  const auto points = exp.run(8, [&](const sweep_point&) { ++progress_calls; });

  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(progress_calls, 3);
  for (const auto& p : points) {
    EXPECT_EQ(p.cores, 8);
    EXPECT_EQ(p.exec_time_s.count(), 2u);
    EXPECT_GT(p.exec_time_s.mean(), 0.0);
    EXPECT_GE(p.cov, 0.0);
    EXPECT_EQ(p.mean.tasks, p.num_tasks);
    EXPECT_GE(p.m.idle_rate, 0.0);
    EXPECT_LE(p.m.idle_rate, 1.0);
    EXPECT_GT(p.td1_ns, 0.0) << "baseline pass must fill td1";
  }
  // td1 grows with partition size (more points per task).
  EXPECT_LT(points[0].td1_ns, points[2].td1_ns);
}

TEST(ExperimentDriver, PartitionSizesNormalized) {
  sim::sim_backend backend("haswell", grid(100'000, 5));
  granularity_experiment exp(backend, {{3'000}, 1});  // does not divide 100,000
  const auto points = exp.run(2);
  EXPECT_EQ(100'000 % static_cast<std::size_t>(points[0].x), 0u);
  EXPECT_EQ(points[0].num_tasks, 100'000 / static_cast<std::size_t>(points[0].x) * 5);
}

TEST(ExperimentDriver, SimGraphSamplesAreDistinctRuns) {
  // Every run draws fresh jitter, so the samples of one point spread.
  graph_workload w;
  w.graph.kind = graph::pattern::stencil1d;
  w.graph.width = 64;
  w.graph.steps = 10;
  sim::sim_backend backend("haswell", w);
  granularity_experiment exp(backend, {{10'000}, 3, false});
  const auto points = exp.run(8);
  EXPECT_GT(points[0].exec_time_s.max(), points[0].exec_time_s.min());
  EXPECT_GT(points[0].cov, 0.0);
}

TEST(ExperimentDriver, NativeBackendSmallSweep) {
  native_backend backend(grid(50'000, 5));
  EXPECT_EQ(backend.name(), "native(priority-local-fifo)");
  granularity_experiment exp(backend, {{1'000, 10'000}, 1});
  const auto points = exp.run(2);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    EXPECT_EQ(p.mean.tasks, p.num_tasks);
    EXPECT_EQ(p.mean.cores, 2);
    EXPECT_GT(p.exec_time_s.mean(), 0.0);
    EXPECT_GT(p.mean.exec_ns, 0.0);
    EXPECT_GE(p.mean.func_ns, p.mean.exec_ns);
    EXPECT_GE(p.mean.pending_accesses, p.mean.tasks);
  }
}

TEST(ExperimentDriver, SelectorsComposeWithSimSweep) {
  sim::sim_backend backend("haswell", grid(2'000'000, 10));
  granularity_experiment exp(backend, {{500, 5'000, 50'000, 500'000, 2'000'000}, 1});
  const auto points = exp.run(16);

  const auto best = best_exec_time(points);
  EXPECT_GT(best.x, 500.0);
  EXPECT_LT(best.x, 2'000'000.0);

  const auto sel = idle_rate_threshold(points, 0.5);
  ASSERT_TRUE(sel.has_value());
  EXPECT_LT(sel->regret, 1.0);  // within 2x of optimum at a loose threshold

  const auto pq = pending_queue_minimum(points);
  EXPECT_LT(pq.regret, 1.0);
}

}  // namespace
}  // namespace gran::core
