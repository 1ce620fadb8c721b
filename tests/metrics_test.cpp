// Tests for the paper's metric computations (Eqs. 1–6) and the grain-size
// selectors of §IV.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/selectors.hpp"

namespace gran::core {
namespace {

run_measurement sample_run() {
  run_measurement r;
  r.exec_time_s = 2.0;
  r.tasks = 1000;
  r.phases = 1000;
  r.exec_ns = 8e9;   // Σ t_exec = 8 s
  r.func_ns = 10e9;  // Σ t_func = 10 s
  r.cores = 4;
  return r;
}

TEST(Metrics, IdleRateEq1) {
  const metrics m = compute_metrics(sample_run(), 0.0);
  // Ir = (10 - 8) / 10
  EXPECT_DOUBLE_EQ(m.idle_rate, 0.2);
}

TEST(Metrics, TaskDurationEq2) {
  const metrics m = compute_metrics(sample_run(), 0.0);
  // td = 8e9 / 1000
  EXPECT_DOUBLE_EQ(m.task_duration_ns, 8e6);
}

TEST(Metrics, TaskOverheadEq3) {
  const metrics m = compute_metrics(sample_run(), 0.0);
  // to = (10e9 - 8e9) / 1000
  EXPECT_DOUBLE_EQ(m.task_overhead_ns, 2e6);
}

TEST(Metrics, TmOverheadEq4) {
  const metrics m = compute_metrics(sample_run(), 0.0);
  // To = to * nt / nc = 2e6 * 1000 / 4 ns = 0.5 s
  EXPECT_DOUBLE_EQ(m.tm_overhead_s, 0.5);
}

TEST(Metrics, WaitTimeEq5And6) {
  const double td1 = 7e6;  // 1-core task duration 7 ms
  const metrics m = compute_metrics(sample_run(), td1);
  // tw = td - td1 = 1e6 ns
  EXPECT_DOUBLE_EQ(m.wait_per_task_ns, 1e6);
  // Tw = tw * nt / nc = 1e6 * 1000 / 4 ns = 0.25 s
  EXPECT_DOUBLE_EQ(m.wait_time_s, 0.25);
  EXPECT_DOUBLE_EQ(m.tm_plus_wait_s, 0.75);
}

TEST(Metrics, NegativeWaitTimeAllowed) {
  // Coarse grain: 1-core duration LARGER than multi-core (paper §II-A).
  const metrics m = compute_metrics(sample_run(), 9e6);
  EXPECT_DOUBLE_EQ(m.wait_per_task_ns, -1e6);
  EXPECT_LT(m.wait_time_s, 0.0);
}

TEST(Metrics, ZeroBaselineSkipsWait) {
  const metrics m = compute_metrics(sample_run(), 0.0);
  EXPECT_EQ(m.wait_per_task_ns, 0.0);
  EXPECT_EQ(m.wait_time_s, 0.0);
}

TEST(Metrics, DegenerateInputs) {
  run_measurement r;  // all zero
  const metrics m = compute_metrics(r, 0.0);
  EXPECT_EQ(m.idle_rate, 0.0);
  EXPECT_EQ(m.task_duration_ns, 0.0);
  EXPECT_EQ(m.tm_overhead_s, 0.0);

  // exec > func (timer skew): overhead clamps at zero rather than negative.
  run_measurement skew = sample_run();
  skew.exec_ns = 11e9;
  const metrics ms = compute_metrics(skew, 0.0);
  EXPECT_EQ(ms.idle_rate, 0.0);
  EXPECT_EQ(ms.task_overhead_ns, 0.0);
}

// --- granularity_sweep --------------------------------------------------------

TEST(GranularitySweep, CoversRangeSorted) {
  const auto sizes = granularity_sweep(160, 100'000'000, 4);
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), 160u);
  EXPECT_EQ(sizes.back(), 100'000'000u);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
  // ~4 points per decade over ~5.8 decades.
  EXPECT_GE(sizes.size(), 20u);
  EXPECT_LE(sizes.size(), 30u);
}

TEST(GranularitySweep, GrainAxisInWholeNanoseconds) {
  EXPECT_EQ(granularity_sweep(1'000, 1'000'000, 2),
            (std::vector<double>{1'000, 3'162, 10'000, 31'623, 100'000, 316'228, 1'000'000}));
}

TEST(GranularitySweep, SinglePoint) {
  const auto sizes = granularity_sweep(100, 100, 4);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 100u);
}

// --- selectors ------------------------------------------------------------------

std::vector<sweep_point> synthetic_sweep() {
  // Partition sizes 1k..1M with a U-shaped execution time, monotone
  // decreasing idle-rate then rising, and pending accesses with an interior
  // minimum.
  struct row {
    double ps;
    double t;
    double idle;
    std::uint64_t pq;
  };
  const row rows[] = {
      {1'000, 5.0, 0.90, 40'000'000}, {10'000, 2.0, 0.40, 8'000'000},
      {50'000, 1.7, 0.25, 2'000'000}, {100'000, 1.75, 0.30, 2'500'000},
      {1'000'000, 3.0, 0.70, 5'000'000},
  };
  std::vector<sweep_point> out;
  for (const auto& r : rows) {
    sweep_point p;
    p.x = r.ps;
    p.exec_time_s.add(r.t);
    p.m.idle_rate = r.idle;
    p.mean.pending_accesses = r.pq;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(Selectors, BestExecTime) {
  const auto sweep = synthetic_sweep();
  const auto best = best_exec_time(sweep);
  EXPECT_EQ(best.x, 50'000.0);
  EXPECT_DOUBLE_EQ(best.exec_time_s, 1.7);
  EXPECT_DOUBLE_EQ(best.regret, 0.0);
}

TEST(Selectors, IdleRateThresholdPicksSmallestAcceptable) {
  const auto sweep = synthetic_sweep();
  const auto sel = idle_rate_threshold(sweep, 0.30);
  ASSERT_TRUE(sel.has_value());
  // Smallest partition with idle <= 30% is 50,000 (10,000 has 40%).
  EXPECT_EQ(sel->x, 50'000.0);
  EXPECT_DOUBLE_EQ(sel->regret, 0.0);
}

TEST(Selectors, IdleRateThresholdHigherTolerance) {
  const auto sweep = synthetic_sweep();
  const auto sel = idle_rate_threshold(sweep, 0.45);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->x, 10'000.0);
  EXPECT_NEAR(sel->regret, 2.0 / 1.7 - 1.0, 1e-12);
}

TEST(Selectors, IdleRateThresholdUnsatisfiable) {
  const auto sweep = synthetic_sweep();
  EXPECT_FALSE(idle_rate_threshold(sweep, 0.01).has_value());
}

TEST(Selectors, PendingQueueMinimum) {
  const auto sweep = synthetic_sweep();
  const auto sel = pending_queue_minimum(sweep);
  EXPECT_EQ(sel.x, 50'000.0);  // pq minimum coincides with best here
  EXPECT_DOUBLE_EQ(sel.regret, 0.0);
}

}  // namespace
}  // namespace gran::core
