// Tests for the discrete-event simulator: machine models, determinism, and
// the qualitative properties the paper's figures rest on (U-shape,
// idle-rate behaviour, wait-time growth, queue-access shape).
#include <gtest/gtest.h>

#include "sim/des.hpp"
#include "sim/graph_sim.hpp"
#include "sim/machine_model.hpp"
#include "sim/sim_backend.hpp"

namespace gran::sim {
namespace {

// A machine plus a heat-ring workload.
struct stencil_run : sim_config {
  stencil::params workload;
};

stencil_run make_config(const std::string& platform, int cores, std::size_t points,
                        std::size_t partition, std::size_t steps) {
  stencil_run cfg;
  cfg.model = make_machine_model(platform);
  cfg.cores = cores;
  cfg.workload.total_points = points;
  cfg.workload.partition_size = partition;
  cfg.workload.time_steps = steps;
  cfg.workload.normalize();
  return cfg;
}

sim_result simulate_stencil(const stencil_run& run) {
  return sim::simulate_stencil(run, run.workload);
}

// --- machine models -----------------------------------------------------------

TEST(MachineModel, FactoriesMatchSpecs) {
  EXPECT_EQ(haswell_model().spec.cores, 28);
  EXPECT_EQ(xeon_phi_model().spec.cores, 61);
  EXPECT_EQ(sandy_bridge_model().spec.cores, 16);
  EXPECT_EQ(ivy_bridge_model().spec.cores, 20);
  EXPECT_THROW(make_machine_model("bogus"), std::invalid_argument);
}

TEST(MachineModel, CalibrationAnchors) {
  // Paper §IV-A: td(12,500 pts, 1 core) ≈ 21 µs on Haswell, ≈ 1.1 ms on the
  // Xeon Phi.
  const double hw = haswell_model().task_exec_single_core_ns(12'500, 100'000'000);
  EXPECT_NEAR(hw, 21'000, 2'000);
  const double phi = xeon_phi_model().task_exec_single_core_ns(12'500, 100'000'000);
  EXPECT_NEAR(phi, 1'100'000, 150'000);
}

TEST(MachineModel, ExecScalesWithPoints) {
  const machine_model m = haswell_model();
  EXPECT_LT(m.task_exec_ns(1'000, 1, 28), m.task_exec_ns(10'000, 1, 28));
  EXPECT_DOUBLE_EQ(m.task_exec_ns(2'000, 1, 28), 2 * m.task_exec_ns(1'000, 1, 28));
}

TEST(MachineModel, BandwidthContentionMonotone) {
  const machine_model m = haswell_model();
  // More concurrent streams can only slow a task down, saturating at the
  // point where bw_total/k < bw_core.
  double prev = m.task_exec_ns(10'000, 1, 28);
  for (int k = 2; k <= 28; ++k) {
    const double cur = m.task_exec_ns(10'000, k, 28);
    EXPECT_GE(cur, prev - 1e-9) << "streams " << k;
    prev = cur;
  }
  EXPECT_GT(m.task_exec_ns(10'000, 28, 28), m.task_exec_ns(10'000, 1, 28));
}

TEST(MachineModel, SingleCoreBiasOnlyForBigPartitions) {
  const machine_model m = haswell_model();
  // Small partitions: no working-set penalty.
  EXPECT_DOUBLE_EQ(m.task_exec_single_core_ns(10'000, 100'000'000),
                   10'000 * m.cpu_ns_per_point);
  // Huge partitions: penalized.
  EXPECT_GT(m.task_exec_single_core_ns(50'000'000, 100'000'000),
            50'000'000 * m.cpu_ns_per_point);
}

// --- simulator basics -------------------------------------------------------------

TEST(Simulator, ExecutesAllTasks) {
  const auto cfg = make_config("haswell", 8, 100'000, 1'000, 10);
  const auto r = simulate_stencil(cfg);
  EXPECT_EQ(r.measurement.tasks, 100u * 10u);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.measurement.exec_ns, 0.0);
  EXPECT_GE(r.measurement.func_ns, r.measurement.exec_ns);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const auto cfg = make_config("haswell", 16, 1'000'000, 10'000, 10);
  const auto a = simulate_stencil(cfg);
  const auto b = simulate_stencil(cfg);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.measurement.pending_accesses, b.measurement.pending_accesses);
  EXPECT_EQ(a.tasks_stolen, b.tasks_stolen);
}

TEST(Simulator, SeedChangesJitterOnly) {
  auto cfg = make_config("haswell", 16, 1'000'000, 10'000, 10);
  const auto a = simulate_stencil(cfg);
  cfg.seed = 99;
  const auto b = simulate_stencil(cfg);
  EXPECT_EQ(a.measurement.tasks, b.measurement.tasks);
  EXPECT_NE(a.makespan_s, b.makespan_s);  // jitter differs
  EXPECT_NEAR(a.makespan_s, b.makespan_s, 0.2 * a.makespan_s);
}

TEST(Simulator, CoresClampedToModel) {
  const auto cfg = make_config("haswell", 500, 100'000, 10'000, 5);
  const auto r = simulate_stencil(cfg);
  EXPECT_EQ(r.measurement.cores, 28);  // Haswell has 28 cores
}

TEST(Simulator, SinglePartitionSerialChain) {
  // One partition: a pure serial chain of `steps` tasks.
  const auto cfg = make_config("haswell", 8, 1'000'000, 1'000'000, 20);
  const auto r = simulate_stencil(cfg);
  EXPECT_EQ(r.measurement.tasks, 20u);
  // Makespan at least the serial execution of the chain.
  const double min_chain =
      20 * cfg.model.task_exec_ns(1'000'000, 1, 8) * (1 - cfg.model.jitter) * 1e-9;
  EXPECT_GE(r.makespan_s, min_chain * 0.9);
}

// --- strong scaling & figure shapes -----------------------------------------------

TEST(Simulator, MidGrainScalesWithCores) {
  // At medium granularity more cores must help substantially.
  const double t1 = simulate_stencil(make_config("haswell", 1, 4'000'000, 50'000, 20))
                        .makespan_s;
  const double t8 = simulate_stencil(make_config("haswell", 8, 4'000'000, 50'000, 20))
                        .makespan_s;
  EXPECT_LT(t8, t1 / 2.5);
}

struct platform_case {
  const char* name;
  int cores;
  std::size_t steps;
};

class FigureShapes : public ::testing::TestWithParam<platform_case> {};

TEST_P(FigureShapes, ExecTimeIsUShaped) {
  const auto [platform, cores, steps] = GetParam();
  const std::size_t points = 2'000'000;
  const double fine =
      simulate_stencil(make_config(platform, cores, points, 200, steps)).makespan_s;
  const double mid =
      simulate_stencil(make_config(platform, cores, points, 50'000, steps)).makespan_s;
  const double coarse =
      simulate_stencil(make_config(platform, cores, points, points, steps)).makespan_s;
  EXPECT_LT(mid, fine) << "fine-grain overhead must dominate on the left";
  EXPECT_LT(mid, coarse) << "starvation must dominate on the right";
}

TEST_P(FigureShapes, IdleRateHighAtExtremes) {
  const auto [platform, cores, steps] = GetParam();
  const std::size_t points = 2'000'000;
  const auto idle = [&](std::size_t partition) {
    const auto m = simulate_stencil(make_config(platform, cores, points, partition, steps))
                       .measurement;
    return (m.func_ns - m.exec_ns) / m.func_ns;
  };
  const double fine = idle(200);
  const double mid = idle(50'000);
  const double coarse = idle(points);
  EXPECT_GT(fine, mid + 0.1);
  EXPECT_GT(coarse, mid + 0.1);
  EXPECT_GT(fine, 0.5);
  EXPECT_GT(coarse, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, FigureShapes,
    ::testing::Values(platform_case{"haswell", 28, 20},
                      platform_case{"haswell", 8, 20},
                      platform_case{"sandy-bridge", 16, 20},
                      platform_case{"ivy-bridge", 20, 20},
                      platform_case{"xeon-phi", 60, 5}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + "_" + std::to_string(info.param.cores) + "c";
    });

TEST(Simulator, WaitTimeGrowsWithCores) {
  // Fig. 6: td(nc) - td(1) increases with core count at fixed mid grain.
  const std::size_t points = 4'000'000, partition = 50'000, steps = 20;
  const auto td = [&](int cores) {
    const auto m =
        simulate_stencil(make_config("haswell", cores, points, partition, steps))
            .measurement;
    return m.exec_ns / static_cast<double>(m.tasks);
  };
  const double td1 = td(1);
  const double tw8 = td(8) - td1;
  const double tw28 = td(28) - td1;
  EXPECT_GT(tw8, 0.0);
  EXPECT_GT(tw28, tw8);
}

TEST(Simulator, WaitTimeGrowsWithPartitionSize) {
  // Fig. 6's other axis: at fixed cores, tw grows with the partition size.
  const std::size_t points = 4'000'000, steps = 20;
  const auto tw = [&](std::size_t partition) {
    const auto multi =
        simulate_stencil(make_config("haswell", 16, points, partition, steps))
            .measurement;
    const auto single =
        simulate_stencil(make_config("haswell", 1, points, partition, steps))
            .measurement;
    return multi.exec_ns / static_cast<double>(multi.tasks) -
           single.exec_ns / static_cast<double>(single.tasks);
  };
  EXPECT_GT(tw(100'000), tw(10'000));
}

TEST(Simulator, NegativeWaitTimeAtVeryCoarseGrain) {
  // Figs. 7/8: with partitions far beyond the cache anchor, the 1-core
  // baseline is slower per task than the parallel run.
  const std::size_t points = 50'000'000, steps = 5;
  const auto multi =
      simulate_stencil(make_config("haswell", 28, points, points / 2, steps))
          .measurement;
  const auto single =
      simulate_stencil(make_config("haswell", 1, points, points / 2, steps)).measurement;
  const double td_multi = multi.exec_ns / static_cast<double>(multi.tasks);
  const double td1 = single.exec_ns / static_cast<double>(single.tasks);
  EXPECT_LT(td_multi, td1);
}

TEST(Simulator, PendingAccessesShape) {
  // Fig. 9: accesses high at fine grain, interior minimum, mild rise at
  // coarse grain.
  const std::size_t points = 2'000'000, steps = 20;
  const auto pq = [&](std::size_t partition) {
    return simulate_stencil(make_config("haswell", 16, points, partition, steps))
        .measurement.pending_accesses;
  };
  const auto fine = pq(200);
  const auto mid = pq(50'000);
  const auto coarse = pq(points);
  EXPECT_GT(fine, mid * 5);
  EXPECT_GT(coarse, mid);
}

TEST(Simulator, EveryTaskTouchesPendingQueue) {
  const auto cfg = make_config("haswell", 4, 500'000, 5'000, 10);
  const auto r = simulate_stencil(cfg);
  EXPECT_GE(r.measurement.pending_accesses, r.measurement.tasks);
}


// --- the calibrated fine-grain mechanisms --------------------------------------

TEST(Simulator, FineGrainTimesConvergeAcrossCoreCounts) {
  // Fig. 3's left edge: at the finest grain the serial tree construction +
  // contended task management bound execution, so adding cores barely helps.
  const std::size_t points = 2'000'000, partition = 200, steps = 20;
  const double t4 =
      simulate_stencil(make_config("haswell", 4, points, partition, steps)).makespan_s;
  const double t28 =
      simulate_stencil(make_config("haswell", 28, points, partition, steps)).makespan_s;
  EXPECT_LT(t28, t4);            // still a little better...
  EXPECT_GT(t28, t4 * 0.5);      // ...but nowhere near 7x
}

TEST(Simulator, IdleRateRisesWithCoreCountAtFixedFineGrain) {
  // Figs. 4/5: the same fine grain looks worse on more cores (management
  // contention), one of the paper's central observations.
  const std::size_t points = 2'000'000, partition = 1'600, steps = 20;
  const auto idle = [&](int cores) {
    const auto m =
        simulate_stencil(make_config("haswell", cores, points, partition, steps))
            .measurement;
    return (m.func_ns - m.exec_ns) / m.func_ns;
  };
  EXPECT_GT(idle(16), idle(8));
  EXPECT_GT(idle(28), idle(16));
}

TEST(Simulator, ManagementScalesWithContention) {
  // Direct check on the per-task overhead: to(28 cores) >> to(1 core).
  const std::size_t points = 1'000'000, partition = 1'000, steps = 10;
  const auto to = [&](int cores) {
    const auto m =
        simulate_stencil(make_config("haswell", cores, points, partition, steps))
            .measurement;
    const double overhead = std::max(0.0, m.func_ns - m.exec_ns);
    return overhead / static_cast<double>(m.tasks);
  };
  EXPECT_GT(to(28), to(2) * 3);
}


// --- independent tasks: the `trivial` graph (the paper's micro benchmarks) ------

// The heat ring's geometry as a task graph of `kind` on Haswell: one task
// per partition per step, each charged the stencil's cost of `partition`
// points.
sim_result simulate_as_graph(graph::pattern kind, int cores, std::size_t points,
                             std::size_t partition, std::size_t steps) {
  sim_config cfg;
  cfg.model = make_machine_model("haswell");
  cfg.cores = cores;
  graph::graph_spec g;
  g.kind = kind;
  g.width = static_cast<std::uint32_t>(points / partition);
  g.steps = static_cast<std::uint32_t>(steps);
  graph::kernel_spec k;
  k.grain_ns = cfg.model.task_exec_ns(partition, 1, cores);
  return simulate_graph(cfg, g, k);
}

TEST(Simulator, IndependentWorkloadRunsAllTasks) {
  const auto r = simulate_as_graph(graph::pattern::trivial, 8, 500'000, 5'000, 10);
  EXPECT_EQ(r.measurement.tasks, 100u * 10u);
  EXPECT_EQ(r.edges_signaled, 0u);
}

TEST(Simulator, IndependentWorkloadShowsSameUShape) {
  // "We obtained similar results from micro benchmarks" (paper \u00a7I-C): the
  // U-shape does not depend on the stencil's dependency graph.
  const std::size_t points = 2'000'000, steps = 20;
  const auto t = [&](std::size_t partition) {
    return simulate_as_graph(graph::pattern::trivial, 16, points, partition, steps).makespan_s;
  };
  const double fine = t(200), mid = t(50'000), coarse = t(points);
  EXPECT_LT(mid, fine);
  EXPECT_LT(mid, coarse);
}

TEST(Simulator, IndependentFasterOrEqualToStencilAtCoarseGrain) {
  // Without the 3-point dependency chain, coarse grains parallelize freely
  // until the task count drops below the core count.
  // 2 partitions x 20 steps: the ring serializes steps, trivial does not.
  const auto ring = simulate_as_graph(graph::pattern::nearest, 16, 4'000'000, 2'000'000, 20);
  const auto indep = simulate_as_graph(graph::pattern::trivial, 16, 4'000'000, 2'000'000, 20);
  EXPECT_LT(indep.makespan_s * 2.0, ring.makespan_s);
}

// --- policies & ablation knobs ------------------------------------------------------

TEST(Simulator, PoliciesAllComplete) {
  for (const sim_policy p : {sim_policy::priority_local, sim_policy::static_fifo,
                             sim_policy::work_stealing}) {
    auto cfg = make_config("haswell", 8, 500'000, 5'000, 10);
    cfg.policy = p;
    const auto r = simulate_stencil(cfg);
    EXPECT_EQ(r.measurement.tasks, 100u * 10u);
  }
}

TEST(Simulator, StaticPolicyNeverSteals) {
  auto cfg = make_config("haswell", 8, 500'000, 5'000, 10);
  cfg.policy = sim_policy::static_fifo;
  EXPECT_EQ(simulate_stencil(cfg).tasks_stolen, 0u);
}

TEST(Simulator, StaticPolicySuffersAtCoarseGrain) {
  // Without stealing, locally staged dependents pile onto few cores.
  auto base = make_config("haswell", 16, 2'000'000, 250'000, 20);
  const double with_steal = simulate_stencil(base).makespan_s;
  base.policy = sim_policy::static_fifo;
  const double without = simulate_stencil(base).makespan_s;
  EXPECT_GE(without, with_steal);
}

TEST(Simulator, NumaObliviousStealRuns) {
  auto cfg = make_config("haswell", 16, 1'000'000, 10'000, 10);
  cfg.numa_aware_steal = false;
  const auto r = simulate_stencil(cfg);
  EXPECT_EQ(r.measurement.tasks, 100u * 10u);
}

TEST(Simulator, WorkStealingConvertsAtSpawn) {
  auto cfg = make_config("haswell", 8, 500'000, 5'000, 10);
  cfg.policy = sim_policy::work_stealing;
  const auto r = simulate_stencil(cfg);
  // No staged stage: conversions happen for every non-initial task at spawn
  // and staged queues are never accessed.
  EXPECT_EQ(r.measurement.staged_accesses, 0u);
}

// --- backend integration -------------------------------------------------------------

TEST(SimBackend, ImplementsExperimentInterface) {
  stencil::params p;
  p.total_points = 200'000;
  p.time_steps = 5;
  sim_backend backend("haswell", p);
  EXPECT_EQ(backend.name(), "sim(haswell)");
  const auto r = backend.run(10'000, 8);
  EXPECT_EQ(r.x, 10'000.0);
  EXPECT_EQ(r.m.cores, 8);
  EXPECT_EQ(r.m.tasks, 20u * 5u);
  EXPECT_EQ(r.tasks, 20u * 5u);
  EXPECT_GT(r.edges, 0u);
  EXPECT_GT(r.m.exec_time_s, 0.0);
}

TEST(SimBackend, EveryRunDrawsFreshJitter) {
  // One seed rule for both workloads: run i uses seed + i.
  stencil::params p;
  p.total_points = 1'000'000;
  p.time_steps = 10;
  core::graph_workload g;
  g.graph.width = 64;
  g.graph.steps = 10;
  for (const core::workload& w : {core::workload(p), core::workload(g)}) {
    sim_backend backend("haswell", w);
    const double first = backend.run(10'000, 16).m.exec_time_s;
    EXPECT_NE(backend.run(10'000, 16).m.exec_time_s, first);
    sim_backend again("haswell", w);
    EXPECT_EQ(again.run(10'000, 16).m.exec_time_s, first) << "deterministic per seed";
  }
}

}  // namespace
}  // namespace gran::sim
