// The paper's "micro benchmarks" (§I-C: "We obtained similar results from
// micro benchmarks but for brevity they are not included"): a homogeneous
// task-size sweep with a fixed total amount of busy work.
//
// The task size sweeps from sub-microsecond to multi-millisecond while the
// total work stays constant, so the task count shrinks as the grain grows —
// the same U-shape and idle-rate behaviour as the stencil emerges, and
// --workload selects the dependence structure it emerges under:
//
//   --workload=NAME  a graph pattern (trivial|serial_chain|stencil1d|fft|
//                    binary_tree|nearest|spread|random; default stencil1d),
//                    executed through the shared graph executor in both
//                    modes; or `independent` for the legacy raw-spawn loop
//                    (native) / sim_workload::independent (sim) — tasks with
//                    no graph at all, not even dataflow nodes.
//   --total-us=N     total busy work in microseconds (default 2e5 = 0.2 s)
//   --steps=N        graph steps for pattern workloads (default 10)
//   --workers=N      worker threads (default: all CPUs)
//   --samples=N
//   --mode=sim       run on a modeled platform instead
//                    (--platform=haswell, --cores: platform's cores)
#include <atomic>
#include <iostream>
#include <memory>

#include "core/experiment.hpp"
#include "core/graph_experiment.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/observability.hpp"
#include "sim/graph_sim.hpp"
#include "sim/sim_backend.hpp"
#include "sync/latch.hpp"
#include "threads/policy.hpp"
#include "threads/thread_manager.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

constexpr double k_task_sizes_us[] = {0.5,   2.0,    8.0,     32.0,    128.0,
                                      512.0, 2'048.0, 8'192.0, 32'768.0};

// Busy-spins for roughly `ns` nanoseconds (calibrated once).
struct spinner {
  double iters_per_ns;

  spinner() {
    // Calibrate the work loop.
    const std::uint64_t t0 = tsc_clock::now();
    volatile double acc = 1.0;
    constexpr long probe = 2'000'000;
    for (long i = 0; i < probe; ++i) acc = acc * 1.0000001 + 0.1;
    const double ns = static_cast<double>(tsc_clock::to_ns(tsc_clock::now() - t0));
    iters_per_ns = probe / ns;
  }

  void spin(double ns) const {
    const long iters = static_cast<long>(ns * iters_per_ns);
    volatile double acc = 1.0;
    for (long i = 0; i < iters; ++i) acc = acc * 1.0000001 + 0.1;
  }
};

// Simulator variant of the legacy independent workload: the same task-size
// sweep as dependency-free tasks on a modeled platform.
int run_sim_independent(const cli_args& args) {
  const std::string platform = args.get("platform", "haswell");
  const int cores = static_cast<int>(args.get_int("cores", 28));
  sim::sim_backend backend(platform);
  backend.set_workload(sim::sim_workload::independent);

  std::cout << "Micro grain sweep (sim, " << platform << ", " << cores
            << " cores): independent tasks, no dependency graph\n";
  table_writer table(
      {"partition", "tasks", "exec time (s)", "idle-rate (%)", "pending acc (k)"});
  stencil::params base;
  base.total_points = static_cast<std::size_t>(args.get_int("points", 10'000'000));
  base.time_steps = static_cast<std::size_t>(args.get_int("steps", 10));
  for (const std::size_t ps :
       core::granularity_sweep(160, base.total_points, 3)) {
    stencil::params p = base;
    p.partition_size = ps;
    p.normalize();
    const auto m = backend.run(p, cores);
    const double idle =
        m.func_ns > 0 ? std::max(0.0, m.func_ns - m.exec_ns) / m.func_ns : 0;
    table.add_row({format_count(static_cast<std::int64_t>(p.partition_size)),
                   format_count(static_cast<std::int64_t>(m.tasks)),
                   format_number(m.exec_time_s, 4), format_number(idle * 100, 1),
                   format_number(static_cast<double>(m.pending_accesses) / 1e3, 1)});
  }
  table.print(std::cout);
  return 0;
}

// Legacy native independent workload: raw spawns, not even dataflow nodes.
int run_native_independent(const cli_args& args) {
  const double total_us = args.get_double("total-us", 200'000.0);
  const int workers = static_cast<int>(args.get_int("workers", 0));
  const int samples = static_cast<int>(args.get_int("samples", 3));

  const spinner work;
  std::cout << "Micro grain sweep: " << total_us / 1e3
            << " ms of busy work split into ever-coarser tasks (native runtime, "
               "independent spawns)\n";

  table_writer table({"task size (us)", "tasks", "exec time (s)", "COV", "idle-rate (%)",
                      "measured td (us)", "to (us)"});

  for (const double task_us : k_task_sizes_us) {
    const auto n = static_cast<std::size_t>(total_us / task_us);
    if (n == 0) break;

    sample_stats times;
    double idle_sum = 0, td_sum = 0, to_sum = 0;
    for (int s = 0; s < samples; ++s) {
      scheduler_config cfg;
      cfg.num_workers = workers;
      cfg.pin_workers = topology::host().num_cpus() >= workers;
      thread_manager tm(cfg);
      tm.reset_counters();

      stopwatch clock;
      latch done(static_cast<std::int64_t>(n));
      for (std::size_t i = 0; i < n; ++i)
        tm.spawn([&work, &done, task_us] {
          work.spin(task_us * 1e3);
          done.count_down();
        });
      done.wait();
      times.add(clock.elapsed_s());

      const auto t = tm.counter_totals();
      const double exec = static_cast<double>(t.exec_ns);
      const double func = static_cast<double>(t.func_ns);
      idle_sum += func > 0 ? std::max(0.0, func - exec) / func : 0;
      td_sum += t.tasks_executed ? exec / static_cast<double>(t.tasks_executed) : 0;
      to_sum += t.tasks_executed
                    ? std::max(0.0, func - exec) / static_cast<double>(t.tasks_executed)
                    : 0;
    }
    table.add_row({format_number(task_us, 1),
                   format_count(static_cast<std::int64_t>(n)),
                   format_number(times.mean(), 4), format_number(times.cov(), 3),
                   format_number(idle_sum / samples * 100, 1),
                   format_number(td_sum / samples / 1e3, 2),
                   format_number(to_sum / samples / 1e3, 2)});
  }
  table.print(std::cout);
  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "micro_grain_sweep.csv"))
    std::cout << "(csv written)\n";
  return 0;
}

// Pattern workloads: the same fixed-total-work sweep through the shared
// graph executor (native dataflow or simulator), so the dependence
// structure becomes a dial of the micro benchmark.
int run_graph_pattern(const cli_args& args, graph::pattern kind) {
  const bool sim_mode = args.get("mode", "native") == "sim";
  const double total_us = args.get_double("total-us", 200'000.0);
  const int samples = static_cast<int>(args.get_int("samples", 3));
  const auto steps = static_cast<std::uint32_t>(args.get_int("steps", 10));

  std::unique_ptr<core::graph_backend> backend;
  int cores;
  if (sim_mode) {
    const auto model = sim::make_machine_model(args.get("platform", "haswell"));
    cores = static_cast<int>(args.get_int("cores", model.spec.cores));
    backend = std::make_unique<sim::graph_sim_backend>(model);
  } else {
    cores = static_cast<int>(args.get_int("workers", 0));
    backend = std::make_unique<core::native_graph_backend>(
        resolve_policy_name(args.get("policy", "")));
  }

  std::cout << "Micro grain sweep (" << backend->name() << "): " << total_us / 1e3
            << " ms of busy work as a " << graph::pattern_name(kind)
            << " graph, ever-coarser tasks\n";

  table_writer table({"task size (us)", "tasks", "edges", "exec time (s)", "COV",
                      "idle-rate (%)", "measured td (us)", "to (us)"});

  for (const double task_us : k_task_sizes_us) {
    const auto n = static_cast<std::uint64_t>(total_us / task_us);
    if (n == 0) break;

    graph::graph_spec g;
    g.kind = kind;
    g.steps = steps;
    g.width = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, n / steps));
    g.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
    g.fraction = args.get_double("fraction", 0.25);
    g.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));

    graph::kernel_spec k;
    k.kind = graph::kernel_from_name(args.get("kernel", "busy_spin"));
    k.grain_ns = task_us * 1e3;
    k.imbalance = args.get_double("imbalance", 0.0);

    sample_stats times;
    double idle_sum = 0, td_sum = 0, to_sum = 0;
    std::uint64_t tasks = 0, edges = 0;
    for (int s = 0; s < samples; ++s) {
      const core::graph_run_result r = backend->run(g, k, cores);
      tasks = r.tasks;
      edges = r.edges;
      times.add(r.m.exec_time_s);
      const double exec = r.m.exec_ns, func = r.m.func_ns;
      idle_sum += func > 0 ? std::max(0.0, func - exec) / func : 0;
      const auto nt = static_cast<double>(r.m.tasks);
      td_sum += nt > 0 ? exec / nt : 0;
      to_sum += nt > 0 ? std::max(0.0, func - exec) / nt : 0;
    }
    table.add_row({format_number(task_us, 1),
                   format_count(static_cast<std::int64_t>(tasks)),
                   format_count(static_cast<std::int64_t>(edges)),
                   format_number(times.mean(), 4), format_number(times.cov(), 3),
                   format_number(idle_sum / samples * 100, 1),
                   format_number(td_sum / samples / 1e3, 2),
                   format_number(to_sum / samples / 1e3, 2)});
  }
  table.print(std::cout);
  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "micro_grain_sweep.csv"))
    std::cout << "(csv written)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(perf::observability_session::options_from_cli(
      args, perf::observability_session::options_from_env()));

  const std::string workload = args.get("workload", "stencil1d");
  if (workload == "independent") {
    if (args.get("mode", "native") == "sim") return run_sim_independent(args);
    return run_native_independent(args);
  }
  return run_graph_pattern(args, graph::pattern_from_name(workload));
}
