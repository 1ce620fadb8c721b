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
//                    binary_tree|nearest|spread|random; default trivial:
//                    independent tasks, no edges), executed through the
//                    shared graph executor in both modes
//   --total-us=N     total busy work in microseconds (default 2e5 = 0.2 s)
//   --steps=N        graph steps (default 10)
//   --workers=N      worker threads (default: all CPUs)
//   --samples=N
//   --mode=sim       run on a modeled platform instead
//                    (--platform=haswell, --cores: platform's cores)
#include <iostream>
#include <memory>

#include "core/experiment.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/observability.hpp"
#include "sim/sim_backend.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);

  const bool sim_mode = args.get_choice("mode", "native", {"native", "sim"}) == "sim";
  const sim::machine_model model = args.get_named("platform", "haswell", sim::make_machine_model);
  const double total_us = args.get_double("total-us", 200'000.0);

  core::graph_workload w;
  w.graph.kind = args.get_named("workload", "trivial", graph::pattern_from_name);
  w.graph.steps = static_cast<std::uint32_t>(args.get_int("steps", 10));
  w.graph.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
  w.graph.fraction = args.get_double("fraction", 0.25);
  w.graph.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));
  w.kernel.kind = args.get_named("kernel", "busy_spin", graph::kernel_from_name);
  w.kernel.imbalance = args.get_double("imbalance", 0.0);
  w.total_ns = total_us * 1e3;

  std::unique_ptr<core::backend> backend;
  int cores;
  if (sim_mode) {
    cores = static_cast<int>(args.get_int("cores", model.spec.cores));
    backend = std::make_unique<sim::sim_backend>(model, w);
  } else {
    cores = static_cast<int>(args.get_int("workers", 0));  // 0: GRAN_WORKERS
    backend = std::make_unique<core::native_backend>(w);
  }

  // Task sizes 0.5 us .. 32.8 ms, x4 apart, while one task's worth of work
  // remains.
  core::sweep_config cfg;
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  cfg.measure_baseline = false;  // no wait-time columns
  for (double us = 0.5; us <= 32'768.0 && us <= total_us; us *= 4) cfg.axis.push_back(us * 1e3);

  std::cout << "Micro grain sweep (" << backend->name() << "): " << total_us / 1e3
            << " ms of busy work as a " << graph::pattern_name(w.graph.kind)
            << " graph, ever-coarser tasks\n";

  table_writer table({"task size (us)", "tasks", "edges", "exec time (s)", "COV",
                      "idle-rate (%)", "measured td (us)", "to (us)"});
  core::granularity_experiment exp(*backend, cfg);
  for (const auto& p : exp.run(cores)) {
    table.add_row({format_number(p.x / 1e3, 1),
                   format_count(static_cast<std::int64_t>(p.num_tasks)),
                   format_count(static_cast<std::int64_t>(p.num_edges)),
                   format_number(p.exec_time_s.mean(), 4), format_number(p.cov, 3),
                   format_number(p.m.idle_rate * 100, 1),
                   format_number(p.m.task_duration_ns / 1e3, 2),
                   format_number(p.m.task_overhead_ns / 1e3, 2)});
  }
  table.print(std::cout);
  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "micro_grain_sweep.csv"))
    std::cout << "(csv written)\n";
  return 0;
}
