// gran-characterize: the paper's methodology packaged as a tool.
//
// Runs the granularity characterization on THIS machine (or a modeled
// platform), computes every metric of §II-A, applies the grain-size
// selection rules of §IV, and prints a recommendation — the "auto-tuning
// infrastructure" step the paper lists as its goal.
//
//   $ ./gran_characterize                         # native, defaults
//   $ ./gran_characterize --points=4000000 --steps=20 --workers=4 --samples=5
//   $ ./gran_characterize --mode=sim --platform=haswell --cores=28
//   $ ./gran_characterize --csv=results/          # machine-readable output
//
// Output: the full metric table (execution time, COV, idle-rate, task
// duration/overhead, TM overhead, wait time, pending-queue accesses), the
// three selection rules side by side, and a one-line recommendation.
#include <iostream>
#include <memory>

#include "core/experiment.hpp"
#include "core/graph_experiment.hpp"
#include "core/selectors.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/observability.hpp"
#include "sim/graph_sim.hpp"
#include "sim/sim_backend.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

void print_usage() {
  std::cout <<
      "gran-characterize: find the right task grain size for this machine\n"
      "\n"
      "  --points=N         grid points of the heat-ring workload (default 1M native, 10M sim)\n"
      "  --steps=N          time steps (default 20)\n"
      "  --workers=N        worker threads / simulated cores (default: all)\n"
      "  --samples=N        repetitions per configuration (default 3)\n"
      "  --min-partition=N  finest grain to test (default 250)\n"
      "  --per-decade=N     sweep resolution (default 3)\n"
      "  --threshold=F      idle-rate tolerance for the threshold rule (default 0.30)\n"
      "  --policy=NAME      scheduling policy for native runs (the GRAN_POLICY knob)\n"
      "  --mode=sim         characterize a modeled platform instead\n"
      "  --platform=NAME    sim platform: sandy-bridge|ivy-bridge|haswell|xeon-phi\n"
      "  --csv=PREFIX       also write PREFIXcharacterize.csv\n"
      "\n"
      "task-graph workloads (src/graph; sweep the kernel grain instead):\n"
      "  --workload=NAME    graph pattern: trivial|serial_chain|stencil1d|fft|\n"
      "                     binary_tree|nearest|spread|random\n"
      "                     (default: the heat-ring partition sweep above)\n"
      "  --width=N --graph-steps=N --radius=N --fraction=F --graph-seed=N\n"
      "  --kernel=NAME      busy_spin|memory_stream|dgemm_like\n"
      "  --grain-min=NS --grain-max=NS   grain axis bounds (ns)\n"
      "\n"
      "plus the knob table's flags (--trace-out, --metrics-out, ...; README\n"
      "\"Configuration\").\n";
}

// Task-graph mode: characterize one dependence pattern by sweeping the
// kernel grain (the td dial) with the same Eq. 1–6 methodology.
int run_graph_workload(const cli_args& args, graph::pattern kind) {
  const bool sim_mode = args.get("mode", "native") == "sim";

  std::unique_ptr<core::graph_backend> backend;
  int default_workers;
  if (sim_mode) {
    const auto model = sim::make_machine_model(args.get("platform", "haswell"));
    default_workers = model.spec.cores;
    backend = std::make_unique<sim::graph_sim_backend>(model);
  } else {
    backend = std::make_unique<core::native_graph_backend>();
    default_workers = topology::host().num_cpus();
  }

  core::graph_sweep_config cfg;
  cfg.graph.kind = kind;
  cfg.graph.width = static_cast<std::uint32_t>(args.get_int("width", 256));
  cfg.graph.steps = static_cast<std::uint32_t>(args.get_int("graph-steps", 20));
  cfg.graph.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
  cfg.graph.fraction = args.get_double("fraction", 0.25);
  cfg.graph.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));
  if (const std::string err = cfg.graph.validate(); !err.empty()) {
    std::cerr << "invalid graph spec: " << err << "\n";
    return 1;
  }
  cfg.kernel.kind = graph::kernel_from_name(args.get("kernel", "busy_spin"));
  cfg.kernel.imbalance = args.get_double("imbalance", 0.0);
  cfg.cores = static_cast<int>(args.get_int("workers", default_workers));
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  cfg.grains_ns = core::grain_sweep_ns(
      args.get_double("grain-min", 1e3), args.get_double("grain-max", 1e6),
      static_cast<int>(args.get_int("per-decade", 3)));
  const double threshold = args.get_double("threshold", 0.30);

  std::cout << "characterizing " << cfg.graph.describe() << " on "
            << backend->name() << " with " << cfg.cores << " cores: "
            << cfg.graph.total_tasks() << " tasks, " << cfg.graph.total_edges()
            << " edges, " << cfg.samples << " samples per grain\n\n";

  core::graph_granularity_experiment exp(*backend, cfg);
  const auto points = exp.run([](const core::graph_sweep_point& p) {
    std::fprintf(stderr, "  grain %-10.0f exec %.4f s  idle %.1f%%\n", p.grain_ns,
                 p.exec_time_s.mean(), p.m.idle_rate * 100);
  });

  table_writer table({"grain (us)", "tasks", "td (us)", "exec (s)", "exec med (s)",
                      "exec min (s)", "COV", "idle (%)", "to (us)", "To (s)",
                      "tw (us)", "Tw (s)", "pending acc"});
  for (const auto& p : points) {
    table.add_row({format_number(p.grain_ns / 1e3, 2),
                   format_count(static_cast<std::int64_t>(p.num_tasks)),
                   format_number(p.m.task_duration_ns / 1e3, 2),
                   format_number(p.exec_time_s.mean(), 4),
                   format_number(p.exec_time_s.median(), 4),
                   format_number(p.exec_time_s.min(), 4),
                   format_number(p.cov, 3),
                   format_number(p.m.idle_rate * 100, 1),
                   format_number(p.m.task_overhead_ns / 1e3, 2),
                   format_number(p.m.tm_overhead_s, 4),
                   format_number(p.m.wait_per_task_ns / 1e3, 2),
                   format_number(p.m.wait_time_s, 4),
                   format_count(static_cast<std::int64_t>(p.mean.pending_accesses))});
  }
  std::cout << "\nGranularity characterization (paper metrics, Eqs. 1-6):\n";
  table.print(std::cout);

  // Selection rules on the grain axis: the oracle and the idle-rate
  // threshold (the pending-queue rule carries over unchanged).
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i)
    if (points[i].exec_time_s.mean() < points[best].exec_time_s.mean()) best = i;
  const core::graph_sweep_point* by_idle = nullptr;
  for (const auto& p : points)
    if (p.m.idle_rate <= threshold) {
      by_idle = &p;
      break;
    }
  std::cout << "\nbest grain: ~" << format_duration_ns(points[best].grain_ns)
            << " per task (exec " << format_number(points[best].exec_time_s.mean(), 4)
            << " s)\n";
  if (by_idle)
    std::cout << "idle-rate <= " << format_number(threshold * 100, 0)
              << "% first satisfied at grain ~" << format_duration_ns(by_idle->grain_ns)
              << " per task\n";
  else
    std::cout << "idle-rate <= " << format_number(threshold * 100, 0)
              << "% unsatisfiable on this sweep\n";

  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "characterize.csv"))
    std::cout << "(csv written to " << csv << "characterize.csv)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  perf::observability_session obs(args);

  if (args.has("workload"))
    return run_graph_workload(args, graph::pattern_from_name(args.get("workload")));

  const bool sim_mode = args.get("mode", "native") == "sim";
  const std::string platform = args.get("platform", "haswell");

  std::unique_ptr<core::experiment_backend> backend;
  int default_workers;
  std::size_t default_points;
  if (sim_mode) {
    auto sb = std::make_unique<sim::sim_backend>(platform);
    default_workers = sb->model().spec.cores;
    default_points = 10'000'000;
    backend = std::move(sb);
  } else {
    backend = std::make_unique<core::native_backend>();
    default_workers = topology::host().num_cpus();
    default_points = 1'000'000;
  }

  core::sweep_config cfg;
  cfg.base.total_points =
      static_cast<std::size_t>(args.get_int("points", static_cast<std::int64_t>(default_points)));
  cfg.base.time_steps = static_cast<std::size_t>(args.get_int("steps", 20));
  cfg.cores = static_cast<int>(args.get_int("workers", default_workers));
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  cfg.partition_sizes = core::granularity_sweep(
      static_cast<std::size_t>(args.get_int("min-partition", 250)),
      cfg.base.total_points, static_cast<int>(args.get_int("per-decade", 3)));
  const double threshold = args.get_double("threshold", 0.30);

  std::cout << "characterizing " << backend->name() << " with " << cfg.cores
            << " cores: " << cfg.base.total_points << " grid points x "
            << cfg.base.time_steps << " steps, " << cfg.samples
            << " samples per configuration\n\n";

  core::granularity_experiment exp(*backend, cfg);
  const auto points = exp.run([](const core::sweep_point& p) {
    std::fprintf(stderr, "  partition %-10zu exec %.4f s  idle %.1f%%\n",
                 p.partition_size, p.exec_time_s.mean(), p.m.idle_rate * 100);
  });

  table_writer table({"partition", "tasks", "td (us)", "exec (s)", "exec med (s)",
                      "exec min (s)", "COV", "idle (%)", "to (us)", "To (s)",
                      "tw (us)", "Tw (s)", "pending acc"});
  for (const auto& p : points) {
    table.add_row({format_count(static_cast<std::int64_t>(p.partition_size)),
                   format_count(static_cast<std::int64_t>(p.num_tasks)),
                   format_number(p.m.task_duration_ns / 1e3, 2),
                   format_number(p.exec_time_s.mean(), 4),
                   format_number(p.exec_time_s.median(), 4),
                   format_number(p.exec_time_s.min(), 4),
                   format_number(p.cov, 3),
                   format_number(p.m.idle_rate * 100, 1),
                   format_number(p.m.task_overhead_ns / 1e3, 2),
                   format_number(p.m.tm_overhead_s, 4),
                   format_number(p.m.wait_per_task_ns / 1e3, 2),
                   format_number(p.m.wait_time_s, 4),
                   format_count(static_cast<std::int64_t>(p.mean.pending_accesses))});
  }
  std::cout << "\nGranularity characterization (paper metrics, Eqs. 1-6):\n";
  table.print(std::cout);

  // The three selection rules of §IV.
  const auto best = core::best_exec_time(points);
  const auto by_idle = core::idle_rate_threshold(points, threshold);
  const auto by_queue = core::pending_queue_minimum(points);

  table_writer rules({"rule", "picks partition", "exec (s)", "vs best"});
  rules.add_row({"best execution time (oracle)",
                 format_count(static_cast<std::int64_t>(best.partition_size)),
                 format_number(best.exec_time_s, 4), "-"});
  if (by_idle) {
    rules.add_row({"idle-rate <= " + format_number(threshold * 100, 0) + "% (SIV-A)",
                   format_count(static_cast<std::int64_t>(by_idle->partition_size)),
                   format_number(by_idle->exec_time_s, 4),
                   "+" + format_number(by_idle->regret * 100, 1) + "%"});
  } else {
    rules.add_row({"idle-rate <= " + format_number(threshold * 100, 0) + "% (SIV-A)",
                   "unsatisfiable", "-", "-"});
  }
  rules.add_row({"min pending-queue accesses (SIV-E)",
                 format_count(static_cast<std::int64_t>(by_queue.partition_size)),
                 format_number(by_queue.exec_time_s, 4),
                 "+" + format_number(by_queue.regret * 100, 1) + "%"});
  std::cout << "\nGrain-size selection rules:\n";
  rules.print(std::cout);

  const std::size_t pick = by_idle ? by_idle->partition_size : by_queue.partition_size;
  const double td =
      points[by_idle ? by_idle->index : by_queue.index].m.task_duration_ns;
  std::cout << "\nrecommendation: use tasks of ~" << format_count(static_cast<std::int64_t>(pick))
            << " grid points (~" << format_duration_ns(td)
            << " per task) on this configuration\n";

  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "characterize.csv"))
    std::cout << "(csv written to " << csv << "characterize.csv)\n";
  return 0;
}
