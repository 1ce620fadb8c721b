// gran-characterize: the paper's methodology packaged as a tool.
//
// Runs the granularity characterization on THIS machine (or a modeled
// platform), computes every metric of §II-A, applies the grain-size
// selection rules of §IV, and prints a recommendation — the "auto-tuning
// infrastructure" step the paper lists as its goal.
//
//   $ ./gran_characterize                         # native, defaults
//   $ ./gran_characterize --points=4000000 --steps=20 --workers=4 --samples=5
//   $ ./gran_characterize --mode=sim --platform=haswell --workers=28
//   $ ./gran_characterize --workload=random --mode=sim   # a task graph
//   $ ./gran_characterize --csv=results/          # machine-readable output
//
// Output: the full metric table (execution time, COV, idle-rate, task
// duration/overhead, TM overhead, wait time, pending-queue accesses), the
// three selection rules side by side, and a one-line recommendation — the
// same for the heat-ring partition sweep and for a task graph's grain sweep
// (--workload).
#include <iostream>
#include <memory>

#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/observability.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  perf::observability_session obs(args);

  const bool sim_mode = args.get_choice("mode", "native", {"native", "sim"}) == "sim";
  const sim::machine_model model = args.get_named("platform", "haswell", sim::make_machine_model);
  const bool graph_mode = args.has("workload");
  const int cores = static_cast<int>(
      args.get_int("workers", sim_mode ? model.spec.cores : topology::host().num_cpus()));
  const double threshold = args.get_double("threshold", 0.30);
  const int per_decade = static_cast<int>(args.get_int("per-decade", 3));

  // The workload and its grain axis: a task graph swept over its kernel
  // grain (ns), or the heat ring swept over its partition size.
  core::workload workload;
  core::sweep_config cfg;
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  std::string what;
  if (graph_mode) {
    core::graph_workload w;
    w.graph.kind = args.get_named("workload", "", graph::pattern_from_name);
    w.graph.width = static_cast<std::uint32_t>(args.get_int("width", 256));
    w.graph.steps = static_cast<std::uint32_t>(args.get_int("graph-steps", 20));
    w.graph.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
    w.graph.fraction = args.get_double("fraction", 0.25);
    w.graph.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));
    if (const std::string err = w.graph.validate(); !err.empty()) {
      std::cerr << "invalid graph spec: " << err << "\n";
      return 1;
    }
    w.kernel.kind = args.get_named("kernel", "busy_spin", graph::kernel_from_name);
    w.kernel.imbalance = args.get_double("imbalance", 0.0);
    cfg.axis = core::granularity_sweep(args.get_double("grain-min", 1e3),
                                       args.get_double("grain-max", 1e6), per_decade);
    what = w.graph.describe() + " (" + std::to_string(w.graph.total_tasks()) + " tasks, " +
           std::to_string(w.graph.total_edges()) + " edges)";
    workload = w;
  } else {
    stencil::params p;
    p.total_points = static_cast<std::size_t>(
        args.get_int("points", sim_mode ? 10'000'000 : 1'000'000));
    p.time_steps = static_cast<std::size_t>(args.get_int("steps", 20));
    cfg.axis = core::granularity_sweep(args.get_int("min-partition", 250), p.total_points,
                                       per_decade);
    what = "the heat ring (" + std::to_string(p.total_points) + " grid points x " +
           std::to_string(p.time_steps) + " steps)";
    workload = p;
  }
  const core::axis_format axis = graph_mode ? core::grain_axis() : core::partition_axis();

  std::unique_ptr<core::backend> backend;
  if (sim_mode)
    backend = std::make_unique<sim::sim_backend>(model, workload);
  else
    backend = std::make_unique<core::native_backend>(workload);

  std::cout << "characterizing " << what << " on " << backend->name() << " with " << cores
            << " cores, " << cfg.samples << " samples per point\n\n";

  core::granularity_experiment exp(*backend, cfg);
  const auto points = exp.run(cores, [&](const core::sweep_point& p) {
    std::fprintf(stderr, "  %s %-10s exec %.4f s  idle %.1f%%\n", axis.title.c_str(),
                 axis.cell(p.x).c_str(), p.exec_time_s.mean(), p.m.idle_rate * 100);
  });

  const table_writer table = core::metrics_table(points, axis);
  std::cout << "\nGranularity characterization (paper metrics, Eqs. 1-6):\n";
  table.print(std::cout);
  std::cout << "\nGrain-size selection rules:\n";
  core::rules_table(points, threshold, axis).print(std::cout);

  // The idle-rate rule when it is satisfiable, else the pending-queue rule.
  const auto by_idle = core::idle_rate_threshold(points, threshold);
  const core::selection pick = by_idle ? *by_idle : core::pending_queue_minimum(points);
  const std::string grain =
      graph_mode ? "a kernel grain of ~" + format_duration_ns(pick.x)
                 : "tasks of ~" + axis.cell(pick.x) + " grid points";
  std::cout << "\nrecommendation: use " << grain << " (~"
            << format_duration_ns(points[pick.index].m.task_duration_ns)
            << " per task) on this configuration\n";

  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "characterize.csv"))
    std::cout << "(csv written to " << csv << "characterize.csv)\n";
  return 0;
}
