// Granularity sweeps over parameterized task graphs (src/graph) — Task
// Bench's question asked with the paper's methodology: how does the
// overhead-vs-starvation U-curve move when the dependence *pattern*
// changes, with the per-task grain as the independent variable?
//
//   $ ./graph_sweep                                   # stencil1d, native
//   $ ./graph_sweep --pattern=random --fraction=0.5
//   $ ./graph_sweep --pattern=all --mode=sim --platform=haswell --cores=28
//   $ ./graph_sweep --full                            # finer grain axis
//
//   --pattern=NAME     trivial|serial_chain|stencil1d|fft|binary_tree|
//                      nearest|spread|random, or `all` (default stencil1d)
//   --mode=native|sim  real runtime of this host vs modeled platform
//   --width=N          tasks per step (default 256)
//   --steps=N          steps (default 20)
//   --radius=N         stencil/nearest window; spread fan count (default 1)
//   --fraction=F       random: per-candidate edge probability (default 0.25)
//   --graph-seed=N     random: structure seed (default 1)
//   --kernel=NAME      busy_spin|memory_stream|dgemm_like (default busy_spin)
//   --imbalance=F      per-task grain spread in [0,1) (default 0)
//   --grain-min=NS --grain-max=NS --per-decade=N   geometric grain axis
//                      (defaults 1e3 .. 1e6 ns, 2/decade; --full: 1/2 decade
//                      lower and 4/decade)
//   --samples=N        repetitions per grain (default 3)
//   --workers=N        native worker threads (default: all CPUs)
//   --policy=NAME      native scheduling policy (the GRAN_POLICY knob)
//   --window=N         native construction window, rows (default 0 = none)
//   --platform=NAME    sim platform (default haswell)  --cores=N (default: all)
//   --csv=PREFIX       also write PREFIXgraph_sweep_<pattern>.csv
//   --report           native mode: trace the whole sweep and print the
//                      offline analysis (critical path, per-task waits,
//                      Eq. 1–3 recomputed from events) after the table;
//                      see docs/ANALYSIS.md
//
// The knob table's flags (README "Configuration") are honored in native mode.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/analysis.hpp"
#include "perf/observability.hpp"
#include "sim/sim_backend.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

int run_pattern(graph::pattern kind, const cli_args& args, bool sim_mode,
                const sim::machine_model& model, int cores) {
  const bool full = args.has("full");
  core::graph_workload w;
  w.graph.kind = kind;
  w.graph.width = static_cast<std::uint32_t>(args.get_int("width", 256));
  w.graph.steps = static_cast<std::uint32_t>(args.get_int("steps", 20));
  w.graph.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
  w.graph.fraction = args.get_double("fraction", 0.25);
  w.graph.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));
  if (const std::string err = w.graph.validate(); !err.empty()) {
    std::cerr << "invalid graph spec: " << err << "\n";
    return 1;
  }
  w.kernel.kind = args.get_named("kernel", "busy_spin", graph::kernel_from_name);
  w.kernel.imbalance = args.get_double("imbalance", 0.0);
  w.window = static_cast<std::size_t>(args.get_int("window", 0));

  std::unique_ptr<core::backend> backend;
  if (sim_mode)
    backend = std::make_unique<sim::sim_backend>(model, w);
  else
    backend = std::make_unique<core::native_backend>(w);

  core::sweep_config cfg;
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  cfg.axis = core::granularity_sweep(args.get_double("grain-min", full ? 316.0 : 1e3),
                                     args.get_double("grain-max", 1e6),
                                     static_cast<int>(args.get_int("per-decade", full ? 4 : 2)));

  std::cout << "\n" << w.graph.describe() << " on " << backend->name() << ", " << cores
            << " cores: " << w.graph.total_tasks() << " tasks, " << w.graph.total_edges()
            << " edges, " << cfg.samples << " samples per grain\n";

  core::granularity_experiment exp(*backend, cfg);
  const auto points = exp.run(cores, [](const core::sweep_point& p) {
    std::fprintf(stderr, "  grain %-10.0f exec %.4f s  idle %.1f%%\n", p.x,
                 p.exec_time_s.mean(), p.m.idle_rate * 100);
  });

  // Eq. 1–6 metrics per grain; exec time reported as mean / median / min
  // over the samples (Task Bench reports minimum-over-samples — min is the
  // least noise-contaminated, mean feeds the paper's averaged counters).
  const table_writer table = core::metrics_table(points, core::grain_axis());
  table.print(std::cout);

  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    const std::string path =
        csv + "graph_sweep_" + graph::pattern_name(kind) + ".csv";
    if (table.save_csv(path)) std::cout << "(csv written to " << path << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);

  const bool sim_mode = args.get_choice("mode", "native", {"native", "sim"}) == "sim";
  const sim::machine_model model = args.get_named("platform", "haswell", sim::make_machine_model);
  std::vector<graph::pattern> kinds(std::begin(graph::all_patterns),
                                    std::end(graph::all_patterns));
  if (args.get("pattern") != "all")
    kinds = {args.get_named("pattern", "stencil1d", graph::pattern_from_name)};
  const bool report = args.has("report") && !sim_mode;
  // --report needs events even when no export flag turned tracing on. Must
  // happen before the backend builds its first thread manager.
  if (report)
    perf::tracer::instance().enable(static_cast<std::size_t>(config::integer(config::trace_buf)));

  const int cores = static_cast<int>(
      sim_mode ? args.get_int("cores", model.spec.cores)
               : args.get_int("workers", topology::host().num_cpus()));

  int rc = 0;
  for (const graph::pattern kind : kinds)
    if ((rc = run_pattern(kind, args, sim_mode, model, cores)) != 0) break;

  if (rc == 0 && report) {
    // All managers are gone (one per run, destroyed inside the backend), so
    // the rings are quiescent. The trace spans every run of the sweep —
    // baselines included — which is exactly what the U-curve question wants
    // side by side.
    obs.finish();  // flush any requested exports before analyzing
    perf::analysis_options opt;
    opt.top_n = static_cast<int>(args.get_int("top", 10));
    opt.force_wait_attribution = args.has("force-waits");
    const perf::trace_dump dump = perf::tracer::instance().dump();
    std::cout << "\n";
    perf::write_report(std::cout, perf::analyze_trace(dump, opt), opt);
  }
  return rc;
}
