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

#include "core/graph_experiment.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/analysis.hpp"
#include "perf/observability.hpp"
#include "sim/graph_sim.hpp"
#include "sim/machine_model.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

int run_pattern(core::graph_backend& backend, graph::pattern kind,
                const cli_args& args, bool full, int cores) {
  core::graph_sweep_config cfg;
  cfg.graph.kind = kind;
  cfg.graph.width = static_cast<std::uint32_t>(args.get_int("width", 256));
  cfg.graph.steps = static_cast<std::uint32_t>(args.get_int("steps", 20));
  cfg.graph.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
  cfg.graph.fraction = args.get_double("fraction", 0.25);
  cfg.graph.seed = static_cast<std::uint64_t>(args.get_int("graph-seed", 1));
  if (const std::string err = cfg.graph.validate(); !err.empty()) {
    std::cerr << "invalid graph spec: " << err << "\n";
    return 1;
  }

  cfg.kernel.kind = graph::kernel_from_name(args.get("kernel", "busy_spin"));
  cfg.kernel.imbalance = args.get_double("imbalance", 0.0);
  cfg.cores = cores;
  cfg.samples = static_cast<int>(args.get_int("samples", 3));
  cfg.grains_ns = core::grain_sweep_ns(
      args.get_double("grain-min", full ? 316.0 : 1e3),
      args.get_double("grain-max", 1e6),
      static_cast<int>(args.get_int("per-decade", full ? 4 : 2)));

  std::cout << "\n" << cfg.graph.describe() << " on " << backend.name() << ", "
            << cfg.cores << " cores: " << cfg.graph.total_tasks() << " tasks, "
            << cfg.graph.total_edges() << " edges, " << cfg.samples
            << " samples per grain\n";

  core::graph_granularity_experiment exp(backend, cfg);
  const auto points = exp.run([](const core::graph_sweep_point& p) {
    std::fprintf(stderr, "  grain %-10.0f exec %.4f s  idle %.1f%%\n", p.grain_ns,
                 p.exec_time_s.mean(), p.m.idle_rate * 100);
  });

  // Eq. 1–6 metrics per grain; exec time reported as mean / median / min
  // over the samples (Task Bench reports minimum-over-samples — min is the
  // least noise-contaminated, mean feeds the paper's averaged counters).
  table_writer table({"grain (us)", "tasks", "edges", "td (us)", "exec mean (s)",
                      "exec med (s)", "exec min (s)", "COV", "idle (%)", "to (us)",
                      "To (s)", "tw (us)", "Tw (s)", "pending acc"});
  for (const auto& p : points) {
    table.add_row({format_number(p.grain_ns / 1e3, 2),
                   format_count(static_cast<std::int64_t>(p.num_tasks)),
                   format_count(static_cast<std::int64_t>(p.num_edges)),
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

  const bool full = args.has("full");
  const bool sim_mode = args.get("mode", "native") == "sim";
  const bool report = args.has("report") && !sim_mode;
  // --report needs events even when no export flag turned tracing on. Must
  // happen before the backend builds its first thread manager.
  if (report)
    perf::tracer::instance().enable(static_cast<std::size_t>(config::integer(config::trace_buf)));

  std::unique_ptr<core::graph_backend> backend;
  int cores;
  if (sim_mode) {
    const auto model = sim::make_machine_model(args.get("platform", "haswell"));
    cores = static_cast<int>(args.get_int("cores", model.spec.cores));
    backend = std::make_unique<sim::graph_sim_backend>(model);
  } else {
    cores = static_cast<int>(
        args.get_int("workers", topology::host().num_cpus()));
    backend = std::make_unique<core::native_graph_backend>(
        "", static_cast<std::size_t>(args.get_int("window", 0)));
  }

  const std::string pattern = args.get("pattern", "stencil1d");
  int rc = 0;
  if (pattern == "all") {
    for (const graph::pattern kind : graph::all_patterns)
      if ((rc = run_pattern(*backend, kind, args, full, cores)) != 0) break;
  } else {
    rc = run_pattern(*backend, graph::pattern_from_name(pattern), args, full, cores);
  }

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
