// gran_trace_report — offline trace analysis CLI.
//
// Two modes:
//
//  * File mode: `gran_trace_report --in=trace.bin` loads a binary dump
//    (written by --trace-bin / GRAN_TRACE_BIN or tracer::export_binary) and
//    prints the analysis report — per-task wait/exec/suspend decomposition,
//    critical path, reconstructed timelines, Eq. 1–3 recomputed from events.
//
//  * In-process mode (no --in): runs a task-graph workload right here with
//    tracing on, then analyzes its own trace and cross-checks the
//    event-derived Eq. 1–3 against the live /threads counters — the
//    acceptance loop for the analyzer itself.
//
//   gran_trace_report --in=PATH [--csv=PATH] [--top=N] [--force-waits]
//   gran_trace_report [--pattern=stencil1d] [--width=32] [--steps=16]
//                     [--grain=20000] [--kernel=busy_spin] [--workers=N]
//                     [--policy=priority-local-fifo] [--window=0]
//                     [--trace-buf=N] [--save=PATH] [--csv=PATH] [--top=N]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "graph/executor.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/analysis.hpp"
#include "perf/pmu.hpp"
#include "perf/trace.hpp"
#include "perf/observability.hpp"
#include "threads/thread_manager.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"

namespace {

using namespace gran;

int analyze_and_print(const perf::trace_dump& dump, const cli_args& args,
                      const thread_manager::totals* counters) {
  perf::analysis_options opt;
  opt.top_n = static_cast<int>(args.get_int("top", 10));
  opt.force_wait_attribution = args.has("force-waits");

  const perf::analysis_result r = perf::analyze_trace(dump, opt);
  perf::write_report(std::cout, r, opt);
  if (!r.ok) return 1;

  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    std::ofstream f(csv);
    if (!f) {
      std::cerr << "cannot open " << csv << "\n";
      return 1;
    }
    perf::write_task_csv(f, r);
    std::cout << "(per-task csv: " << r.tasks.size() << " rows written to "
              << csv << ")\n";
  }

  if (counters != nullptr) {
    // Same definitions as the /threads counters (core/metrics.hpp): the
    // analyzer reconstructs them from events alone, so agreement here means
    // the trace carries the full story the counters summarize.
    const auto& c = *counters;
    const double c_idle =
        c.func_ns > 0 ? static_cast<double>(c.func_ns - std::min(c.func_ns, c.exec_ns)) /
                            static_cast<double>(c.func_ns)
                      : 0.0;
    const double c_td = c.tasks_executed > 0
                            ? static_cast<double>(c.exec_ns) /
                                  static_cast<double>(c.tasks_executed)
                            : 0.0;
    const double c_to = c.tasks_executed > 0
                            ? static_cast<double>(c.func_ns - std::min(c.func_ns, c.exec_ns)) /
                                  static_cast<double>(c.tasks_executed)
                            : 0.0;
    const auto pct_diff = [](double a, double b) {
      const double ref = std::max(std::abs(a), std::abs(b));
      return ref > 0 ? 100.0 * std::abs(a - b) / ref : 0.0;
    };
    std::uint64_t enqueues = 0;
    for (const auto& t : r.tasks)
      if (t.has_enqueue) ++enqueues;
    char line[160];
    std::cout << "counter cross-check (trace vs live /threads counters):\n";
    std::snprintf(line, sizeof line,
                  "  eq1 idle-rate: %.4f vs %.4f  (diff %.1f%%)\n", r.idle_rate,
                  c_idle, pct_diff(r.idle_rate, c_idle));
    std::cout << line;
    std::snprintf(line, sizeof line,
                  "  eq2 td:        %.2f us vs %.2f us  (diff %.1f%%)\n",
                  r.task_duration_ns / 1e3, c_td / 1e3,
                  pct_diff(r.task_duration_ns, c_td));
    std::cout << line;
    std::snprintf(line, sizeof line,
                  "  eq3 to:        %.2f us vs %.2f us  (diff %.1f%%)\n",
                  r.task_overhead_ns / 1e3, c_to / 1e3,
                  pct_diff(r.task_overhead_ns, c_to));
    std::cout << line;
    std::cout << "  spawned:       " << enqueues << " enqueue events vs "
              << c.tasks_spawned << " counter\n";
  }
  return 0;
}

int run_in_process(const cli_args& args) {
  graph::graph_spec g;
  g.kind = args.get_named("pattern", "stencil1d", graph::pattern_from_name);
  g.width = static_cast<std::uint32_t>(args.get_int("width", 32));
  g.steps = static_cast<std::uint32_t>(args.get_int("steps", 16));
  g.radius = static_cast<std::uint32_t>(args.get_int("radius", 1));
  g.fraction = args.get_double("fraction", 0.25);
  g.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string err = g.validate();
  if (!err.empty()) {
    std::cerr << "invalid graph spec: " << err << "\n";
    return 1;
  }

  graph::kernel_spec k;
  k.kind = args.get_named("kernel", "busy_spin", graph::kernel_from_name);
  k.grain_ns = args.get_double("grain", 20000.0);
  k.imbalance = args.get_double("imbalance", 0.0);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers =
      static_cast<int>(args.get_int("workers", std::max(2, hw / 2)));
  const auto window = static_cast<std::size_t>(args.get_int("window", 0));

  // Kernel calibration is once-per-process and runs on this thread inside
  // run_graph; pay it now so it doesn't show up as dead wall time (parked
  // workers) at the head of the trace.
  (void)graph::calibrated_rates();

  // The tracer must be live before the manager is built — workers cache
  // their ring pointers at construction. (The PMU plane of --pmu / GRAN_PMU
  // is already configured: observability_session started the observers.)
  auto& tr = perf::tracer::instance();
  tr.enable(static_cast<std::size_t>(config::integer(config::trace_buf)));

  scheduler_config cfg;
  cfg.num_workers = workers;

  thread_manager::totals totals;
  graph::run_stats stats;
  {
    thread_manager tm(cfg);
    tm.reset_counters();
    stats = graph::run_graph(tm, g, k, window);
    // Join the workers before touching rings or counters: quiescent
    // producers are the precondition for dump(), and a stopped manager
    // can't keep growing t_func under us.
    tm.stop();
    totals = tm.counter_totals();
  }
  const perf::trace_dump dump = tr.dump();
  tr.disable();

  std::cout << "ran " << g.describe() << " kernel=" << args.get("kernel", "busy_spin")
            << " grain=" << k.grain_ns << "ns workers=" << workers << " ("
            << stats.tasks << " tasks, " << stats.edges << " edges, "
            << std::fixed << stats.elapsed_s * 1e3 << " ms)\n";

  const std::string save = args.get("save", "");
  if (!save.empty()) {
    if (!tr.export_binary(save)) return 1;
    std::cout << "(binary trace saved to " << save << ")\n";
  }
  return analyze_and_print(dump, args, &totals);
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "gran_trace_report: analyze a gran binary trace dump\n"
           "  --in=PATH       load a dump written by --trace-bin/GRAN_TRACE_BIN\n"
           "  --csv=PATH      write the per-task decomposition as CSV\n"
           "  --top=N         chain/top-waiter rows in the report (default 10)\n"
           "  --force-waits   attribute waits even when events were dropped\n"
           "without --in, runs a traced graph workload in-process:\n"
           "  --pattern= --width= --steps= --radius= --fraction= --seed=\n"
           "  --kernel= --grain= --imbalance= --workers= --policy= --window=\n"
           "  --save=PATH     also save the captured trace as a binary dump\n"
           "plus the knob table's flags (--trace-buf, --pmu, ...; README\n"
           "\"Configuration\").\n";
    return 0;
  }
  perf::observability_session obs(args);

  const std::string in = args.get("in", "");
  if (in.empty()) return run_in_process(args);

  gran::perf::trace_dump dump;
  if (!gran::perf::load_trace_binary(in, dump)) {
    std::cerr << "cannot load trace dump from " << in
              << " (missing file or not a GRANTRC1 binary dump — note that "
                 "Chrome JSON exports are not loadable; use --trace-bin)\n";
    return 1;
  }
  std::cout << "loaded " << in << ": " << dump.total_events() << " events in "
            << dump.lanes.size() << " lanes\n";
  return analyze_and_print(dump, args, nullptr);
}
