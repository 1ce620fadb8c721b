// Ablation: topology-aware scheduling on the native runtime.
//
// Two sections, both over a parameterized task graph (graph/run_graph) on
// the work-stealing policy:
//
//   1. steal order — hierarchical victim tiers (SMT sibling -> same NUMA
//      domain -> remote, rotating start per tier) vs the flat fixed
//      (w+k) % n ring, for a compute-bound (busy_spin) and a bandwidth-
//      bound (memory_stream) kernel. Reports elapsed time plus the
//      stolen-local / stolen-remote split: the hierarchical order should
//      keep memory_stream steals inside the data's domain.
//   2. pinning layout — GRAN_PIN=compact vs scatter under the hierarchical
//      order (memory_stream kernel).
//
// On a single-NUMA host every victim is "local", so the two orders differ
// only in herd avoidance and the remote column reads 0; pass --domains=N to
// impose a synthetic domain split (the same override the simulator
// ablations use) and exercise the remote accounting.
//
//   $ ./ablation_topology                  # full grid
//   $ ./ablation_topology --quick          # CI smoke (seconds)
//   $ ./ablation_topology --domains=2
//
//   --pattern=NAME   graph pattern (default spread)   --width / --steps
//   --grain-ns=F     target task duration (default 20000)
//   --samples=N      repetitions per cell, median reported (default 5)
//   --workers=N      worker threads (default: all CPUs)
//   --domains=N      override NUMA domain count (default 0 = host)
//   --window=N       construction window, rows (default 8)
//
// Observability flags (--trace-out, --metrics-out, ...) are honored; see
// docs/TRACING.md.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/observability.hpp"
#include "threads/thread_manager.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

struct cell {
  std::string section;     // "steal-order" | "pin"
  std::string kernel;
  std::string variant;     // hier/flat or compact/scatter
  double elapsed_med_s = 0.0;
  std::uint64_t stolen = 0;
  std::uint64_t stolen_local = 0;
  std::uint64_t stolen_remote = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

cell run_cell(const graph::graph_spec& g, const graph::kernel_spec& k,
              scheduler_config cfg, int samples, std::size_t window) {
  thread_manager tm(cfg);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s)
    times.push_back(graph::run_graph(tm, g, k, window).elapsed_s);

  const auto tot = tm.counter_totals();
  cell c;
  c.elapsed_med_s = median(std::move(times));
  c.stolen = tot.tasks_stolen;
  c.stolen_remote = tot.tasks_stolen_remote;
  c.stolen_local = tot.tasks_stolen - std::min(tot.tasks_stolen, tot.tasks_stolen_remote);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(perf::observability_session::options_from_cli(
      args, perf::observability_session::options_from_env()));

  const bool quick = args.has("quick");

  graph::graph_spec g;
  g.kind = graph::pattern_from_name(args.get("pattern", "spread"));
  g.width = static_cast<std::uint32_t>(args.get_int("width", quick ? 64 : 256));
  g.steps = static_cast<std::uint32_t>(args.get_int("steps", quick ? 8 : 20));
  g.radius = static_cast<std::uint32_t>(args.get_int("radius", 2));
  if (const std::string err = g.validate(); !err.empty()) {
    std::cerr << "invalid graph spec: " << err << "\n";
    return 1;
  }

  const double grain_ns = args.get_double("grain-ns", quick ? 5'000.0 : 20'000.0);
  const int samples = static_cast<int>(args.get_int("samples", quick ? 2 : 5));
  const auto window = static_cast<std::size_t>(args.get_int("window", 8));

  scheduler_config base;
  base.num_workers = static_cast<int>(args.get_int("workers", 0));
  base.numa_domains = static_cast<int>(args.get_int("domains", 0));
  base.policy = "work-stealing-lifo";

  std::cout << "Ablation: topology-aware scheduling (" << g.describe() << ", "
            << g.total_tasks() << " tasks, grain " << grain_ns << " ns, "
            << samples << " samples per cell)\n";

  std::vector<cell> cells;

  // --- 1. hierarchical vs flat steal order -------------------------------
  for (const char* kernel : {"busy_spin", "memory_stream"}) {
    graph::kernel_spec k;
    k.kind = graph::kernel_from_name(kernel);
    k.grain_ns = grain_ns;
    for (const char* order : {"flat", "hier"}) {
      scheduler_config cfg = base;
      cfg.steal_order = order;
      cell c = run_cell(g, k, cfg, samples, window);
      c.section = "steal-order";
      c.kernel = kernel;
      c.variant = order;
      cells.push_back(c);
    }
  }

  table_writer steal_table({"kernel", "order", "exec med (s)", "stolen",
                            "stolen local", "stolen remote"});
  for (const auto& c : cells)
    steal_table.add_row({c.kernel, c.variant, format_number(c.elapsed_med_s, 4),
                         format_count(static_cast<std::int64_t>(c.stolen)),
                         format_count(static_cast<std::int64_t>(c.stolen_local)),
                         format_count(static_cast<std::int64_t>(c.stolen_remote))});
  std::cout << "\nSteal order: hierarchical vs flat ring\n";
  steal_table.print(std::cout);

  // --- 2. compact vs scatter pinning -------------------------------------
  {
    graph::kernel_spec k;
    k.kind = graph::kernel_kind::memory_stream;
    k.grain_ns = grain_ns;
    table_writer pin_table({"pin", "exec med (s)", "stolen", "stolen remote"});
    for (const char* pin : {"compact", "scatter"}) {
      scheduler_config cfg = base;
      cfg.steal_order = "hier";
      cfg.pin = pin;
      cell c = run_cell(g, k, cfg, samples, window);
      c.section = "pin";
      c.kernel = "memory_stream";
      c.variant = pin;
      cells.push_back(c);
      pin_table.add_row({pin, format_number(c.elapsed_med_s, 4),
                         format_count(static_cast<std::int64_t>(c.stolen)),
                         format_count(static_cast<std::int64_t>(c.stolen_remote))});
    }
    std::cout << "\nPinning layout (hier order, memory_stream)\n";
    pin_table.print(std::cout);
  }

  // Headline for the acceptance gate: hier vs flat on the bandwidth-bound
  // kernel (where victim locality is supposed to pay).
  double flat_ms = 0, hier_ms = 0;
  for (const auto& c : cells) {
    if (c.section != "steal-order" || c.kernel != "memory_stream") continue;
    (c.variant == "hier" ? hier_ms : flat_ms) = c.elapsed_med_s;
  }
  if (flat_ms > 0 && hier_ms > 0)
    std::cout << "\nmemory_stream speedup (flat / hier): "
              << format_number(flat_ms / hier_ms, 3) << "x\n";

  return 0;
}
