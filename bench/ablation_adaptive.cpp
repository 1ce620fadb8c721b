// Ablation: closed-loop granularity against the fixed-grain sweep — the
// paper's stated end goal ("dynamically adapting task size to optimize
// parallel performance"):
//
//   best-fixed      the winner of a log-spaced static chunk sweep (Fig. 3's
//                   oracle: pick the grain after seeing the whole curve)
//   lazy_chunk      demand-driven lazy splitting (core/split_controller.hpp
//                   + algo/splittable.hpp) — no grain parameter at all
//
// Run native (this host's runtime), simulated (sim/split_sim.hpp, the same
// sweep in deterministic virtual time), or both. The acceptance gate
// (--check) requires lazy_chunk to reach --ratio (default 0.9) of the best
// fixed grain's throughput for every kernel/mode cell — the controller must
// land near the sweet spot *without being told the grain*.
//
//   $ ./ablation_adaptive --items=1000000 --samples=3 --mode=both
//   $ ./ablation_adaptive --check --ratio=0.9
//
// Flags: --items, --workers, --samples, --item-ns (target per-item cost),
// --mode=native|sim|both, --kernel=busy_spin|memory_stream|both,
// --sim-cores (simulated core count, independent of native --workers),
// --sim-imbalance (per-task cost spread in the simulator), --platform,
// --check, --ratio.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/parallel_for.hpp"
#include "graph/kernels.hpp"
#include "perf/observability.hpp"
#include "sim/split_sim.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

struct cell {
  std::string mode;      // "native" | "sim"
  std::string kernel;    // "busy_spin" | "memory_stream"
  std::string strategy;  // "fixed" | "lazy"
  std::uint64_t chunk = 0;        // fixed: the swept chunk; lazy: 0
  double time_med_s = 0.0;
  double items_per_s = 0.0;
  std::uint64_t tasks = 0;        // tasks actually executed (median run)
  std::uint64_t splits = 0;       // lazy only
  double exec_s = 0.0;            // Σ t_exec across workers (native)
};

struct gate_row {
  std::string mode, kernel;
  std::uint64_t best_chunk = 0;
  double best_fixed_s = 0, lazy_s = 0;
  double lazy_vs_best = 0;
};

// Per-item native kernels, each ~item_ns of work. Both write a result the
// optimizer cannot discard; indices are touched exactly once per run, so the
// plain stores race with nothing. The body stays out of line so every
// strategy runs the same machine code per item: inlined into each chunking
// path, its alignment follows the layout of the whole binary, and an
// unrelated layout change can move lazy anywhere from ~70% to ~120% of best.
struct native_workload {
  long spin_iters = 0;                  // busy_spin: calibrated iterations
  std::vector<std::uint64_t>* stream = nullptr;  // memory_stream: 8 words/item

  [[gnu::noinline]] void operator()(std::size_t i) const {
    if (stream != nullptr) {
      std::uint64_t* w = stream->data() + i * 8;
      std::uint64_t acc = i;
      for (int k = 0; k < 8; ++k) {
        acc += w[k];
        w[k] = acc ^ (w[k] >> 1);
      }
    } else {
      // Latency-bound FP dependence chain with a single volatile sink per
      // item. A `volatile` accumulator inside the loop would be
      // store-forwarding bound, whose throughput on Skylake-era cores swings
      // ~2x with the code placement of each template instantiation — the
      // comparison would measure the linker, not the chunking strategy.
      double acc = 1.0;
      for (long k = 0; k < spin_iters; ++k) acc = acc * 1.0000001 + 0.1;
      volatile double sink = acc;
      (void)sink;
    }
  }
};

// Log-spaced fixed-grain sweep (the Fig. 3 axis), always including the
// one-chunk-per-worker point lazy starts from.
std::vector<std::uint64_t> sweep_chunks(std::uint64_t items, int workers) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t c = 16; c * 4 <= items; c *= 4) out.push_back(c);
  const std::uint64_t per_worker =
      std::max<std::uint64_t>(1, items / static_cast<std::uint64_t>(workers));
  if (out.empty() || out.back() < per_worker) out.push_back(per_worker);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(perf::observability_session::options_from_cli(
      args, perf::observability_session::options_from_env()));

  const auto items = static_cast<std::uint64_t>(args.get_int("items", 1'000'000));
  // Default to at most one worker per CPU: this is a throughput comparison,
  // and on an oversubscribed host every strategy just measures the OS
  // scheduler (splitting to "feed" a worker that shares your CPU can only
  // add handoffs). The simulator leg models multi-core behaviour regardless
  // of the host; --workers overrides for experiments.
  const int workers = static_cast<int>(args.get_int(
      "workers", std::max(1, std::min(4, topology::host().num_cpus()))));
  const int samples = static_cast<int>(args.get_int("samples", 3));
  const double item_ns = args.get_double("item-ns", 150.0);
  const double sim_imbalance = args.get_double("sim-imbalance", 0.5);
  const std::string mode = args.get("mode", "both");
  const std::string kernel_filter = args.get("kernel", "both");
  const std::string strategy_filter = args.get("strategy", "all");
  const std::string platform = args.get("platform", "haswell");
  const bool check = args.has("check");
  const double ratio_gate = args.get_double("ratio", 0.9);

  const bool run_native = mode == "native" || mode == "both";
  const bool run_sim = mode == "sim" || mode == "both";
  const bool run_spin = kernel_filter == "busy_spin" || kernel_filter == "both";
  const bool run_stream =
      kernel_filter == "memory_stream" || kernel_filter == "both";

  std::vector<cell> cells;
  std::vector<gate_row> gates;

  std::cout << "Ablation: best-fixed vs lazy_chunk ("
            << items << " items, ~" << item_ns << " ns/item, " << workers
            << " workers, median of " << samples << ")\n";

  // ---- native -------------------------------------------------------------
  if (run_native) {
    scheduler_config cfg;
    cfg.num_workers = workers;
    cfg.pin_workers = false;
    thread_manager tm(cfg);

    std::vector<std::pair<std::string, native_workload>> kernels;
    const long spin_iters = std::max<long>(
        1, static_cast<long>(item_ns * graph::calibrated_rates().spin_iters_per_ns));
    std::vector<std::uint64_t> stream_buf;
    if (run_spin) kernels.push_back({"busy_spin", {spin_iters, nullptr}});
    if (run_stream) {
      stream_buf.assign(items * 8, 0x9e3779b97f4a7c15ull);
      kernels.push_back({"memory_stream", {0, &stream_buf}});
    }

    for (auto& [kname, fn] : kernels) {
      // One untimed pass: calibration, first-touch, worker warmup.
      algo::parallel_for(tm, 0, items, fn, algo::static_chunk{items / 4});

      // Build every requested config up front, then take the samples
      // interleaved — one pass over all configs per sample round. Cloud hosts
      // drift between fast and slow phases on a scale of whole seconds;
      // consecutive sampling would charge that drift to whichever strategy
      // happened to run last, while round-robin sampling spreads it evenly
      // across the comparison.
      const bool want_fixed = strategy_filter == "all" || strategy_filter == "fixed";
      std::vector<std::pair<algo::chunking, cell>> runs;
      if (want_fixed)
        for (const std::uint64_t chunk : sweep_chunks(items, workers))
          runs.push_back({algo::static_chunk{static_cast<std::size_t>(chunk)},
                          cell{"native", kname, "fixed", chunk}});
      if (strategy_filter == "all" || strategy_filter == "lazy")
        runs.push_back({algo::lazy_chunk{}, cell{"native", kname, "lazy"}});

      std::vector<sample_stats> stats(runs.size());
      for (int s = 0; s < samples; ++s)
        for (std::size_t i = 0; i < runs.size(); ++i) {
          cell& c = runs[i].second;
          const auto before = tm.counter_totals();
          stopwatch clock;
          algo::parallel_for(tm, 0, items, fn, runs[i].first);
          stats[i].add(clock.elapsed_s());
          const auto after = tm.counter_totals();
          c.tasks = after.tasks_executed - before.tasks_executed;
          c.splits = after.tasks_split - before.tasks_split;
          c.exec_s = static_cast<double>(after.exec_ns - before.exec_ns) * 1e-9;
        }

      gate_row g{"native", kname};
      g.best_fixed_s = 1e300;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        cell& c = runs[i].second;
        c.time_med_s = stats[i].median();
        c.items_per_s = static_cast<double>(items) / c.time_med_s;
        if (c.strategy == "fixed" && c.time_med_s < g.best_fixed_s) {
          g.best_fixed_s = c.time_med_s;
          g.best_chunk = c.chunk;
        }
        if (c.strategy == "lazy") g.lazy_s = c.time_med_s;
        cells.push_back(c);
      }
      // The gate needs both sides; strategy-filtered runs just print cells.
      if (want_fixed && g.lazy_s > 0) {
        g.lazy_vs_best = g.best_fixed_s / g.lazy_s;
        gates.push_back(g);
      }
    }
  }

  // ---- simulated ----------------------------------------------------------
  // Deterministic virtual-time rerun of the same sweep. Per-task imbalance
  // (--sim-imbalance) gives lazy splitting hot blocks to fix, the situation
  // fixed grains can only hedge against.
  if (run_sim) {
    // The sim leg deliberately does NOT inherit the native worker count: its
    // job is to exercise multi-core splitting semantics even on hosts too
    // small to show them (the native leg on a 1-CPU box degenerates to
    // serial, where the right answer is "never split").
    const int sim_cores = static_cast<int>(args.get_int("sim-cores", 4));
    sim::split_sim_config base;
    base.model = sim::make_machine_model(platform);
    base.cores = sim_cores;
    base.items = items;
    base.imbalance = sim_imbalance;
    for (const char* kname_c : {"busy_spin", "memory_stream"}) {
      const std::string kname = kname_c;
      if (kname == "busy_spin" && !run_spin) continue;
      if (kname == "memory_stream" && !run_stream) continue;
      // Streaming items cost more per index than spin items at equal target
      // ns once bandwidth saturates; model that as a flat 2x.
      base.item_ns = kname == "busy_spin" ? item_ns : item_ns * 2.0;
      base.seed = kname == "busy_spin" ? 11 : 17;

      gate_row g{"sim", kname};
      g.best_fixed_s = 1e300;
      for (const std::uint64_t chunk : sweep_chunks(items, sim_cores)) {
        sim::split_sim_config c = base;
        c.lazy = false;
        c.chunk = chunk;
        const auto r = sim::run_split_sim(c);
        cells.push_back({"sim", kname, "fixed", chunk, r.makespan_s,
                         static_cast<double>(items) / r.makespan_s, r.tasks, 0});
        if (r.makespan_s < g.best_fixed_s) {
          g.best_fixed_s = r.makespan_s;
          g.best_chunk = chunk;
        }
      }
      {
        sim::split_sim_config c = base;
        c.lazy = true;
        const auto r = sim::run_split_sim(c);
        cells.push_back({"sim", kname, "lazy", 0, r.makespan_s,
                         static_cast<double>(items) / r.makespan_s, r.tasks,
                         r.splits});
        g.lazy_s = r.makespan_s;
      }
      g.lazy_vs_best = g.best_fixed_s / g.lazy_s;
      gates.push_back(g);
    }
  }

  // ---- report -------------------------------------------------------------
  table_writer table(
      {"mode", "kernel", "strategy", "chunk", "time (s)", "Mitems/s", "tasks",
       "splits", "exec (s)"});
  for (const auto& c : cells)
    table.add_row({c.mode, c.kernel, c.strategy,
                   c.chunk ? format_count(static_cast<std::int64_t>(c.chunk)) : "-",
                   format_number(c.time_med_s, 5),
                   format_number(c.items_per_s / 1e6, 2),
                   format_count(static_cast<std::int64_t>(c.tasks)),
                   format_count(static_cast<std::int64_t>(c.splits)),
                   c.exec_s > 0 ? format_number(c.exec_s, 5) : "-"});
  table.print(std::cout);

  bool pass = true;
  for (const auto& g : gates) {
    std::cout << g.mode << "/" << g.kernel << ": best fixed chunk "
              << g.best_chunk << " at " << format_number(g.best_fixed_s, 5)
              << " s; lazy " << format_number(g.lazy_s, 5) << " s ("
              << format_number(g.lazy_vs_best * 100, 1) << "% of best)\n";
    if (g.lazy_vs_best < ratio_gate) pass = false;
  }

  if (check && !pass) {
    std::cout << "FAIL: lazy_chunk below " << format_number(ratio_gate * 100, 0)
              << "% of best fixed grain\n";
    return 1;
  }
  return 0;
}
