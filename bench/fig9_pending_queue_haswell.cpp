// Fig. 9 (a–c): pending-queue accesses and execution time vs. partition
// size on Haswell, 8 / 16 / 28 cores.
//
// Expected shape (paper §IV-E): accesses are highest for very fine grains
// (every task passes through a pending queue), reach a minimum in the mid
// range, and rise again at coarse grains where starving workers probe the
// queues. The minimum marks an adequate grain size without needing any
// timestamp counters.
//
// --select evaluates the paper's claim that the access minimum lands within
// ~13 % of the best execution time.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 9: Pending Queue Accesses, Intel Haswell\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"pending accesses (k)",
       [](const core::sweep_point& p) { return static_cast<double>(p.mean.pending_accesses) / 1e3; },
       1},
      {"pending misses (k)",
       [](const core::sweep_point& p) { return static_cast<double>(p.mean.pending_misses) / 1e3; },
       1},
  };

  const auto series = run_metric_figure(opt, "fig9", "haswell", {8, 16, 28}, 50, columns);

  if (opt.select && !series.empty()) {
    std::cout << "\nSelector check (paper §IV-E, largest core count):\n";
    const auto& sweep = series.back();
    const auto best = core::best_exec_time(sweep);
    const auto sel = core::pending_queue_minimum(sweep);
    std::cout << "  best partition: " << static_cast<std::size_t>(best.x) << " at "
              << format_number(best.exec_time_s, 4) << " s\n"
              << "  min pending-accesses picks: " << static_cast<std::size_t>(sel.x) << " at "
              << format_number(sel.exec_time_s, 4) << " s ("
              << format_number(sel.regret * 100.0, 1) << "% above optimum)\n";
  }
  return 0;
}
