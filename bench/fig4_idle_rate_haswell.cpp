// Fig. 4 (a–c): idle-rate and execution time vs. partition size on the
// Haswell node with 8 / 16 / 28 cores.
//
// Expected shape (paper §IV-A): idle-rate up to ~90 % for very fine grains,
// falling through the mid range, and rising again for coarse grains where
// starved cores keep searching for work. In the 20 k–100 k band execution
// time *decreases while idle-rate increases* — the wait-time effect that
// makes idle-rate alone insufficient to pick the optimum.
//
// --select additionally evaluates the paper's §IV-A claim: a 30 % idle-rate
// threshold picks a partition size whose execution time is within the noise
// of the optimum.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 4: Idle-rate, Intel Haswell\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"idle-rate (%)", [](const core::sweep_point& p) { return p.m.idle_rate * 100.0; }, 1},
  };

  const auto series = run_metric_figure(opt, "fig4", "haswell", {8, 16, 28}, 50, columns);

  if (opt.select && !series.empty()) {
    std::cout << "\nSelector check (paper §IV-A, threshold 30% on the largest core count):\n";
    const auto& sweep = series.back();
    const auto best = core::best_exec_time(sweep);
    std::cout << "  best partition: " << static_cast<std::size_t>(best.x) << " at "
              << format_number(best.exec_time_s, 4) << " s\n";
    if (const auto sel = core::idle_rate_threshold(sweep, 0.30)) {
      std::cout << "  idle-rate<=30% picks: " << static_cast<std::size_t>(sel->x) << " at "
                << format_number(sel->exec_time_s, 4) << " s ("
                << format_number(sel->regret * 100.0, 1) << "% above optimum)\n";
    } else {
      std::cout << "  no partition satisfies the threshold\n";
    }
  }
  return 0;
}
