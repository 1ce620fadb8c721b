// Fig. 5 (a–c): idle-rate and execution time vs. partition size on the
// Xeon Phi with 16 / 32 / 60 cores (paper: 5 time steps on the Phi).
// Same expected shape as Fig. 4 shifted right: the Phi's slow cores make
// tasks ~50x longer, so the overhead-dominated region extends further.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 5: Idle-rate, Intel Xeon Phi\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"idle-rate (%)", [](const core::sweep_point& p) { return p.m.idle_rate * 100.0; }, 1},
  };
  run_metric_figure(opt, "fig5", "xeon-phi", {16, 32, 60}, 5, columns);
  return 0;
}
