// Fig. 10 (a–c): pending-queue accesses and execution time vs. partition
// size on the Xeon Phi, 16 / 32 / 60 cores, 5 time steps. Same
// timestamp-free grain-size signal as Fig. 9 on the manycore platform.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 10: Pending Queue Accesses, Intel Xeon Phi\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"pending accesses (k)",
       [](const core::sweep_point& p) { return static_cast<double>(p.mean.pending_accesses) / 1e3; },
       1},
      {"pending misses (k)",
       [](const core::sweep_point& p) { return static_cast<double>(p.mean.pending_misses) / 1e3; },
       1},
  };
  run_metric_figure(opt, "fig10", "xeon-phi", {16, 32, 60}, 5, columns);
  return 0;
}
