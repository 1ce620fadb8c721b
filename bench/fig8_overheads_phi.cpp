// Fig. 8 (a–c): execution time, HPX-thread-management overhead (Eq. 4) and
// wait time (Eq. 6) on the Xeon Phi, 16 / 32 / 60 cores, 5 time steps.
// Same decomposition as Fig. 7 on the manycore platform.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 8: HPX-Thread Management (TM) and Wait Time (WT), Xeon Phi\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"WT (s)", [](const core::sweep_point& p) { return p.m.wait_time_s; }, 4},
      {"HPX-TM (s)", [](const core::sweep_point& p) { return p.m.tm_overhead_s; }, 4},
      {"TM & WT (s)", [](const core::sweep_point& p) { return p.m.tm_plus_wait_s; }, 4},
  };
  run_metric_figure(opt, "fig8", "xeon-phi", {16, 32, 60}, 5, columns);
  return 0;
}
