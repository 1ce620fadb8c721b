// Fig. 7 (a–c): execution time decomposed into HPX-thread-management
// overhead (To, Eq. 4) and wait time (Tw, Eq. 6) on Haswell, 8 / 16 / 28
// cores.
//
// Expected shape (paper §IV-B/C/D): TM overhead dominates and tracks
// execution time at fine grains; wait time tracks it through the mid range;
// their sum (TM & WT) mirrors execution time across the whole sweep, the
// gap to exec time being the useful computation. Wait time goes negative
// for very coarse partitions.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  std::cout << "Fig. 7: HPX-Thread Management (TM) and Wait Time (WT), Haswell\n";
  const std::vector<metric_column> columns = {
      {"exec time (s)", [](const core::sweep_point& p) { return p.exec_time_s.mean(); }, 4},
      {"WT (s)", [](const core::sweep_point& p) { return p.m.wait_time_s; }, 4},
      {"HPX-TM (s)", [](const core::sweep_point& p) { return p.m.tm_overhead_s; }, 4},
      {"TM & WT (s)", [](const core::sweep_point& p) { return p.m.tm_plus_wait_s; }, 4},
  };
  run_metric_figure(opt, "fig7", "haswell", {8, 16, 28}, 50, columns);
  return 0;
}
