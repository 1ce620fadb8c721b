// Fig. 3 (a–d): execution time vs. task granularity (partition size) for an
// increasing number of cores, on all four platforms.
//
// Paper setup: 100 M grid points, 50 time steps (5 on the Xeon Phi), strong
// scaling. Default here is a 10 M-point grid so the whole figure regenerates
// in seconds; pass --full for paper scale. Expected shape per platform:
// execution time high for very fine grains (task-management overhead), flat
// minimum in the 20 k–1 M range, rising again for coarse grains (starvation),
// with more cores lowering the floor until wait time saturates it.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

namespace {

struct subplot {
  const char* platform;
  std::vector<int> cores;
  std::size_t steps;
};

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  const std::vector<subplot> subplots = {
      {"sandy-bridge", {1, 2, 4, 8, 12, 16}, 50},
      {"ivy-bridge", {1, 2, 4, 8, 16, 20}, 50},
      {"haswell", {1, 2, 4, 8, 16, 28}, 50},
      {"xeon-phi", {1, 2, 4, 8, 16, 32, 60}, 5},
  };

  std::cout << "Fig. 3: Execution Time vs. Task Granularity, four platforms\n";

  for (const auto& sp : subplots) {
    if (!opt.platform.empty() && opt.platform != sp.platform) continue;
    const fig_plan plan = make_plan(opt, sp.platform, sp.cores, sp.steps);

    // Header: partition | one column per core count.
    std::vector<std::string> header{"partition"};
    for (const int c : plan.cores) header.push_back(std::to_string(c) + " cores (s)");
    table_writer table(std::move(header));

    const auto series = run_series(plan, opt.quiet);

    for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
      std::vector<std::string> row{format_count(
          static_cast<std::int64_t>(series.front()[i].x))};
      for (const auto& s : series) row.push_back(format_number(s[i].exec_time_s.mean(), 4));
      table.add_row(std::move(row));
    }

    emit_table(table,
               "Fig. 3 (" + plan.platform_label + "): execution time (s) vs. partition size",
               opt.csv_prefix, "fig3_" + plan.platform_label);
  }
  return 0;
}
