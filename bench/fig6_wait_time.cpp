// Fig. 6: wait time per HPX-thread (Eq. 5) vs. partition size on Haswell
// for 4 / 8 / 16 / 28 cores, over the fine-to-medium band the paper plots
// (10 k – 100 k grid points per partition).
//
// Expected shape: wait time per task increases with the number of cores and
// with the partition size — the signature of shared-memory-bandwidth
// contention.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  fig_options opt = parse_fig_options(args);
  // The paper's Fig. 6 zooms into 10k..100k partitions.
  if (opt.min_partition == 0) opt.min_partition = 10'000;
  if (opt.max_partition == 0) opt.max_partition = 100'000;
  if (opt.per_decade == 0) opt.per_decade = 9;

  const fig_plan plan = make_plan(opt, "haswell", {4, 8, 16, 28}, 50);

  std::cout << "Fig. 6: Wait Time per HPX-Thread (us), " << plan.platform_label << "\n";

  std::vector<std::string> header{"partition"};
  for (const int c : plan.cores) header.push_back(std::to_string(c) + " cores (us)");
  table_writer table(std::move(header));

  const auto series = run_series(plan, opt.quiet);

  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    std::vector<std::string> row{
        format_count(static_cast<std::int64_t>(series.front()[i].x))};
    for (const auto& s : series)
      row.push_back(format_number(s[i].m.wait_per_task_ns / 1e3, 2));
    table.add_row(std::move(row));
  }
  emit_table(table, "Fig. 6: wait time per task (us) vs. partition size",
             opt.csv_prefix, "fig6_" + plan.platform_label);
  return 0;
}
