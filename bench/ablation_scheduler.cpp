// Ablation: scheduling policy vs. task granularity.
//
// The paper remarks (§I-A) that "different schedulers optimize performance
// for different task size" and defers the study to future work; this bench
// runs it on the simulator: priority-local-FIFO (the paper's scheduler),
// static-FIFO (no stealing), and work-stealing-LIFO, across the granularity
// sweep. Expected: static-FIFO collapses at coarse grains (no load
// balancing), work-stealing pays its spawn-time conversion at fine grains,
// priority-local tracks the better of the two.
//
// --mode=native runs the same comparison on this host's real runtime, with
// channel-steal (message-passing stealing, no simulator counterpart) as a
// fourth column.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  struct policy_case {
    const char* label;
    sim::sim_policy sim_policy;
    const char* native_policy;
  };
  std::vector<policy_case> policies = {
      {"priority-local-fifo", sim::sim_policy::priority_local, "priority-local-fifo"},
      {"static-fifo", sim::sim_policy::static_fifo, "static-fifo"},
      {"work-stealing-lifo", sim::sim_policy::work_stealing, "work-stealing-lifo"},
  };
  // Message-passing stealing exists only in the real runtime — the simulator
  // has no channel model — so the fourth column is native-mode only.
  if (opt.mode == "native")
    policies.push_back(
        {"channel-steal", sim::sim_policy::priority_local, "channel-steal"});

  const fig_plan plan = make_plan(opt, "haswell", {16}, 50);
  const int cores = plan.cores.front();

  std::cout << "Ablation: scheduling policies across task granularity ("
            << plan.platform_label << ", " << cores << " cores)\n";

  std::vector<std::string> header{"partition"};
  for (const auto& pc : policies) header.push_back(std::string(pc.label) + " (s)");
  table_writer table(std::move(header));

  std::vector<std::vector<core::sweep_point>> series;
  for (const auto& pc : policies) {
    std::unique_ptr<core::backend> backend;
    if (opt.mode == "native") {
      backend = std::make_unique<core::native_backend>(plan.base, pc.native_policy);
    } else {
      auto sb = std::make_unique<sim::sim_backend>(
          opt.platform.empty() ? "haswell" : opt.platform, plan.base);
      sb->set_policy(pc.sim_policy);
      backend = std::move(sb);
    }
    // Exec-time comparison only: no 1-core baselines.
    core::granularity_experiment exp(*backend, {plan.partitions, plan.samples, false});
    series.push_back(exp.run(cores, [&](const core::sweep_point& p) {
      if (!opt.quiet)
        std::fprintf(stderr, "  [%s] partition %-10.0f exec %.4f s\n", pc.label, p.x,
                     p.exec_time_s.mean());
    }));
  }

  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    std::vector<std::string> row{
        format_count(static_cast<std::int64_t>(series.front()[i].x))};
    for (const auto& s : series) row.push_back(format_number(s[i].exec_time_s.mean(), 4));
    table.add_row(std::move(row));
  }
  emit_table(table, "Ablation: execution time (s) by scheduling policy",
             opt.csv_prefix, "ablation_scheduler");
  return 0;
}
