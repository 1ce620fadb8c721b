// Ablation: NUMA-aware steal order (paper Fig. 1's 6-step search: local
// domain staged -> pending, then remote domains) vs. a NUMA-oblivious ring
// search over all workers. The physical cross-domain penalty applies either
// way; only the probe *order* changes.
//
// Measured outcome (see EXPERIMENTS.md): execution time is nearly identical
// — on this workload steals are rare relative to task count, so the search
// order is not load-bearing; what changes visibly is *where* work migrates
// (the NUMA-aware order steals 19-32 % more tasks at fine grain). The
// interesting conclusion is a negative result: the 6-step order matters for
// locality, not for the throughput of this dependency pattern.
#include <iostream>

#include "bench/fig_common.hpp"

using namespace gran;
using namespace gran::bench;

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);
  const fig_options opt = parse_fig_options(args);

  const fig_plan plan = make_plan(opt, "haswell", {28}, 50);
  const int cores = plan.cores.front();
  const std::string platform = opt.platform.empty() ? "haswell" : opt.platform;

  std::cout << "Ablation: NUMA-aware vs. oblivious steal order (" << platform << ", "
            << cores << " cores)\n";

  table_writer table({"partition", "numa-aware (s)", "oblivious (s)", "stolen aware",
                      "stolen oblivious"});

  // [0]: NUMA-aware, [1]: oblivious. Exec-time comparison only: no 1-core
  // baselines. The steal counts are the timed runs' own.
  std::vector<core::sweep_point> series[2];
  for (int i = 0; i < 2; ++i) {
    sim::sim_backend backend(platform, plan.base);
    backend.set_numa_aware_steal(i == 0);
    core::granularity_experiment exp(backend, {plan.partitions, plan.samples, false});
    series[i] = exp.run(cores);
  }

  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    table.add_row({format_count(static_cast<std::int64_t>(plan.partitions[i])),
                   format_number(series[0][i].exec_time_s.mean(), 4),
                   format_number(series[1][i].exec_time_s.mean(), 4),
                   format_count(static_cast<std::int64_t>(series[0][i].stolen)),
                   format_count(static_cast<std::int64_t>(series[1][i].stolen))});
  }
  emit_table(table, "Ablation: steal-order execution time (s)", opt.csv_prefix,
             "ablation_steal_order");
  return 0;
}
