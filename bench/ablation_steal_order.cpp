// Ablation: NUMA-aware steal order (paper Fig. 1's 6-step search: local
// domain staged -> pending, then remote domains) vs. a NUMA-oblivious ring
// search over all workers. The physical cross-domain penalty applies either
// way; only the probe *order* changes.
//
// Measured outcome (see EXPERIMENTS.md): execution time is nearly identical
// — on this workload steals are rare relative to task count, so the search
// order is not load-bearing; what changes visibly is *where* work migrates
// (the stolen-task counts differ by 20-30 % at fine grain). The interesting
// conclusion is a negative result: the 6-step order matters for locality,
// not for the throughput of this dependency pattern.
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

  struct run_out {
    std::vector<core::sweep_point> pts;
  };
  std::vector<run_out> outs(2);
  std::vector<std::uint64_t> stolen[2];

  for (int aware = 1; aware >= 0; --aware) {
    sim::sim_backend backend(platform);
    backend.set_numa_aware_steal(aware == 1);
    core::sweep_config cfg;
    cfg.base = plan.base;
    cfg.partition_sizes = plan.partitions;
    cfg.cores = cores;
    cfg.samples = plan.samples;
    cfg.measure_baseline = false;
    core::granularity_experiment exp(backend, cfg);
    outs[static_cast<std::size_t>(1 - aware)].pts = exp.run();
    // Steal counts per point via direct simulation (the sweep driver only
    // keeps run_measurement; re-simulate once per point for the counts).
    for (const std::size_t ps : plan.partitions) {
      sim::sim_config scfg;
      scfg.model = backend.model();
      scfg.cores = cores;
      scfg.workload = plan.base;
      scfg.workload.partition_size = ps;
      scfg.workload.normalize();
      scfg.numa_aware_steal = aware == 1;
      stolen[1 - aware].push_back(sim::simulate_stencil(scfg).tasks_stolen);
    }
  }

  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    table.add_row({format_count(static_cast<std::int64_t>(plan.partitions[i])),
                   format_number(outs[0].pts[i].exec_time_s.mean(), 4),
                   format_number(outs[1].pts[i].exec_time_s.mean(), 4),
                   format_count(static_cast<std::int64_t>(stolen[0][i])),
                   format_count(static_cast<std::int64_t>(stolen[1][i]))});
  }
  emit_table(table, "Ablation: steal-order execution time (s)", opt.csv_prefix,
             "ablation_steal_order");
  return 0;
}
