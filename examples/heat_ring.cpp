// The paper's benchmark as an application: futurized 1-D heat diffusion on
// a ring (HPX-Stencil / 1d_stencil_4), with the granularity knob exposed.
//
//   $ ./heat_ring --points=1000000 --partition=10000 --steps=50 --workers=4
//   $ ./heat_ring --sweep                 # granularity sweep + metrics table
//
// Verifies the result against the serial reference and prints the paper's
// metrics (idle-rate, task duration/overhead, queue counters) for the run.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "core/metrics.hpp"
#include "stencil/futurized.hpp"
#include "stencil/serial.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

int run_single(const cli_args& args) {
  stencil::params p;
  p.total_points = static_cast<std::size_t>(args.get_int("points", 1'000'000));
  p.partition_size = static_cast<std::size_t>(args.get_int("partition", 10'000));
  p.time_steps = static_cast<std::size_t>(args.get_int("steps", 50));
  p.max_steps_in_flight = static_cast<std::size_t>(args.get_int("window", 0));
  p.normalize();

  scheduler_config cfg;
  cfg.num_workers = static_cast<int>(args.get_int("workers", 0));
  thread_manager tm(cfg);

  std::printf("heat ring: %zu points, %zu per partition (%zu partitions), %zu steps, %d workers\n",
              p.total_points, p.partition_size, p.num_partitions(), p.time_steps,
              tm.num_workers());

  tm.reset_counters();
  const auto result = stencil::run_futurized(tm, p);
  tm.wait_idle();  // drain the final tasks' accounting before reading counters

  // Correctness: bit-identical to the serial reference.
  const auto reference = stencil::run_serial(p);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (reference[i] != result.state[i]) ++mismatches;

  const auto totals = tm.counter_totals();
  core::run_measurement meas;
  meas.exec_time_s = result.elapsed_s;
  meas.cores = tm.num_workers();
  meas.tasks = totals.tasks_executed;
  meas.exec_ns = static_cast<double>(totals.exec_ns);
  meas.func_ns = static_cast<double>(totals.func_ns);
  const auto m = core::compute_metrics(meas, 0.0);

  std::printf("elapsed:        %.4f s (%s)\n", result.elapsed_s,
              mismatches == 0 ? "verified against serial reference"
                              : "MISMATCH vs serial reference!");
  std::printf("tasks executed: %llu\n",
              static_cast<unsigned long long>(totals.tasks_executed));
  std::printf("task duration:  %s\n", format_duration_ns(m.task_duration_ns).c_str());
  std::printf("task overhead:  %s\n", format_duration_ns(m.task_overhead_ns).c_str());
  std::printf("idle-rate:      %.1f %%\n", 100.0 * m.idle_rate);
  std::printf("pending queue:  %llu accesses, %llu misses\n",
              static_cast<unsigned long long>(totals.queues.pending_accesses),
              static_cast<unsigned long long>(totals.queues.pending_misses));
  std::printf("tasks stolen:   %llu\n",
              static_cast<unsigned long long>(totals.tasks_stolen));
  return mismatches == 0 ? 0 : 1;
}

int run_sweep(const cli_args& args) {
  stencil::params base;
  base.total_points = static_cast<std::size_t>(args.get_int("points", 1'000'000));
  base.time_steps = static_cast<std::size_t>(args.get_int("steps", 20));
  const int cores = static_cast<int>(args.get_int("workers", topology::host().num_cpus()));
  core::sweep_config cfg;
  cfg.samples = static_cast<int>(args.get_int("samples", 2));
  cfg.axis = core::granularity_sweep(args.get_int("min-partition", 250), base.total_points, 2);

  core::native_backend backend(base);
  core::granularity_experiment exp(backend, cfg);

  const auto points = exp.run(cores, [](const core::sweep_point& pt) {
    std::fprintf(stderr, "  partition %-9.0f done\n", pt.x);
  });
  std::cout << "\nGranularity sweep on this host (" << cores << " workers):\n";
  core::metrics_table(points, core::partition_axis()).print(std::cout);
  std::cout << "\nGrain-size selection rules:\n";
  core::rules_table(points, 0.30, core::partition_axis()).print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  return args.has("sweep") ? run_sweep(args) : run_single(args);
}
