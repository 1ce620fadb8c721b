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
  core::sweep_config cfg;
  cfg.base.total_points = static_cast<std::size_t>(args.get_int("points", 1'000'000));
  cfg.base.time_steps = static_cast<std::size_t>(args.get_int("steps", 20));
  cfg.cores = static_cast<int>(args.get_int("workers", topology::host().num_cpus()));
  cfg.samples = static_cast<int>(args.get_int("samples", 2));
  cfg.partition_sizes = core::granularity_sweep(
      static_cast<std::size_t>(args.get_int("min-partition", 250)),
      cfg.base.total_points, 2);

  core::native_backend backend;
  core::granularity_experiment exp(backend, cfg);

  table_writer table({"partition", "tasks", "exec (s)", "COV", "idle-rate (%)",
                      "td (us)", "to (us)", "pending acc"});
  auto points = exp.run([](const core::sweep_point& pt) {
    std::fprintf(stderr, "  partition %-9zu done\n", pt.partition_size);
  });
  for (const auto& pt : points) {
    table.add_row({format_count(static_cast<std::int64_t>(pt.partition_size)),
                   format_count(static_cast<std::int64_t>(pt.num_tasks)),
                   format_number(pt.exec_time_s.mean(), 4), format_number(pt.cov, 3),
                   format_number(pt.m.idle_rate * 100, 1),
                   format_number(pt.m.task_duration_ns / 1e3, 1),
                   format_number(pt.m.task_overhead_ns / 1e3, 1),
                   format_count(static_cast<std::int64_t>(pt.mean.pending_accesses))});
  }
  std::cout << "\nGranularity sweep on this host (" << cfg.cores << " workers):\n";
  table.print(std::cout);

  const auto best = core::best_exec_time(points);
  std::cout << "best partition size: " << best.partition_size << " ("
            << format_number(best.exec_time_s, 4) << " s)\n";
  if (const auto sel = core::idle_rate_threshold(points, 0.30))
    std::cout << "idle-rate<=30% picks: " << sel->partition_size << " (+"
              << format_number(sel->regret * 100, 1) << "% vs best)\n";
  const auto pq = core::pending_queue_minimum(points);
  std::cout << "pending-queue minimum picks: " << pq.partition_size << " (+"
            << format_number(pq.regret * 100, 1) << "% vs best)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  return args.has("sweep") ? run_sweep(args) : run_single(args);
}
