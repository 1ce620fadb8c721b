#include "core/experiment.hpp"

#include <cmath>

#include "stencil/futurized.hpp"
#include "threads/thread_manager.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gran::core {

native_backend::native_backend(std::string policy) : policy_(std::move(policy)) {}

run_measurement native_backend::run(const stencil::params& p, int cores) {
  scheduler_config cfg;
  cfg.num_workers = cores;
  cfg.policy = policy_;

  thread_manager tm(cfg);
  tm.reset_counters();
  const auto before = tm.counter_totals();

  const auto result = stencil::run_futurized(tm, p);

  // run_futurized returns when the results are ready, which is signalled
  // from *inside* the final tasks' completion path; drain fully so the
  // counter totals include every task's accounting.
  tm.wait_idle();
  const auto after = tm.counter_totals();

  run_measurement meas;
  meas.exec_time_s = result.elapsed_s;
  meas.cores = cores;
  meas.tasks = after.tasks_executed - before.tasks_executed;
  meas.phases = after.phases_executed - before.phases_executed;
  meas.exec_ns = static_cast<double>(after.exec_ns - before.exec_ns);
  meas.func_ns = static_cast<double>(after.func_ns - before.func_ns);
  meas.pending_accesses = after.queues.pending_accesses - before.queues.pending_accesses;
  meas.pending_misses = after.queues.pending_misses - before.queues.pending_misses;
  meas.staged_accesses = after.queues.staged_accesses - before.queues.staged_accesses;
  meas.staged_misses = after.queues.staged_misses - before.queues.staged_misses;
  return meas;
}

std::vector<std::size_t> granularity_sweep(std::size_t lo, std::size_t hi, int per_decade) {
  std::vector<std::size_t> sizes;
  GRAN_ASSERT(lo >= 1 && hi >= lo && per_decade >= 1);
  const double step = std::pow(10.0, 1.0 / per_decade);
  double v = static_cast<double>(lo);
  std::size_t prev = 0;
  while (v <= static_cast<double>(hi) * 1.0001) {
    const auto s = static_cast<std::size_t>(std::llround(v));
    if (s != prev) {
      sizes.push_back(s);
      prev = s;
    }
    v *= step;
  }
  if (sizes.empty() || sizes.back() != hi) sizes.push_back(hi);
  return sizes;
}

granularity_experiment::granularity_experiment(experiment_backend& backend,
                                               sweep_config cfg)
    : backend_(backend), cfg_(std::move(cfg)) {}

std::vector<sweep_point> granularity_experiment::run(const progress_fn& progress) {
  // Baseline pass (Eq. 5 needs td measured on one core per partition size).
  if (cfg_.measure_baseline && td1_ns_.size() != cfg_.partition_sizes.size()) {
    td1_ns_.clear();
    td1_ns_.reserve(cfg_.partition_sizes.size());
    for (const std::size_t ps : cfg_.partition_sizes) {
      stencil::params p = cfg_.base;
      p.partition_size = ps;
      p.normalize();
      const run_measurement one = backend_.run(p, 1);
      td1_ns_.push_back(one.tasks ? one.exec_ns / static_cast<double>(one.tasks) : 0.0);
      GRAN_LOG_DEBUG("baseline td1(%zu) = %.1f ns", ps, td1_ns_.back());
    }
  }

  std::vector<sweep_point> points;
  points.reserve(cfg_.partition_sizes.size());

  for (std::size_t i = 0; i < cfg_.partition_sizes.size(); ++i) {
    stencil::params p = cfg_.base;
    p.partition_size = cfg_.partition_sizes[i];
    p.normalize();

    sweep_point point;
    point.partition_size = p.partition_size;
    point.cores = cfg_.cores;
    point.num_tasks = p.num_tasks();
    point.td1_ns = cfg_.measure_baseline && i < td1_ns_.size() ? td1_ns_[i] : 0.0;

    // Accumulate counter means over the samples (the paper computes metrics
    // from the average of the event counts, §II).
    run_measurement acc;
    acc.cores = cfg_.cores;
    for (int s = 0; s < cfg_.samples; ++s) {
      const run_measurement meas = backend_.run(p, cfg_.cores);
      point.exec_time_s.add(meas.exec_time_s);
      accumulate_measurement(acc, meas);
    }
    point.mean = average_measurement(acc, cfg_.samples);
    point.cov = point.exec_time_s.cov();
    point.m = compute_metrics(point.mean, point.td1_ns);

    if (progress) progress(point);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace gran::core
