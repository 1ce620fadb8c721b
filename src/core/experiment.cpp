#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "graph/executor.hpp"
#include "stencil/futurized.hpp"
#include "threads/thread_manager.hpp"
#include "util/log.hpp"

namespace gran::core {

stencil::params at(const stencil::params& base, double x) {
  stencil::params p = base;
  p.partition_size = static_cast<std::size_t>(std::llround(x));
  p.normalize();
  return p;
}

graph_workload at(const graph_workload& base, double x) {
  graph_workload w = base;
  w.kernel.grain_ns = x;
  if (w.total_ns > 0.0) {
    const auto n = static_cast<std::uint64_t>(w.total_ns / x);
    w.graph.width = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, n / w.graph.steps));
  }
  return w;
}

run_result native_backend::run(double x, int cores) {
  scheduler_config cfg;
  cfg.num_workers = cores;
  cfg.policy = policy_;

  thread_manager tm(cfg);
  const auto before = tm.counter_totals();

  run_result r;
  if (const auto* base = std::get_if<stencil::params>(&workload_)) {
    const stencil::params p = at(*base, x);
    r.x = static_cast<double>(p.partition_size);
    r.tasks = p.num_tasks();
    r.m.exec_time_s = stencil::run_futurized(tm, p).elapsed_s;
  } else {
    const graph_workload w = at(std::get<graph_workload>(workload_), x);
    const graph::run_stats stats = graph::run_graph(tm, w.graph, w.kernel, w.window);
    r.x = x;
    r.tasks = stats.tasks;
    r.edges = stats.edges;
    r.m.exec_time_s = stats.elapsed_s;
  }

  // Both runs return when the results are ready, which is signalled from
  // *inside* the final tasks' completion path; drain fully so the counter
  // totals include every task's accounting.
  tm.wait_idle();
  const auto after = tm.counter_totals();

  r.m.cores = tm.num_workers();
  r.m.tasks = after.tasks_executed - before.tasks_executed;
  r.m.phases = after.phases_executed - before.phases_executed;
  r.m.exec_ns = static_cast<double>(after.exec_ns - before.exec_ns);
  r.m.func_ns = static_cast<double>(after.func_ns - before.func_ns);
  r.m.pending_accesses = after.queues.pending_accesses - before.queues.pending_accesses;
  r.m.pending_misses = after.queues.pending_misses - before.queues.pending_misses;
  r.m.staged_accesses = after.queues.staged_accesses - before.queues.staged_accesses;
  r.m.staged_misses = after.queues.staged_misses - before.queues.staged_misses;
  r.stolen = after.tasks_stolen - before.tasks_stolen;
  return r;
}

std::vector<double> granularity_sweep(double lo, double hi, int per_decade) {
  GRAN_ASSERT(lo >= 1 && hi >= lo && per_decade >= 1);
  std::vector<double> axis;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double v = lo; v <= hi * 1.0001; v *= step) {
    const auto x = static_cast<double>(std::llround(v));
    if (axis.empty() || axis.back() != x) axis.push_back(x);
  }
  if (axis.empty() || axis.back() != hi) axis.push_back(hi);
  return axis;
}

axis_format partition_axis() {
  return {"partition", [](double x) { return format_count(static_cast<std::int64_t>(x)); }};
}

axis_format grain_axis() {
  return {"grain (us)", [](double x) { return format_number(x / 1e3, 2); }};
}

table_writer metrics_table(const std::vector<sweep_point>& sweep, const axis_format& axis) {
  table_writer table({axis.title, "tasks", "td (us)", "exec (s)", "exec med (s)",
                      "exec min (s)", "COV", "idle (%)", "to (us)", "To (s)", "tw (us)",
                      "Tw (s)", "pending acc"});
  for (const auto& p : sweep)
    table.add_row({axis.cell(p.x), format_count(static_cast<std::int64_t>(p.num_tasks)),
                   format_number(p.m.task_duration_ns / 1e3, 2),
                   format_number(p.exec_time_s.mean(), 4),
                   format_number(p.exec_time_s.median(), 4),
                   format_number(p.exec_time_s.min(), 4), format_number(p.cov, 3),
                   format_number(p.m.idle_rate * 100, 1),
                   format_number(p.m.task_overhead_ns / 1e3, 2),
                   format_number(p.m.tm_overhead_s, 4),
                   format_number(p.m.wait_per_task_ns / 1e3, 2),
                   format_number(p.m.wait_time_s, 4),
                   format_count(static_cast<std::int64_t>(p.mean.pending_accesses))});
  return table;
}

granularity_experiment::granularity_experiment(backend& b, sweep_config cfg)
    : backend_(b), cfg_(std::move(cfg)) {}

std::vector<sweep_point> granularity_experiment::run(int cores,
                                                     const progress_fn& progress) {
  // Baseline pass (Eq. 5 needs td measured on one core per x).
  if (cfg_.measure_baseline && td1_ns_.size() != cfg_.axis.size()) {
    td1_ns_.clear();
    for (const double x : cfg_.axis) {
      const run_measurement one = backend_.run(x, 1).m;
      td1_ns_.push_back(one.tasks ? one.exec_ns / static_cast<double>(one.tasks) : 0.0);
      GRAN_LOG_DEBUG("baseline td1(%g) = %.1f ns", x, td1_ns_.back());
    }
  }

  std::vector<sweep_point> points;
  points.reserve(cfg_.axis.size());
  for (std::size_t i = 0; i < cfg_.axis.size(); ++i) {
    sweep_point point;
    point.cores = cores;
    point.td1_ns = cfg_.measure_baseline ? td1_ns_[i] : 0.0;

    // The paper computes the metrics from the *average* of the event
    // counts over the samples (§II), not from per-sample metrics.
    run_measurement acc;
    double stolen = 0.0;
    for (int s = 0; s < cfg_.samples; ++s) {
      const run_result r = backend_.run(cfg_.axis[i], cores);
      point.x = r.x;
      point.num_tasks = r.tasks;
      point.num_edges = r.edges;
      stolen += static_cast<double>(r.stolen);
      point.exec_time_s.add(r.m.exec_time_s);
      acc.cores = r.m.cores;
      accumulate_measurement(acc, r.m);
    }
    point.mean = average_measurement(acc, cfg_.samples);
    point.stolen = static_cast<std::uint64_t>(std::llround(stolen / std::max(1, cfg_.samples)));
    point.cov = point.exec_time_s.cov();
    point.m = compute_metrics(point.mean, point.td1_ns);

    if (progress) progress(point);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace gran::core
