#include "core/graph_experiment.hpp"

#include <cmath>

#include "graph/executor.hpp"
#include "threads/thread_manager.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace gran::core {

native_graph_backend::native_graph_backend(std::string policy, std::size_t window)
    : policy_(std::move(policy)), window_(window) {}

graph_run_result native_graph_backend::run(const graph::graph_spec& g,
                                           const graph::kernel_spec& k,
                                           int cores) {
  scheduler_config cfg;
  cfg.num_workers = cores;
  cfg.policy = policy_;

  thread_manager tm(cfg);
  tm.reset_counters();
  const auto before = tm.counter_totals();

  const graph::run_stats stats = graph::run_graph(tm, g, k, window_);

  // run_graph returns when every task's future is ready, which is signalled
  // from *inside* the final tasks' completion path; drain fully so the
  // counter totals include every task's accounting.
  tm.wait_idle();
  const auto after = tm.counter_totals();

  graph_run_result r;
  r.tasks = stats.tasks;
  r.edges = stats.edges;
  r.m.exec_time_s = stats.elapsed_s;
  r.m.cores = cores;
  r.m.tasks = after.tasks_executed - before.tasks_executed;
  r.m.phases = after.phases_executed - before.phases_executed;
  r.m.exec_ns = static_cast<double>(after.exec_ns - before.exec_ns);
  r.m.func_ns = static_cast<double>(after.func_ns - before.func_ns);
  r.m.pending_accesses = after.queues.pending_accesses - before.queues.pending_accesses;
  r.m.pending_misses = after.queues.pending_misses - before.queues.pending_misses;
  r.m.staged_accesses = after.queues.staged_accesses - before.queues.staged_accesses;
  r.m.staged_misses = after.queues.staged_misses - before.queues.staged_misses;
  return r;
}

std::vector<double> grain_sweep_ns(double lo_ns, double hi_ns, int per_decade) {
  GRAN_ASSERT(lo_ns > 0.0 && hi_ns >= lo_ns && per_decade >= 1);
  std::vector<double> grains;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double v = lo_ns; v <= hi_ns * 1.0001; v *= step) grains.push_back(v);
  if (grains.empty() || grains.back() < hi_ns * 0.9999) grains.push_back(hi_ns);
  return grains;
}

graph_granularity_experiment::graph_granularity_experiment(graph_backend& backend,
                                                           graph_sweep_config cfg)
    : backend_(backend), cfg_(std::move(cfg)) {}

std::vector<graph_sweep_point> graph_granularity_experiment::run(
    const progress_fn& progress) {
  // Baseline pass (Eq. 5 needs td measured on one core per grain).
  if (cfg_.measure_baseline && td1_ns_.size() != cfg_.grains_ns.size()) {
    td1_ns_.clear();
    td1_ns_.reserve(cfg_.grains_ns.size());
    for (const double grain : cfg_.grains_ns) {
      graph::kernel_spec k = cfg_.kernel;
      k.grain_ns = grain;
      const run_measurement one = backend_.run(cfg_.graph, k, 1).m;
      td1_ns_.push_back(one.tasks ? one.exec_ns / static_cast<double>(one.tasks) : 0.0);
      GRAN_LOG_DEBUG("baseline td1(grain %.0f ns) = %.1f ns", grain, td1_ns_.back());
    }
  }

  std::vector<graph_sweep_point> points;
  points.reserve(cfg_.grains_ns.size());

  for (std::size_t i = 0; i < cfg_.grains_ns.size(); ++i) {
    graph::kernel_spec k = cfg_.kernel;
    k.grain_ns = cfg_.grains_ns[i];

    graph_sweep_point point;
    point.grain_ns = k.grain_ns;
    point.cores = cfg_.cores;
    point.td1_ns = cfg_.measure_baseline && i < td1_ns_.size() ? td1_ns_[i] : 0.0;

    run_measurement acc;
    acc.cores = cfg_.cores;
    for (int s = 0; s < cfg_.samples; ++s) {
      const graph_run_result res = backend_.run(cfg_.graph, k, cfg_.cores);
      point.num_tasks = res.tasks;
      point.num_edges = res.edges;
      point.exec_time_s.add(res.m.exec_time_s);
      accumulate_measurement(acc, res.m);
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
