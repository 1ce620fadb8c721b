// Granularity sweeps over parameterized task graphs (src/graph) — the
// Task-Bench-style generalization of the stencil experiment driver.
//
// The granularity axis here is the kernel grain (ns of work per task)
// rather than the partition size: the dependence structure is fixed by the
// graph_spec while the task size sweeps, which is exactly the paper's
// independent variable isolated from the problem decomposition. Both
// backends execute the *same* DAG — natively via dataflow futurization, or
// on the modeled machine via the discrete-event simulator — and report the
// observed task/edge counts so the two executions can be cross-checked
// exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

namespace gran::core {

// What one graph execution reports: the usual counter measurement plus the
// DAG shape actually realized (for native-vs-sim agreement checks).
struct graph_run_result {
  run_measurement m;
  std::uint64_t tasks = 0;  // tasks executed (== spec total_tasks())
  std::uint64_t edges = 0;  // dependence edges wired/signaled (== total_edges())
};

// Runs one (graph, kernel, cores) configuration.
class graph_backend {
 public:
  virtual ~graph_backend() = default;
  virtual std::string name() const = 0;
  virtual graph_run_result run(const graph::graph_spec& g,
                               const graph::kernel_spec& k, int cores) = 0;
};

// Native backend: real thread_manager + futurized DAG on this host. A fresh
// manager is built per run; counters are reset per run.
class native_graph_backend final : public graph_backend {
 public:
  // `policy` as in native_backend (empty = GRAN_POLICY); `window` bounds
  // live dataflow rows as in graph::futurize_dag (0: none).
  explicit native_graph_backend(std::string policy = "", std::size_t window = 0);
  std::string name() const override {
    return "native(" + (policy_.empty() ? config::text(config::policy) : policy_) + ")";
  }
  graph_run_result run(const graph::graph_spec& g, const graph::kernel_spec& k,
                       int cores) override;

 private:
  std::string policy_;
  std::size_t window_;
};

struct graph_sweep_config {
  graph::graph_spec graph;         // fixed dependence structure
  graph::kernel_spec kernel;       // grain_ns overwritten per sweep point
  std::vector<double> grains_ns;   // granularity axis (work per task, ns)
  int cores = 1;
  int samples = 3;                 // paper: 10
  bool measure_baseline = true;    // 1-core td1 pass for Eqs. 5/6
};

// One point of the sweep: all samples of one kernel grain.
struct graph_sweep_point {
  double grain_ns = 0.0;
  int cores = 1;
  std::uint64_t num_tasks = 0;
  std::uint64_t num_edges = 0;

  sample_stats exec_time_s;    // across samples
  double cov = 0.0;

  run_measurement mean;        // counters averaged over samples
  double td1_ns = 0.0;         // 1-core task duration baseline
  metrics m;                   // derived metrics (Eqs. 1–6)
};

// Geometric series of kernel grains from `lo_ns` to `hi_ns`, `per_decade`
// points per decade — mirrors granularity_sweep on the time axis.
std::vector<double> grain_sweep_ns(double lo_ns, double hi_ns,
                                   int per_decade = 4);

class graph_granularity_experiment {
 public:
  using progress_fn = std::function<void(const graph_sweep_point&)>;

  graph_granularity_experiment(graph_backend& backend, graph_sweep_config cfg);

  // Runs the full sweep; invokes `progress` after each completed point.
  std::vector<graph_sweep_point> run(const progress_fn& progress = nullptr);

  // Baseline pass: task durations td1 on one core per grain (measured once,
  // reusable across core counts).
  const std::vector<double>& baselines() const { return td1_ns_; }
  void set_baselines(std::vector<double> td1_ns) { td1_ns_ = std::move(td1_ns); }

 private:
  graph_backend& backend_;
  graph_sweep_config cfg_;
  std::vector<double> td1_ns_;
};

}  // namespace gran::core
