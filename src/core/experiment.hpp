// The experiment driver of §II, the paper's method in one place: sweep the
// task granularity x, run every point `samples` times, average the event
// counts over the samples, and compute Eqs. 1–6 against the task duration
// td1 of the same x on one core.
//
// x is the grain dial of the workload a backend runs: the partition size in
// grid points for the heat-ring stencil (the paper's axis), or the kernel
// grain in ns for a parameterized task graph (src/graph, Task Bench's axis).
// A backend runs one x on one machine — the real runtime of this host
// (native_backend) or a modeled platform (sim::sim_backend, src/sim) — so
// every figure bench, graph sweep and tool drives this one sweep in either
// mode.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "stencil/params.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gran::core {

// A task graph swept over its kernel grain.
struct graph_workload {
  graph::graph_spec graph;
  graph::kernel_spec kernel;  // grain_ns is x
  // > 0: hold the total work fixed instead of the width — grain x runs
  // max(1, total_ns / x / steps) tasks per step (the paper's micro
  // benchmarks, bench/micro_grain_sweep).
  double total_ns = 0.0;
  std::size_t window = 0;  // native: live dataflow rows (0: none)
};

// What a backend runs: the heat-ring stencil (x = partition size) or a task
// graph (x = kernel grain, ns).
using workload = std::variant<stencil::params, graph_workload>;

// The concrete run of granularity x: the stencil with partition size x,
// normalized to divide the grid; the graph with kernel grain x.
stencil::params at(const stencil::params& base, double x);
graph_workload at(const graph_workload& base, double x);

// What one run of one x observed.
struct run_result {
  run_measurement m;
  double x = 0.0;            // the x that ran (a partition size normalized)
  std::uint64_t tasks = 0;   // tasks of the workload (DAG nodes)
  std::uint64_t edges = 0;   // dependence edges (0 where not counted: native stencil)
  std::uint64_t stolen = 0;  // tasks that ran on a worker other than their own
};

// Runs one granularity value x of its workload on `cores` workers.
class backend {
 public:
  virtual ~backend() = default;
  virtual std::string name() const = 0;
  virtual run_result run(double x, int cores) = 0;
};

// The real runtime of this host: a fresh thread_manager per run, the
// futurized stencil or the futurized DAG (graph/executor.hpp) on it.
class native_backend final : public backend {
 public:
  // `policy` is a scheduling-policy name (threads/policy.hpp); empty =
  // GRAN_POLICY. name() reports the policy that runs.
  explicit native_backend(workload w, std::string policy = "")
      : workload_(std::move(w)), policy_(std::move(policy)) {}
  std::string name() const override {
    return "native(" + (policy_.empty() ? config::text(config::policy) : policy_) + ")";
  }
  run_result run(double x, int cores) override;

 private:
  workload workload_;
  std::string policy_;
};

struct sweep_config {
  std::vector<double> axis;      // granularity values x
  int samples = 3;               // paper: 10
  bool measure_baseline = true;  // 1-core td1 pass for Eqs. 5/6
};

// One point of the sweep: all samples of one x.
struct sweep_point {
  double x = 0.0;  // as run (a partition size normalized to divide the grid)
  int cores = 1;
  std::uint64_t num_tasks = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t stolen = 0;    // mean over samples

  sample_stats exec_time_s;    // across samples
  double cov = 0.0;            // COV of execution time (paper §IV)

  run_measurement mean;        // event counts averaged over samples
  double td1_ns = 0.0;         // 1-core task duration baseline
  metrics m;                   // Eqs. 1–6 from the averaged counts
};

// Geometric series from `lo` to `hi` (inclusive-ish), `per_decade` points
// per decade, rounded to integers — the paper sweeps partitions of
// 160 .. 100 M points; grains are whole nanoseconds.
std::vector<double> granularity_sweep(double lo, double hi, int per_decade = 4);

// How a report shows x: its column title and one cell.
struct axis_format {
  std::string title;
  std::function<std::string(double)> cell;
};
axis_format partition_axis();  // "partition", grid points with separators
axis_format grain_axis();      // "grain (us)", two decimals

// The Eq. 1–6 table of a sweep, one row per x: tasks, td, exec time (mean,
// median, min over the samples), COV, idle-rate, to, To, tw, Tw and
// pending-queue accesses.
table_writer metrics_table(const std::vector<sweep_point>& sweep, const axis_format& axis);

class granularity_experiment {
 public:
  using progress_fn = std::function<void(const sweep_point&)>;

  granularity_experiment(backend& b, sweep_config cfg);

  // Sweeps the axis on `cores` workers; invokes `progress` after each point.
  // The first call measures td1 for every x on one core; later calls (other
  // core counts) reuse it — the paper's "one time cost prior to data runs".
  std::vector<sweep_point> run(int cores, const progress_fn& progress = nullptr);

 private:
  backend& backend_;
  sweep_config cfg_;
  std::vector<double> td1_ns_;
};

}  // namespace gran::core
