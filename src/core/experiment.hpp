// The experiment driver of §II: sweep task granularity (partition size) and
// core count over the heat-diffusion benchmark, collect the performance
// counters, and compute the paper's metrics with mean / stddev / COV over
// repeated samples.
//
// The driver is backend-agnostic: the *native* backend executes the
// futurized stencil on the real runtime of this machine; the *simulator*
// backend (src/sim) executes the same dependency graph on a modeled machine
// (Haswell / Xeon Phi / ...). Both produce run_measurement, so every figure
// bench works in either mode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "stencil/params.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

namespace gran::core {

// Runs one (partition size × cores) configuration and reports its raw
// measurement.
class experiment_backend {
 public:
  virtual ~experiment_backend() = default;
  virtual std::string name() const = 0;
  virtual run_measurement run(const stencil::params& p, int cores) = 0;
};

// Native backend: real thread_manager + futurized stencil on this host.
// A fresh manager is built per core count; counters are reset per run.
class native_backend final : public experiment_backend {
 public:
  // `policy` is a scheduling-policy name (threads/policy.hpp); empty =
  // GRAN_POLICY. name() reports the policy that runs.
  explicit native_backend(std::string policy = "");
  std::string name() const override {
    return "native(" + (policy_.empty() ? config::text(config::policy) : policy_) + ")";
  }
  run_measurement run(const stencil::params& p, int cores) override;

 private:
  std::string policy_;
};

struct sweep_config {
  stencil::params base;                       // total_points / time_steps / physics
  std::vector<std::size_t> partition_sizes;   // granularity axis
  int cores = 1;
  int samples = 3;                            // paper: 10
  bool measure_baseline = true;               // 1-core td1 pass for Eqs. 5/6
};

// One point of the sweep: all samples of one partition size.
struct sweep_point {
  std::size_t partition_size = 0;
  int cores = 1;
  std::uint64_t num_tasks = 0;

  sample_stats exec_time_s;    // across samples
  double cov = 0.0;            // COV of execution time (paper §IV)

  run_measurement mean;        // counters averaged over samples
  double td1_ns = 0.0;         // 1-core task duration baseline
  metrics m;                   // derived metrics (Eqs. 1–6)
};

// Geometric series of partition sizes from `lo` to `hi` (inclusive-ish),
// `per_decade` points per decade — the paper sweeps 160 .. 100 M.
std::vector<std::size_t> granularity_sweep(std::size_t lo, std::size_t hi,
                                           int per_decade = 4);

class granularity_experiment {
 public:
  using progress_fn = std::function<void(const sweep_point&)>;

  granularity_experiment(experiment_backend& backend, sweep_config cfg);

  // Runs the full sweep; invokes `progress` after each completed point.
  std::vector<sweep_point> run(const progress_fn& progress = nullptr);

  // Baseline pass: task durations td1 on one core per partition size
  // (measured once, reused across core counts — the paper's "one time cost
  // prior to data runs").
  const std::vector<double>& baselines() const { return td1_ns_; }
  void set_baselines(std::vector<double> td1_ns) { td1_ns_ = std::move(td1_ns); }

 private:
  experiment_backend& backend_;
  sweep_config cfg_;
  std::vector<double> td1_ns_;
};

}  // namespace gran::core
