// core::backend over the discrete-event simulator: the figure benches, graph
// sweeps and tools drive exactly the same sweep code whether measuring
// natively or on a modeled platform.
#pragma once

#include <string>

#include "core/experiment.hpp"
#include "sim/des.hpp"

namespace gran::sim {

class sim_backend final : public core::backend {
 public:
  // Run i (counting from 0) simulates with seed 1 + i: fresh jitter per
  // sample, still deterministic.
  sim_backend(machine_model model, core::workload w) : workload_(std::move(w)) {
    cfg_.model = std::move(model);
  }

  // By platform name ("haswell", "xeon-phi", ...).
  sim_backend(const std::string& platform, core::workload w)
      : sim_backend(make_machine_model(platform), std::move(w)) {}

  std::string name() const override { return "sim(" + cfg_.model.spec.name + ")"; }
  core::run_result run(double x, int cores) override;

  // Ablation knobs (see sim_config).
  void set_policy(sim_policy p) noexcept { cfg_.policy = p; }
  void set_numa_aware_steal(bool aware) noexcept { cfg_.numa_aware_steal = aware; }

 private:
  sim_config cfg_;  // seed: the next run's; cores: set per run
  core::workload workload_;
};

}  // namespace gran::sim
