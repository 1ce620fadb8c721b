// Discrete-event simulator of the gran runtime executing the futurized
// heat-ring workload on a modeled machine.
//
// The simulator executes the *same scheduling algorithm* as the native
// Priority Local-FIFO policy — per-core dual staged/pending FIFO queues and
// the six-step NUMA-aware search order of Fig. 1, walked along the victim
// route the native workers walk (topo/steal_route.hpp) — over virtual time, with
// per-event costs from a machine_model. Task execution time follows the
// model's compute + bandwidth-contention law, so the paper's wait-time
// behaviour emerges from the simulation rather than being scripted.
//
// The workload is the dependency graph of HPX-Stencil (paper Fig. 2): task
// (t, b) becomes runnable when partitions b-1, b, b+1 of step t-1 complete;
// the completing core that satisfies the last dependency stages the
// dependent locally, exactly like the native dataflow() continuation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "sim/machine_model.hpp"
#include "stencil/params.hpp"
#include "topo/pin_plan.hpp"

namespace gran::sim {

// Scheduling-policy variants for the ablation benches. The paper's
// measurements use priority_local (the default).
enum class sim_policy {
  priority_local,   // staged/pending dual queues, NUMA-aware 6-step search
  static_fifo,      // same queues, no stealing at all
  work_stealing,    // LIFO owner pop, FIFO steal, no staged stage
};

// The simulated machine and scheduler; the workload is a separate argument
// (simulate_stencil here, simulate_graph in sim/graph_sim.hpp).
struct sim_config {
  machine_model model;
  int cores = 1;               // simulated workers (clamped to model cores)
  std::uint64_t seed = 1;      // deterministic execution-time jitter
  sim_policy policy = sim_policy::priority_local;
  // When false, the priority_local search walks the flat route: every
  // victim in plain ring order, oblivious to NUMA domains
  // (ablation_steal_order). work_stealing always walks the flat route.
  bool numa_aware_steal = true;
};

struct sim_result {
  double makespan_s = 0.0;          // virtual time until the last completion
  core::run_measurement measurement;  // same schema the native backend fills
  std::uint64_t tasks_stolen = 0;
  std::uint64_t tasks_converted = 0;
  std::uint64_t edges_signaled = 0;  // dependency notifications delivered
};

// The simulated cores' layout: `cores` cores in contiguous blocks over
// `domains` NUMA domains (clamped to [1, cores]), core c in domain
// c * domains / cores, none pinned and none with an SMT sibling. Every
// simulation builds each core's victim route (steal_route::build) from it.
std::vector<worker_assignment> core_layout(int cores, int domains);

// Runs one simulation. Deterministic for a fixed config.
sim_result simulate_stencil(const sim_config& cfg, const stencil::params& p);

}  // namespace gran::sim
