// Discrete-event simulation of the parameterized task-graph workloads
// (graph/spec.hpp) on a modeled machine.
//
// The same des_engine that simulates the heat-ring stencil executes any
// graph_spec pattern: the dependence sets are precomputed into CSR form and
// handed to the engine, so the simulated scheduler sees exactly the DAG the
// native executor futurizes — same tasks, same edges, same construction
// order. Kernel costs are charged in virtual time from the kernel_spec's
// target grain (busy_spin / dgemm_like are compute-bound; memory_stream is
// scaled by the model's bandwidth-contention law), so a grain sweep means
// the same thing in both modes.
#pragma once

#include <cstdint>

#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "sim/des.hpp"
#include "sim/machine_model.hpp"

namespace gran::sim {

// Runs one simulation. Deterministic for a fixed config. Asserts that the
// graph spec validates.
sim_result simulate_graph(const sim_config& cfg, const graph::graph_spec& g,
                          const graph::kernel_spec& k);

}  // namespace gran::sim
