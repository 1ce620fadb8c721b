#include "sim/sim_backend.hpp"

#include "sim/graph_sim.hpp"

namespace gran::sim {

core::run_result sim_backend::run(double x, int cores) {
  sim_config cfg = cfg_;
  cfg.cores = cores;
  ++cfg_.seed;

  core::run_result out;
  sim_result r;
  if (const auto* base = std::get_if<stencil::params>(&workload_)) {
    const stencil::params p = core::at(*base, x);
    r = simulate_stencil(cfg, p);
    out.x = static_cast<double>(p.partition_size);
  } else {
    const core::graph_workload w = core::at(std::get<core::graph_workload>(workload_), x);
    r = simulate_graph(cfg, w.graph, w.kernel);
    out.x = x;
  }
  out.m = r.measurement;
  out.tasks = r.measurement.tasks;
  out.edges = r.edges_signaled;
  out.stolen = r.tasks_stolen;
  return out;
}

}  // namespace gran::sim
