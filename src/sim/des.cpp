#include "sim/des.hpp"

#include <algorithm>
#include <cstdint>

#include "sim/des_engine.hpp"
#include "util/assert.hpp"

namespace gran::sim {

std::vector<worker_assignment> core_layout(int cores, int domains) {
  domains = std::max(1, std::min(domains, cores));
  std::vector<worker_assignment> layout(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c)
    layout[static_cast<std::size_t>(c)].domain = c * domains / cores;
  return layout;
}

namespace {

using detail::id_part;
using detail::id_step;
using detail::task_id;

// The heat-ring dependence structure (paper Fig. 2): task (t, b) depends on
// partitions b-1, b, b+1 of step t-1, periodic.
class stencil_workload {
 public:
  stencil_workload(const machine_model& model, const stencil::params& p)
      : model_(model),
        np_(p.num_partitions()),
        steps_(p.time_steps),
        points_(p.partition_size),
        total_points_(p.total_points),
        distinct_preds_(static_cast<int>(std::min<std::uint64_t>(np_, 3))) {}

  std::uint64_t total_tasks() const { return np_ * steps_; }

  std::uint64_t construction_ordinal(std::uint64_t id) const {
    return static_cast<std::uint64_t>(id_step(id)) * np_ + id_part(id);
  }

  template <typename F>
  void for_each_root(F&& f) const {
    for (std::uint64_t b = 0; b < np_; ++b) f(task_id(0, b));
  }

  int fanin(std::uint64_t /*id*/) const { return distinct_preds_; }

  template <typename F>
  void for_each_dependent(std::uint64_t id, F&& f) const {
    const std::uint32_t t = id_step(id);
    const std::uint64_t b = id_part(id);
    if (t + 1 >= steps_) return;
    const std::uint64_t candidates[3] = {(b + np_ - 1) % np_, b, (b + 1) % np_};
    // Symmetric 3-point ring: the first distinct_preds candidates are the
    // distinct dependents.
    for (int i = 0; i < distinct_preds_; ++i)
      f(task_id(t + 1, candidates[static_cast<std::size_t>(i)]));
  }

  double exec_ns(std::uint64_t /*id*/, int active_streams, int total_cores) const {
    return model_.task_exec_ns(points_, active_streams, total_cores);
  }

  double exec_single_core_ns(std::uint64_t /*id*/) const {
    return model_.task_exec_single_core_ns(points_, total_points_);
  }

  std::size_t fanin_reserve_hint() const {
    return static_cast<std::size_t>(np_ * 2 + 16);
  }

 private:
  const machine_model& model_;
  const std::uint64_t np_;
  const std::uint32_t steps_;
  const std::uint64_t points_;
  const std::uint64_t total_points_;
  const int distinct_preds_;
};

}  // namespace

sim_result simulate_stencil(const sim_config& cfg, const stencil::params& p) {
  GRAN_ASSERT_MSG(p.total_points % p.partition_size == 0,
                  "partition size must divide the grid (params::normalize)");
  const stencil_workload w(cfg.model, p);
  detail::des_engine<stencil_workload> sim(cfg, w);
  return sim.run();
}

}  // namespace gran::sim
