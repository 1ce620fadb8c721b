#include "sim/graph_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/des_engine.hpp"
#include "util/assert.hpp"

namespace gran::sim {

namespace {

using detail::id_part;
using detail::id_step;
using detail::task_id;

// A graph_spec materialized for the engine: per-task fanin plus the
// *forward* edges (dependents) in CSR form. The spec exposes predecessors;
// the engine signals successors, so one O(V + E) transposition pass up
// front buys O(out-degree) signaling per completion.
class graph_workload {
 public:
  graph_workload(const graph::graph_spec& g, const graph::kernel_spec& k,
                 const machine_model& model)
      : g_(g), k_(k), model_(model) {
    const std::uint64_t n = g_.total_tasks();
    fanin_.assign(n, 0);
    dep_offsets_.assign(n + 1, 0);

    std::vector<std::uint32_t> preds;
    preds.reserve(g_.max_fanin());

    // Pass 1: fanin of every task; out-degree of every predecessor.
    for (std::uint32_t t = 0; t < g_.steps; ++t) {
      for (std::uint32_t p = 0; p < g_.width; ++p) {
        g_.dependencies(t, p, preds);
        fanin_[ordinal(t, p)] = static_cast<std::uint32_t>(preds.size());
        for (const std::uint32_t q : preds) ++dep_offsets_[ordinal(t - 1, q) + 1];
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) dep_offsets_[i + 1] += dep_offsets_[i];

    // Pass 2: fill the dependent lists (cursor per source task).
    dependents_.resize(dep_offsets_[n]);
    std::vector<std::uint64_t> cursor(dep_offsets_.begin(), dep_offsets_.end() - 1);
    for (std::uint32_t t = 0; t < g_.steps; ++t) {
      for (std::uint32_t p = 0; p < g_.width; ++p) {
        g_.dependencies(t, p, preds);
        for (const std::uint32_t q : preds)
          dependents_[cursor[ordinal(t - 1, q)]++] = task_id(t, p);
      }
    }

    for (std::uint64_t ord = 0; ord < n; ++ord)
      if (fanin_[ord] == 0)
        roots_.push_back(task_id(ord / g_.width, ord % g_.width));
  }

  std::uint64_t total_tasks() const { return g_.total_tasks(); }
  std::uint64_t total_edges() const { return dependents_.size(); }

  std::uint64_t construction_ordinal(std::uint64_t id) const {
    return ordinal(id_step(id), id_part(id));
  }

  template <typename F>
  void for_each_root(F&& f) const {
    for (const std::uint64_t id : roots_) f(id);
  }

  int fanin(std::uint64_t id) const {
    return static_cast<int>(fanin_[construction_ordinal(id)]);
  }

  template <typename F>
  void for_each_dependent(std::uint64_t id, F&& f) const {
    const std::uint64_t ord = construction_ordinal(id);
    for (std::uint64_t i = dep_offsets_[ord]; i < dep_offsets_[ord + 1]; ++i)
      f(dependents_[i]);
  }

  double exec_ns(std::uint64_t id, int active_streams, int total_cores) const {
    const double base = graph::task_grain_ns(k_, id_step(id), id_part(id));
    if (k_.kind != graph::kernel_kind::memory_stream) return base;
    // Bandwidth contention: the grain is calibrated against one stream at
    // bw_core; with `active_streams` concurrent streams the effective
    // per-stream bandwidth saturates at bw_total / streams.
    (void)total_cores;
    const double streams = static_cast<double>(std::max(1, active_streams));
    const double eff = std::max(
        std::min(model_.bw_core_gbps, model_.bw_total_gbps / streams), 1e-9);
    return base * (model_.bw_core_gbps / eff);
  }

  double exec_single_core_ns(std::uint64_t id) const {
    return graph::task_grain_ns(k_, id_step(id), id_part(id));
  }

  std::size_t fanin_reserve_hint() const {
    return static_cast<std::size_t>(g_.width) * 2 + 16;
  }

 private:
  std::uint64_t ordinal(std::uint32_t step, std::uint32_t point) const {
    return static_cast<std::uint64_t>(step) * g_.width + point;
  }

  const graph::graph_spec& g_;
  const graph::kernel_spec& k_;
  const machine_model& model_;
  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint64_t> dep_offsets_;   // CSR offsets, by source ordinal
  std::vector<std::uint64_t> dependents_;    // CSR payload: dependent task ids
  std::vector<std::uint64_t> roots_;         // fanin-0 tasks, construction order
};

}  // namespace

sim_result simulate_graph(const sim_config& cfg, const graph::graph_spec& g,
                          const graph::kernel_spec& k) {
  GRAN_ASSERT_MSG(g.validate().empty(), "invalid graph spec");
  const graph_workload w(g, k, cfg.model);
  detail::des_engine<graph_workload> sim(cfg, w);
  return sim.run();
}

}  // namespace gran::sim
