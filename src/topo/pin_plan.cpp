#include "topo/pin_plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "util/assert.hpp"

namespace gran {

const char* pin_mode_name(pin_mode m) noexcept {
  switch (m) {
    case pin_mode::compact: return "compact";
    case pin_mode::scatter: return "scatter";
    case pin_mode::none: return "none";
  }
  return "?";
}

pin_mode pin_mode_from_name(const std::string& name) {
  if (name == "compact") return pin_mode::compact;
  if (name == "scatter") return pin_mode::scatter;
  if (name == "none") return pin_mode::none;
  throw std::invalid_argument("unknown pin mode: " + name +
                              " (compact|scatter|none)");
}

bool pin_plan::pinned() const noexcept {
  for (const auto& w : workers)
    if (w.cpu >= 0) return true;
  return false;
}

namespace {

// One physical core: its NUMA node and SMT siblings in OS-index order.
struct core_entry {
  int node = 0;
  std::vector<int> cpus;
};

// Unpinned fallback: spread workers evenly over the NUMA domains, first
// domains first — the pre-plan behavior, matching how HPX fills sockets.
pin_plan unpinned_plan(const topology& topo, int num_workers, pin_mode mode) {
  pin_plan plan;
  plan.mode = mode;
  std::set<int> nodes;
  for (const auto& c : topo.cpus()) nodes.insert(c.numa_node);
  const int domains =
      std::min(std::max(1, static_cast<int>(nodes.size())), num_workers);
  plan.num_domains = domains;
  plan.workers.resize(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    plan.workers[static_cast<std::size_t>(w)].domain = w * domains / num_workers;
  return plan;
}

}  // namespace

pin_plan pin_plan::build(const topology& topo, const std::vector<int>& allowed_cpus,
                         int num_workers, pin_mode mode) {
  GRAN_ASSERT(num_workers >= 1);

  // Candidate CPUs: the topology restricted to the allowed cpuset.
  std::vector<const cpu_info*> candidates;
  if (allowed_cpus.empty()) {
    for (const auto& c : topo.cpus()) candidates.push_back(&c);
  } else {
    for (const int cpu : allowed_cpus)
      if (const cpu_info* info = topo.find_cpu(cpu)) candidates.push_back(info);
  }
  if (mode == pin_mode::none || candidates.empty() ||
      num_workers > static_cast<int>(candidates.size()))
    return unpinned_plan(topo, num_workers, mode);

  // Group candidates into physical cores, ordered node-major so compact
  // filling completes one NUMA domain before starting the next.
  std::map<std::tuple<int, int, int>, core_entry> by_core;  // (node, pkg, core)
  for (const cpu_info* c : candidates) {
    core_entry& entry = by_core[{c->numa_node, c->package_id, c->core_id}];
    entry.node = c->numa_node;
    entry.cpus.push_back(c->os_index);
  }
  std::vector<core_entry> cores;
  cores.reserve(by_core.size());
  for (auto& [key, entry] : by_core) {
    std::sort(entry.cpus.begin(), entry.cpus.end());
    cores.push_back(std::move(entry));
  }

  // Emit (cpu, core-index) in pin order: SMT round r takes the r-th sibling
  // of each core, so every physical core is used once before any sibling —
  // exactly the "cores first, hyperthreads last" binding HPX computes from
  // hwloc. `scatter` additionally interleaves the cores of round r across
  // NUMA domains instead of finishing one domain first.
  std::size_t max_siblings = 0;
  for (const auto& c : cores) max_siblings = std::max(max_siblings, c.cpus.size());

  std::vector<std::pair<int, int>> order;  // (os cpu, dense core id)
  order.reserve(candidates.size());
  for (std::size_t r = 0; r < max_siblings; ++r) {
    std::vector<std::pair<int, int>> round;
    for (std::size_t i = 0; i < cores.size(); ++i)
      if (r < cores[i].cpus.size())
        round.emplace_back(cores[i].cpus[r], static_cast<int>(i));
    if (mode == pin_mode::scatter) {
      // Deal the node-major round out across domains: node0.core0,
      // node1.core0, node0.core1, ... Preserves physical-first within the
      // round while spreading consecutive workers over memory controllers.
      std::map<int, std::vector<std::pair<int, int>>> per_node;
      for (const auto& [cpu, core] : round)
        per_node[cores[static_cast<std::size_t>(core)].node].push_back({cpu, core});
      bool more = true;
      for (std::size_t k = 0; more; ++k) {
        more = false;
        for (auto& [node, list] : per_node)
          if (k < list.size()) {
            order.push_back(list[k]);
            more = true;
          }
      }
    } else {
      order.insert(order.end(), round.begin(), round.end());
    }
  }
  GRAN_ASSERT(static_cast<int>(order.size()) >= num_workers);

  pin_plan plan;
  plan.mode = mode;
  plan.workers.resize(static_cast<std::size_t>(num_workers));

  // Dense domain ids over the nodes actually assigned, ascending node order.
  std::set<int> assigned_nodes;
  for (int w = 0; w < num_workers; ++w) {
    const int core = order[static_cast<std::size_t>(w)].second;
    assigned_nodes.insert(cores[static_cast<std::size_t>(core)].node);
  }
  std::map<int, int> dense_node;
  for (const int node : assigned_nodes)
    dense_node.emplace(node, static_cast<int>(dense_node.size()));

  std::set<int> assigned_cores;
  for (int w = 0; w < num_workers; ++w) {
    const auto [cpu, core] = order[static_cast<std::size_t>(w)];
    worker_assignment& a = plan.workers[static_cast<std::size_t>(w)];
    a.cpu = cpu;
    a.core = core;
    a.domain = dense_node.at(cores[static_cast<std::size_t>(core)].node);
    assigned_cores.insert(core);
  }
  plan.num_domains = static_cast<int>(assigned_nodes.size());
  plan.num_cores = static_cast<int>(assigned_cores.size());
  return plan;
}

}  // namespace gran
