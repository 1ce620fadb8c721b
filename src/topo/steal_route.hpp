// The victim route of one worker: every other worker once, in the order its
// steal sweeps probe them (docs/TOPOLOGY.md, DESIGN.md decision 1).
//
// The order is built here and nowhere else. The thread manager builds one
// route per worker from its workers' domains and cores, and every stealing
// policy walks it; the simulator builds one per simulated core from its own
// layout (sim::core_layout) and walks it the same way. A test holds the two
// equal for the layout they share.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "topo/pin_plan.hpp"

namespace gran {

// hier: nearest first, in three tiers (SMT siblings, the rest of the NUMA
//   domain, remote domains), each tier in ring order from the worker's
//   successor. Successive sweeps rotate the start inside each tier, so
//   workers that starve together fan out over different victims.
// flat: the plain ring w+1, w+2, ... (mod n) as one tier, the same on every
//   sweep: the ablation baseline.
enum class steal_order : int { hier, flat };

// "hier" or "flat". Throws std::invalid_argument naming any other value.
steal_order steal_order_from_name(const std::string& name);

// Topology distance from `thief` to `victim`: 0 = SMT siblings (the same
// physical core), 1 = the same NUMA domain, 2 = another domain. A worker with
// no core identity (core < 0: unpinned, or simulated) has no SMT sibling.
int steal_distance(const worker_assignment& thief,
                   const worker_assignment& victim) noexcept;

class steal_route {
 public:
  // The victims a walk covers. Fig. 1 searches `local` (the worker's own
  // domain, SMT siblings first) before `remote` (the other domains). A flat
  // route is all `local`. `all` is both, in that order.
  enum class part : int { local, remote, all };

  // The route of worker `w` among `workers`, whose domain and core fields
  // place each worker (the cpu field is not read).
  static steal_route build(const std::vector<worker_assignment>& workers, int w,
                           steal_order order);

  // Every other worker once, nearest tier first.
  const std::vector<int>& victims() const noexcept { return victims_; }

  // Calls probe(v) on the victims of `p` until a result tests true, and
  // returns that result, or a value-initialized one when none does. Each
  // tier starts at position `sweep` of its ring (at its first victim on a
  // flat route).
  template <typename Probe>
  auto walk(part p, std::uint32_t sweep, Probe&& probe) const -> decltype(probe(0)) {
    const int first = p == part::remote ? local_tiers : 0;
    const int last = p == part::local ? local_tiers : tiers;
    const std::uint32_t rot = rotates_ ? sweep : 0;
    int begin = first == 0 ? 0 : tier_end_[static_cast<std::size_t>(first - 1)];
    for (int t = first; t < last; ++t) {
      const int end = tier_end_[static_cast<std::size_t>(t)];
      const auto size = static_cast<std::uint32_t>(end - begin);
      for (std::uint32_t k = 0; k < size; ++k)
        if (auto r = probe(victims_[static_cast<std::size_t>(begin) + (rot + k) % size]))
          return r;
      begin = end;
    }
    return {};
  }

  // The victim at hop `hop` of one circuit over the whole route that starts
  // at position `sweep` (at the first victim on a flat route). The route
  // must not be empty.
  int circuit(std::uint32_t sweep, std::uint32_t hop) const noexcept;

  bool operator==(const steal_route&) const = default;

 private:
  static constexpr int tiers = 3;        // SMT siblings, domain, remote
  static constexpr int local_tiers = 2;  // the tiers of part::local

  std::vector<int> victims_;
  std::array<int, tiers> tier_end_{};  // exclusive end of each tier in victims_
  bool rotates_ = false;
};

}  // namespace gran
