#include "topo/steal_route.hpp"

#include <stdexcept>

namespace gran {

steal_order steal_order_from_name(const std::string& name) {
  if (name == "hier") return steal_order::hier;
  if (name == "flat") return steal_order::flat;
  throw std::invalid_argument("unknown steal order: " + name + " (hier|flat)");
}

int steal_distance(const worker_assignment& thief,
                   const worker_assignment& victim) noexcept {
  if (thief.core >= 0 && thief.core == victim.core) return 0;
  if (thief.domain == victim.domain) return 1;
  return 2;
}

steal_route steal_route::build(const std::vector<worker_assignment>& workers, int w,
                               steal_order order) {
  const int n = static_cast<int>(workers.size());
  const worker_assignment& me = workers[static_cast<std::size_t>(w)];
  steal_route r;
  r.rotates_ = order == steal_order::hier;
  r.victims_.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  // A flat route puts every victim in the first tier.
  for (int tier = 0; tier < tiers; ++tier) {
    for (int k = 1; k < n; ++k) {
      const int v = (w + k) % n;
      const int distance = order == steal_order::flat
                               ? 0
                               : steal_distance(me, workers[static_cast<std::size_t>(v)]);
      if (distance == tier) r.victims_.push_back(v);
    }
    r.tier_end_[static_cast<std::size_t>(tier)] = static_cast<int>(r.victims_.size());
  }
  return r;
}

int steal_route::circuit(std::uint32_t sweep, std::uint32_t hop) const noexcept {
  const auto n = static_cast<std::uint32_t>(victims_.size());
  const std::uint32_t start = rotates_ ? sweep % n : 0;
  return victims_[static_cast<std::size_t>((start + hop) % n)];
}

}  // namespace gran
