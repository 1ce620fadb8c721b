// Chunked parallel reduction.
//
//   double sum = parallel_reduce(tm, 0, n, 0.0,
//       [&](std::size_t i) { return data[i]; },          // map
//       [](double a, double b) { return a + b; });       // combine
//
// Each chunk reduces locally in one task; partial results combine in
// spawn order, so the result is deterministic for a fixed chunk size
// (important for floating-point reproducibility across runs).
//
// `init` must be the identity of `combine` (0 for +, +inf for min, ...):
// every chunk starts its partial from it. An exception from `map` or
// `combine` is rethrown in the caller once the wave has drained, as in
// parallel_for.
#pragma once

#include <vector>

#include "algo/parallel_for.hpp"

namespace gran::algo {

template <typename T, typename Map, typename Combine>
T parallel_reduce(thread_manager& tm, std::size_t first, std::size_t last, T init,
                  Map&& map, Combine&& combine, const chunking& policy = auto_chunk{}) {
  if (first >= last) return init;
  const std::size_t items = last - first;
  const std::size_t chunk = resolve_chunk(policy, items, tm.num_workers());

  std::vector<T> partials((items + chunk - 1) / chunk, init);
  detail::run_wave(
      tm, first, last, chunk,
      [&](std::size_t lo, std::size_t hi, std::size_t index) {
        T acc = partials[index];
        for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
        partials[index] = std::move(acc);
      },
      "parallel_reduce");

  T result = init;
  for (auto& p : partials) result = combine(std::move(result), std::move(p));
  return result;
}

template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t first, std::size_t last, T init, Map&& map,
                  Combine&& combine, const chunking& policy = auto_chunk{}) {
  return parallel_reduce(resolve_manager(), first, last, std::move(init),
                         std::forward<Map>(map), std::forward<Combine>(combine), policy);
}

}  // namespace gran::algo
