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
// every chunk starts its partial from it.
#pragma once

#include <vector>

#include "algo/chunking.hpp"
#include "sync/latch.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran::algo {

template <typename T, typename Map, typename Combine>
T parallel_reduce(thread_manager& tm, std::size_t first, std::size_t last, T init,
                  Map&& map, Combine&& combine, const chunking& policy = auto_chunk{}) {
  if (first >= last) return init;
  const std::size_t items = last - first;
  const std::size_t chunk = resolve_chunk(policy, items, tm.num_workers());

  const std::size_t tasks = (items + chunk - 1) / chunk;
  std::vector<T> partials(tasks, init);
  latch done(static_cast<std::int64_t>(tasks));

  std::size_t index = 0;
  for (std::size_t lo = first; lo < last; lo += chunk, ++index) {
    const std::size_t hi = std::min(last, lo + chunk);
    T* slot = &partials[index];
    tm.spawn(
        [&map, &combine, &done, slot, lo, hi] {
          T acc = *slot;
          for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
          *slot = std::move(acc);
          done.count_down();
        },
        task_priority::normal, "parallel_reduce");
  }
  done.wait();

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
