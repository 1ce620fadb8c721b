// Chunked parallel prefix sums (inclusive scan) and parallel transform.
//
// The scan uses the classic two-phase scheme: (1) each chunk reduces its
// range in parallel, (2) chunk offsets are combined sequentially (cheap:
// one value per chunk), (3) each chunk scans its range in parallel seeded
// with its offset. Deterministic for a fixed chunk size.
#pragma once

#include <vector>

#include "algo/chunking.hpp"
#include "sync/latch.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran::algo {

// out[i] = combine(out[i-1], map(i)) with out[first] = map(first); writes
// results through `sink(i, value)`. `init` must be the identity of
// `combine`.
template <typename T, typename Map, typename Combine, typename Sink>
void parallel_inclusive_scan(thread_manager& tm, std::size_t first, std::size_t last,
                             T init, Map&& map, Combine&& combine, Sink&& sink,
                             const chunking& policy = auto_chunk{}) {
  if (first >= last) return;
  const std::size_t items = last - first;
  const std::size_t chunk = resolve_chunk(policy, items, tm.num_workers());
  const std::size_t tasks = (items + chunk - 1) / chunk;

  // Phase 1: per-chunk totals, in parallel.
  std::vector<T> totals(tasks, init);
  {
    latch done(static_cast<std::int64_t>(tasks));
    std::size_t index = 0;
    for (std::size_t lo = first; lo < last; lo += chunk, ++index) {
      const std::size_t hi = std::min(last, lo + chunk);
      T* slot = &totals[index];
      tm.spawn(
          [&map, &combine, &done, slot, lo, hi] {
            T acc = *slot;
            for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
            *slot = std::move(acc);
            done.count_down();
          },
          task_priority::normal, "scan-reduce");
    }
    done.wait();
  }

  // Phase 2: exclusive offsets per chunk (sequential, one value per chunk).
  std::vector<T> offsets(tasks, init);
  T running = init;
  for (std::size_t c = 0; c < tasks; ++c) {
    offsets[c] = running;
    running = combine(std::move(running), totals[c]);
  }

  // Phase 3: per-chunk scan seeded with the offset, in parallel.
  {
    latch done(static_cast<std::int64_t>(tasks));
    std::size_t index = 0;
    for (std::size_t lo = first; lo < last; lo += chunk, ++index) {
      const std::size_t hi = std::min(last, lo + chunk);
      const T* offset = &offsets[index];
      tm.spawn(
          [&map, &combine, &sink, &done, offset, lo, hi] {
            T acc = *offset;
            for (std::size_t i = lo; i < hi; ++i) {
              acc = combine(std::move(acc), map(i));
              sink(i, acc);
            }
            done.count_down();
          },
          task_priority::normal, "scan-apply");
    }
    done.wait();
  }
}

// Convenience: scans `in` into a returned vector.
template <typename T, typename Combine>
std::vector<T> parallel_inclusive_scan(thread_manager& tm, const std::vector<T>& in,
                                       T init, Combine&& combine,
                                       const chunking& policy = auto_chunk{}) {
  std::vector<T> out(in.size());
  parallel_inclusive_scan(
      tm, 0, in.size(), std::move(init), [&in](std::size_t i) { return in[i]; },
      std::forward<Combine>(combine),
      [&out](std::size_t i, const T& v) { out[i] = v; }, policy);
  return out;
}

// out[i] = fn(i) for i in [first, last), chunked like parallel_for.
template <typename Fn, typename Sink>
void parallel_transform(thread_manager& tm, std::size_t first, std::size_t last,
                        Fn&& fn, Sink&& sink, const chunking& policy = auto_chunk{}) {
  if (first >= last) return;
  const std::size_t chunk = resolve_chunk(policy, last - first, tm.num_workers());
  const std::size_t tasks = (last - first + chunk - 1) / chunk;
  latch done(static_cast<std::int64_t>(tasks));
  for (std::size_t lo = first; lo < last; lo += chunk) {
    const std::size_t hi = std::min(last, lo + chunk);
    tm.spawn(
        [&fn, &sink, &done, lo, hi] {
          for (std::size_t i = lo; i < hi; ++i) sink(i, fn(i));
          done.count_down();
        },
        task_priority::normal, "parallel_transform");
  }
  done.wait();
}

}  // namespace gran::algo
