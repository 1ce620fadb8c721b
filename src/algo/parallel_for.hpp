// Chunked parallel loops over index ranges.
//
//   parallel_for(tm, 0, n, [&](std::size_t i) { ... });                 // auto chunk
//   parallel_for(tm, 0, n, fn, algo::static_chunk{4096});
//   parallel_for(tm, 0, n, fn, algo::lazy_chunk{});    // no grain parameter
//
// Each chunk becomes one task; the chunking policy is the task-granularity
// dial. The lazy policy starts with one coarse task per worker and splits
// running tasks on demand (algo/splittable.hpp) — closed-loop granularity
// with no grain parameter at all (paper §VI's stated goal). Exceptions from
// `fn` propagate to the caller (first one wins; the wave still drains).
#pragma once

#include <atomic>
#include <exception>

#include "algo/chunking.hpp"
#include "algo/splittable.hpp"
#include "sync/latch.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran::algo {

namespace detail {

// Runs one wave of chunk tasks over [first, last): the chunk [lo, hi) with
// position `index` in the wave calls body(lo, hi, index). Each chunk is
// hinted to the worker whose NUMA domain owns its slice of the index space
// (home_worker_for_block), a mapping that stays stable across chunk-size
// changes so repeated loops over the same data keep touching the same
// domains. The hint is advisory — any worker may still steal the chunk. The
// first exception a chunk throws is rethrown once the wave has drained;
// chunks that start after it skip their body. Every chunked loop in algo/
// runs through here.
template <typename Body>
void run_wave(thread_manager& tm, std::size_t first, std::size_t last,
              std::size_t chunk, const Body& body, const char* description) {
  const std::size_t items = last - first;
  latch done(static_cast<std::int64_t>((items + chunk - 1) / chunk));
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written only by the chunk that sets `failed`
  std::size_t index = 0;
  for (std::size_t lo = first; lo < last; lo += chunk, ++index) {
    const std::size_t hi = std::min(last, lo + chunk);
    tm.spawn_on(
        tm.home_worker_for_block(lo - first, items),
        [&, lo, hi, index] {
          try {
            if (!failed.load(std::memory_order_relaxed)) body(lo, hi, index);
          } catch (...) {
            if (!failed.exchange(true, std::memory_order_acq_rel))
              error = std::current_exception();
          }
          done.count_down();
        },
        task_priority::normal, description);
  }
  done.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

// Applies fn(i) for every i in [first, last) using `policy` chunking.
template <typename F>
void parallel_for(thread_manager& tm, std::size_t first, std::size_t last, F&& fn,
                  const chunking& policy = auto_chunk{}) {
  if (first >= last) return;
  if (const auto* lazy = std::get_if<lazy_chunk>(&policy)) {
    // Demand-driven: coarse per-worker blocks, split only when the runtime
    // observes starvation. No grain parameter.
    core::split_controller ctl(lazy->options);
    splittable_for(tm, ctl, first, last, fn, lazy->initial_tasks);
    return;
  }
  const std::size_t chunk = resolve_chunk(policy, last - first, tm.num_workers());
  detail::run_wave(
      tm, first, last, chunk,
      [&fn](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      "parallel_for");
}

// Convenience overload on the resolved default manager.
template <typename F>
void parallel_for(std::size_t first, std::size_t last, F&& fn,
                  const chunking& policy = auto_chunk{}) {
  parallel_for(resolve_manager(), first, last, std::forward<F>(fn), policy);
}

}  // namespace gran::algo
