// Lazy task splitting: the splittable-task abstraction behind the
// `lazy_chunk{}` chunking policy and the graph executor's splittable
// kernels.
//
// A splittable task owns a half-open index range [lo, hi) and executes it
// coarse by default — one task per worker for a parallel loop. Every
// `poll_iters` items it asks the shared split controller
// (core/split_controller.hpp) whether anyone needs work; if so it gives away
// the *back half* [mid, hi) as a new task and keeps executing the front.
// This is the RT_loop_split idiom (Prell's tasking-2.0): the common case —
// a balanced loop on an otherwise idle machine — pays one task per worker
// plus a cheap poll, while imbalance or interference converts overhead into
// parallelism only where demand actually appeared, instead of paying
// per-task overhead for a fine grain up front.
//
// The split preserves NUMA home placement: the child is hinted to
// home_worker_for_block() of its subrange over the loop's *full* range, the
// same stable mapping fixed chunking uses, so repeated loops over the same
// data keep touching the same domains no matter how they were split.
//
// Exactly-once by construction: [lo, mid) stays with the parent, [mid, hi)
// moves to the child — the two never overlap, and every split partitions the
// remaining range exactly. tests/split_test.cpp stresses this under
// randomized concurrent splits.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>

#include "core/split_controller.hpp"
#include "sync/event.hpp"
#include "sync/spinlock.hpp"
#include "threads/thread_manager.hpp"

namespace gran::algo {

namespace detail {

// Dynamic join: tracks the number of live splittable tasks of one loop
// (splits add members at runtime, unlike a latch whose count is fixed up
// front). The creator registers the initial tasks, each split adds one, and
// the waiter blocks on the event until the last member arrives.
struct split_join {
  explicit split_join(std::size_t initial)
      : outstanding(static_cast<std::ptrdiff_t>(initial)) {}

  std::atomic<std::ptrdiff_t> outstanding;
  event done;
  std::atomic<bool> failed{false};
  spinlock error_guard;
  std::exception_ptr error;

  // Registers the child *before* it is spawned (the spawn publishes it).
  void add() { outstanding.fetch_add(1, std::memory_order_relaxed); }

  void arrive() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) done.set();
  }

  void fail(std::exception_ptr e) {
    if (!failed.exchange(true, std::memory_order_acq_rel)) {
      error_guard.lock();
      error = std::move(e);
      error_guard.unlock();
    }
  }
};

// Executes fn(i) over [lo, hi), splitting off the back half whenever the
// controller reports demand. Runs inside a task; never throws (failures are
// routed into the join, and a failed join abandons remaining items — same
// first-exception-wins contract as parallel_for's run_wave).
template <typename F>
void run_splittable(thread_manager& tm, core::split_controller& ctl,
                    split_join& join, std::size_t lo, std::size_t hi, const F& fn,
                    std::size_t range_first, std::size_t range_items) {
  const std::size_t poll = ctl.poll_iters();
  // Exponential poll backoff: while nobody is hungry the stride doubles (up
  // to 64x the base), so cheap items do not pay a fixed per-64-items atomic
  // toll; any split resets it, keeping the response latency tight exactly
  // when demand is live.
  std::size_t stride = poll;
  try {
    while (lo < hi) {
      if (join.failed.load(std::memory_order_relaxed)) break;
      ctl.maybe_observe(tm);
      switch (ctl.should_split(hi - lo, tm.starving_workers(),
                               std::max<std::int64_t>(0, tm.queued_tasks()))) {
        case core::split_verdict::split: {
          // Keep the front half (round up: the parent retains the extra item
          // so progress is guaranteed), give away [mid, hi).
          const std::size_t mid = lo + (hi - lo + 1) / 2;
          const std::size_t child_hi = hi;
          const int home = tm.home_worker_for_block(mid - range_first, range_items);
          join.add();
          ctl.note_split();
          tm.record_split(this_task::id(), mid);
          tm.spawn_on(
              home,
              [&tm, &ctl, &join, mid, child_hi, &fn, range_first, range_items] {
                ctl.note_claim();
                run_splittable(tm, ctl, join, mid, child_hi, fn, range_first,
                               range_items);
                join.arrive();
              },
              task_priority::normal, "lazy-split");
          hi = mid;
          stride = poll;
          continue;
        }
        case core::split_verdict::denied:
          tm.record_split_denied();
          if (stride < poll * 64) stride *= 2;
          break;
        case core::split_verdict::no_demand:
          if (stride < poll * 64) stride *= 2;
          break;
      }
      const std::size_t stop = hi - lo > stride ? lo + stride : hi;
      for (; lo < stop; ++lo) fn(lo);
    }
  } catch (...) {
    join.fail(std::current_exception());
  }
}

}  // namespace detail

// Applies fn(i) for every i in [first, last), starting from `initial_tasks`
// coarse block-distributed tasks (0 = one per worker) and splitting lazily
// on demand via the shared `ctl`. Blocks (cooperatively — callable from
// inside a task) until every index ran or an exception won; the first
// exception is rethrown. The controller is shared so several concurrent
// loops (or graph nodes) amortize one observation cadence and one gate.
template <typename F>
void splittable_for(thread_manager& tm, core::split_controller& ctl,
                    std::size_t first, std::size_t last, const F& fn,
                    std::size_t initial_tasks = 0) {
  if (first >= last) return;
  const std::size_t items = last - first;
  std::size_t tasks = initial_tasks != 0
                          ? initial_tasks
                          : static_cast<std::size_t>(tm.num_workers());
  tasks = std::max<std::size_t>(1, std::min(tasks, items));

  detail::split_join join(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t lo = first + items * t / tasks;
    const std::size_t hi = first + items * (t + 1) / tasks;
    const int home = tm.home_worker_for_block(lo - first, items);
    tm.spawn_on(
        home,
        [&tm, &ctl, &join, lo, hi, &fn, first, items] {
          detail::run_splittable(tm, ctl, join, lo, hi, fn, first, items);
          join.arrive();
        },
        task_priority::normal, "lazy-chunk");
  }
  join.done.wait();
  if (join.failed.load(std::memory_order_acquire) && join.error)
    std::rethrow_exception(join.error);
}

// Executes fn(i) over [first, last) *inline on the calling task*, splitting
// off back halves on demand; returns once every split-off descendant also
// finished. The building block for splittable graph kernels
// (graph/executor.cpp): the node's own task does the work and pays for
// extra tasks only when demand actually appeared — zero new tasks in the
// balanced case. Cooperative: the wait suspends the calling task if
// children are still running.
template <typename F>
void splittable_run_inline(thread_manager& tm, core::split_controller& ctl,
                           std::size_t first, std::size_t last, const F& fn) {
  if (first >= last) return;
  detail::split_join join(1);
  detail::run_splittable(tm, ctl, join, first, last, fn, first, last - first);
  join.arrive();
  join.done.wait();
  if (join.failed.load(std::memory_order_acquire) && join.error)
    std::rethrow_exception(join.error);
}

// Convenience overload owning its controller (options from the knob table).
template <typename F>
void splittable_for(thread_manager& tm, std::size_t first, std::size_t last,
                    const F& fn, core::split_options opts = {},
                    std::size_t initial_tasks = 0) {
  core::split_controller ctl(opts);
  splittable_for(tm, ctl, first, last, fn, initial_tasks);
}

}  // namespace gran::algo
