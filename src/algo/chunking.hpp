// Chunking policies for the parallel algorithms — the user-facing dial for
// task granularity, the quantity the whole paper is about.
//
//   static_chunk{n}   every task covers exactly n items (the benchmark's
//                     "partition size");
//   auto_chunk{}      items / (workers * oversubscription) — a decent
//                     static default when per-item cost is unknown;
//   lazy_chunk{}      starts coarse (one task per worker) and splits running
//                     tasks on demand when the runtime observes starvation
//                     (core/split_controller.hpp + algo/splittable.hpp) —
//                     closed-loop granularity without a grain parameter,
//                     the paper's dynamic-adaptation goal.
#pragma once

#include <cstddef>
#include <variant>

#include "core/split_controller.hpp"

namespace gran::algo {

struct static_chunk {
  std::size_t size = 1;
};

struct auto_chunk {
  // Target tasks per worker; more gives the scheduler load-balancing slack,
  // fewer reduces overhead.
  std::size_t tasks_per_worker = 4;
};

struct lazy_chunk {
  // Controller knobs; the default takes GRAN_SPLIT / GRAN_SPLIT_MIN /
  // GRAN_SPLIT_POLL.
  core::split_options options;
  // Initial coarse tasks; 0 = one per worker.
  std::size_t initial_tasks = 0;
};

using chunking = std::variant<static_chunk, auto_chunk, lazy_chunk>;

// Resolves a policy to a concrete chunk size for `items` of work on
// `workers` workers (lazy resolves to its coarse initial blocks, the answer
// for algorithms that cannot split mid-flight, e.g. reductions).
std::size_t resolve_chunk(const chunking& policy, std::size_t items, int workers);

}  // namespace gran::algo
