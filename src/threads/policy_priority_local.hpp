// The Priority Local-FIFO scheduling policy — the scheduler all of the
// paper's measurements use (§I-B, Fig. 1).
//
// Queue layout: one dual (staged+pending) FIFO queue per worker, a
// configurable number of high-priority dual queues owned by the first
// workers, and one global low-priority queue drained only when every other
// source is empty.
//
// Work-search order for a worker (Fig. 1):
//   1. local pending queue
//   2. local staged queue  (convert -> local pending)
//   3. staged queues of other workers in the same NUMA domain
//   4. pending queues of other workers in the same NUMA domain
//   5. staged queues of workers in remote NUMA domains
//   6. pending queues of workers in remote NUMA domains
// Steps 1-2 are pop_local (policy.hpp), static-fifo's whole local search.
// Steps 3-6 walk the worker's victim route (topo/steal_route.hpp): 3-4 its
// local part, an SMT sibling first, and 5-6 its remote part, nearest domain
// first. On a flat route (GRAN_STEAL_ORDER=flat) steps 3-4 cover every
// other worker and 5-6 none.
// Stolen staged descriptions are converted and placed into the thief's own
// pending queue — staged threads are cheap to migrate because they have no
// context yet.
#pragma once

#include <atomic>
#include <cstdint>

#include "threads/policy.hpp"

namespace gran {

class priority_local_policy final : public scheduling_policy {
 public:
  const char* name() const noexcept override { return "priority-local-fifo"; }
  void init(thread_manager& tm) override;
  void enqueue_new(thread_manager& tm, int home, task* t) override;
  void enqueue_ready(thread_manager& tm, int home, task* t) override;
  void enqueue_hinted(thread_manager& tm, int target, task* t) override;
  task* get_next(thread_manager& tm, int w) override;

 private:
  std::atomic<std::uint64_t> rr_normal_{0};
  std::atomic<std::uint64_t> rr_high_{0};
  int high_queue_owners_ = 0;
};

}  // namespace gran
