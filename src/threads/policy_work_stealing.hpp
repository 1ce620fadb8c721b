// Work-stealing-LIFO policy (Cilk-style): each worker owns a lock-free
// Chase–Lev deque; the owner pushes and pops at the bottom (LIFO —
// depth-first, cache-friendly), thieves steal from the top (FIFO —
// breadth-first, big chunks of work).
//
// Only the owner may touch the bottom of a Chase–Lev deque, so enqueues
// from outside the target worker (external spawns, wakes landing on another
// worker's `last_worker`) go through a per-worker lock-free MPMC *inbox*
// (concurrent_fifo) instead; the owner and thieves both drain inboxes when
// the deques run dry. On-worker spawns and wakes — the hot path at fine
// granularity — take the no-CAS owner push.
//
// A thief walks every tier of its victim route (topo/steal_route.hpp). By
// default ("hier") that is its SMT sibling first (shared L1/L2 — stolen
// state is already hot), then the rest of its NUMA domain (shared L3 /
// local memory), then remote domains, each tier's start rotating per steal
// sweep so a herd of simultaneously idle workers fans out over different
// victims instead of all hammering w+1. GRAN_STEAL_ORDER=flat walks the
// fixed (w+k) % n ring, the ablation baseline (bench/ablation_topology
// measures the difference).
//
// Differences from the paper's priority-local-FIFO, on purpose:
//   * no staged stage — a worker's own spawns receive their context at
//     spawn time, so the creation cost is paid by the spawner instead of the
//     first scheduler (a task routed through another worker's inbox gets it
//     from the worker that pops it);
//   * LIFO owner order vs the paper's FIFO queues.
// This is the contrast case for bench/ablation_scheduler ("different
// schedulers optimize performance for different task size", paper §I-A).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "queues/chase_lev_deque.hpp"
#include "queues/concurrent_fifo.hpp"
#include "threads/policy.hpp"
#include "util/cacheline.hpp"

namespace gran {

class task;

class work_stealing_policy final : public scheduling_policy {
 public:
  const char* name() const noexcept override { return "work-stealing-lifo"; }
  void init(thread_manager& tm) override;
  void enqueue_new(thread_manager& tm, int home, task* t) override;
  void enqueue_ready(thread_manager& tm, int home, task* t) override;
  void enqueue_hinted(thread_manager& tm, int target, task* t) override;
  task* get_next(thread_manager& tm, int w) override;

 private:
  struct alignas(cache_line_size) deque_slot {
    chase_lev_deque<task*> deque{256};
    // Cross-worker hand-off lane; lock-free unless it overflows.
    concurrent_fifo<task*> inbox{256};
  };

  // Routes a task enqueued from outside worker `target` into its inbox.
  void push_remote(int target, task* t);

  std::vector<std::unique_ptr<deque_slot>> deques_;
  int num_workers_ = 0;  // cached in init(); tm's count never changes after
  std::atomic<std::uint64_t> rr_{0};
};

}  // namespace gran
