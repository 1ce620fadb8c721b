// The per-worker dual-queue of the HPX scheduler (paper §I-B).
//
// Every worker owns one *staged* queue (thread descriptions that have not
// yet been given a context — cheap to create and cheap to move across NUMA
// domains) and one *pending* queue (threads with a context, ready to run).
//
// The queue counts nothing. The paper's §II-A "Thread Pending Queue
// Metrics" (Figs. 9, 10) count every look-up as an access and every failed
// one as a miss; the scheduling policies count them in the probing worker's
// cells (thread_manager::pending_probe, staged_probe).
#pragma once

#include "queues/concurrent_fifo.hpp"

namespace gran {

template <typename Staged, typename Pending>
class dual_queue {
 public:
  explicit dual_queue(std::size_t ring_capacity = 1024)
      : staged_(ring_capacity), pending_(ring_capacity) {}

  // --- producer side -------------------------------------------------
  void push_staged(Staged item) { staged_.push(std::move(item)); }
  void push_pending(Pending item) { pending_.push(std::move(item)); }

  // --- consumer side -------------------------------------------------
  std::optional<Pending> pop_pending() { return pending_.pop(); }
  std::optional<Staged> pop_staged() { return staged_.pop(); }

  // --- introspection ---------------------------------------------------
  std::size_t pending_size_approx() const { return pending_.size_approx(); }
  std::size_t staged_size_approx() const { return staged_.size_approx(); }

 private:
  concurrent_fifo<Staged> staged_;
  concurrent_fifo<Pending> pending_;
};

}  // namespace gran
