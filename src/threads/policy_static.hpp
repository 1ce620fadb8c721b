// Static-FIFO policy: round-robin task placement, no stealing. Each worker
// only ever drains its own dual queues, with Fig. 1's local search
// (pop_local, shared with priority-local-fifo), plus the global
// low-priority queue.
// Exists as the no-load-balancing baseline in the scheduler ablation
// (bench/ablation_scheduler): coarse grains starve dramatically without
// stealing, fine grains behave close to priority-local-fifo.
#pragma once

#include <atomic>

#include "threads/policy.hpp"

namespace gran {

class static_fifo_policy final : public scheduling_policy {
 public:
  const char* name() const noexcept override { return "static-fifo"; }
  void init(thread_manager& tm) override;
  void enqueue_new(thread_manager& tm, int home, task* t) override;
  void enqueue_ready(thread_manager& tm, int home, task* t) override;
  void enqueue_hinted(thread_manager& tm, int target, task* t) override;
  task* get_next(thread_manager& tm, int w) override;

 private:
  std::atomic<std::uint64_t> rr_{0};
};

}  // namespace gran
