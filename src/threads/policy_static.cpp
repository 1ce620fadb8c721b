#include "threads/policy_static.hpp"

#include "threads/thread_manager.hpp"

namespace gran {

void static_fifo_policy::init(thread_manager&) {}

void static_fifo_policy::enqueue_new(thread_manager& tm, int /*home*/, task* t) {
  if (t->priority() == task_priority::low) {
    tm.low_priority_queue().push_staged(t);
    return;
  }
  // Always round-robin: static placement spreads work without regard to the
  // spawner, which is the policy's only load-balancing mechanism.
  const int target = static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                                      static_cast<std::uint64_t>(tm.num_workers()));
  worker_data& wd = tm.worker(target);
  if (t->priority() == task_priority::high && wd.owns_high_queue)
    wd.high_queue.push_staged(t);
  else
    wd.queue.push_staged(t);
}

void static_fifo_policy::enqueue_hinted(thread_manager& tm, int target, task* t) {
  // With no stealing the hint is binding: the task runs where it is staged.
  if (t->priority() == task_priority::low) {
    tm.low_priority_queue().push_staged(t);
    return;
  }
  worker_data& wd = tm.worker(target);
  if (t->priority() == task_priority::high && wd.owns_high_queue)
    wd.high_queue.push_staged(t);
  else
    wd.queue.push_staged(t);
}

void static_fifo_policy::enqueue_ready(thread_manager& tm, int home, task* t) {
  if (t->priority() == task_priority::low) {
    tm.low_priority_queue().push_pending(t);
    return;
  }
  int target = t->last_worker();
  if (target < 0) target = home;
  if (target < 0)
    target = static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<std::uint64_t>(tm.num_workers()));
  worker_data& wd = tm.worker(target);
  if (t->priority() == task_priority::high && wd.owns_high_queue)
    wd.high_queue.push_pending(t);
  else
    wd.queue.push_pending(t);
}

task* static_fifo_policy::get_next(thread_manager& tm, int w) {
  if (auto t = pop_local(tm, w)) return *t;
  return tm.pop_low_priority(w);
}

}  // namespace gran
