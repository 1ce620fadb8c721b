#include "threads/policy_work_stealing.hpp"

#include "threads/task.hpp"
#include "threads/thread_manager.hpp"
#include "util/assert.hpp"

namespace gran {

void work_stealing_policy::init(thread_manager& tm) {
  num_workers_ = tm.num_workers();
  deques_.clear();
  deques_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) deques_.push_back(std::make_unique<deque_slot>());
}

void work_stealing_policy::push_remote(int target, task* t) {
  // The caller may not be a worker: a new task stays staged in the inbox,
  // and the worker that pops it attaches the context.
  deques_[static_cast<std::size_t>(target)]->inbox.push(t);
}

void work_stealing_policy::enqueue_new(thread_manager& tm, int home, task* t) {
  if (home >= 0) {
    // `home` is by contract the calling worker — the only thread allowed to
    // push the bottom of its Chase–Lev deque.
    GRAN_DEBUG_ASSERT(home == thread_manager::current_worker());
    if (!t->has_context()) tm.convert(t);
    deques_[static_cast<std::size_t>(home)]->deque.push(t);
    return;
  }
  const int target =
      static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<std::uint64_t>(num_workers_));
  push_remote(target, t);
}

void work_stealing_policy::enqueue_ready(thread_manager& tm, int home, task* t) {
  if (home >= 0) {
    GRAN_DEBUG_ASSERT(home == thread_manager::current_worker());
    if (!t->has_context()) tm.convert(t);
    deques_[static_cast<std::size_t>(home)]->deque.push(t);
    return;
  }
  // External wake: prefer the task's previous worker (warm caches), but only
  // if it is a valid index under the *current* worker count.
  int target = t->last_worker();
  if (target < 0 || target >= num_workers_)
    target = static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<std::uint64_t>(num_workers_));
  push_remote(target, t);
}

void work_stealing_policy::enqueue_hinted(thread_manager& tm, int target, task* t) {
  if (target == thread_manager::current_worker()) {
    if (!t->has_context()) tm.convert(t);
    deques_[static_cast<std::size_t>(target)]->deque.push(t);
    return;
  }
  push_remote(target, t);
}

task* work_stealing_policy::get_next(thread_manager& tm, int w) {
  deque_slot& mine = *deques_[static_cast<std::size_t>(w)];

  // Owner side: LIFO pop, then the cross-worker hand-offs addressed to this
  // worker. Both count as pending-queue probes, so the paper's queue
  // metrics stay comparable across policies.
  if (auto t = tm.pending_probe(w, mine.deque.pop())) return *t;
  if (auto t = tm.pending_probe(w, mine.inbox.pop())) {
    if (!(*t)->has_context()) tm.convert(*t);
    return *t;
  }

  // Thief side. One probe per steal attempt, regardless of internal CAS
  // retries; a victim whose deque is dry gets a second probe into its inbox.
  const auto try_victim = [&](int victim) -> task* {
    deque_slot& v = *deques_[static_cast<std::size_t>(victim)];
    auto t = tm.pending_probe(w, v.deque.steal());
    if (!t) {
      t = tm.pending_probe(w, v.inbox.pop());
      if (!t) return nullptr;
      if (!(*t)->has_context()) tm.convert(*t);
    }
    tm.record_steal(w, victim, (*t)->id());
    return *t;
  };

  worker_data& me = tm.worker(w);
  if (task* t = me.route.walk(steal_route::part::all, me.sweeps++, try_victim)) return t;

  // Low-priority work last, as in every policy.
  return tm.pop_low_priority(w);
}

bool work_stealing_policy::queues_empty(const thread_manager& tm) const {
  // Lock-free bottom/top scan — no mutex per worker as the old
  // implementation had. empty_approx is conservative for the shutdown and
  // parking protocols: a concurrent push is caught by the enqueuer's wakeup.
  for (const auto& d : deques_)
    if (!d->deque.empty_approx() || !d->inbox.empty_approx()) return false;
  return tm.low_priority_and_handoffs_empty();
}

}  // namespace gran
