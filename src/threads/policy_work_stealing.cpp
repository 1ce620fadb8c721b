#include "threads/policy_work_stealing.hpp"

#include <stdexcept>
#include <string>

#include "threads/task.hpp"
#include "threads/thread_manager.hpp"
#include "util/assert.hpp"

namespace gran {

void work_stealing_policy::init(thread_manager& tm) {
  num_workers_ = tm.num_workers();

  const std::string& order = tm.config().steal_order;
  if (order != "hier" && order != "flat")
    throw std::invalid_argument("unknown steal order: " + order + " (hier|flat)");
  hier_ = order == "hier";

  deques_.clear();
  deques_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    auto slot = std::make_unique<deque_slot>();
    // Victim tiers from the topology distance: SMT sibling (0), same NUMA
    // domain (1), remote (2). Ring order from w+1 within each tier keeps
    // the flat ring's neighbor-first determinism inside a tier.
    slot->victims.reserve(static_cast<std::size_t>(num_workers_ - 1));
    for (int tier = 0; tier < 3; ++tier) {
      for (int k = 1; k < num_workers_; ++k) {
        const int v = (w + k) % num_workers_;
        if (tm.steal_distance(w, v) == tier) slot->victims.push_back(v);
      }
      slot->tier_end[tier] = static_cast<int>(slot->victims.size());
    }
    deques_.push_back(std::move(slot));
  }
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

  if (hier_) {
    // Tier by tier: SMT sibling, same domain, remote. The per-sweep nonce
    // rotates the starting victim within each tier so simultaneously idle
    // workers fan out instead of converging on the same victim (the flat
    // ring's herd: every idle worker's first probe was w+1).
    const std::uint32_t r = mine.nonce++;
    int begin = 0;
    for (int tier = 0; tier < 3; ++tier) {
      const int end = mine.tier_end[tier];
      const int size = end - begin;
      for (int k = 0; k < size; ++k) {
        const int idx = begin + static_cast<int>((r + static_cast<std::uint32_t>(k)) %
                                                 static_cast<std::uint32_t>(size));
        if (task* t = try_victim(mine.victims[static_cast<std::size_t>(idx)]))
          return t;
      }
      begin = end;
    }
  } else {
    // Flat ablation baseline: fixed ring order over all other workers.
    const int n = num_workers_;
    for (int k = 1; k < n; ++k)
      if (task* t = try_victim((w + k) % n)) return t;
  }

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
