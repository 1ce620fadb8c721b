#include "threads/policy_priority_local.hpp"

#include <optional>

#include "threads/task.hpp"
#include "threads/thread_manager.hpp"
#include "util/assert.hpp"

namespace gran {

void priority_local_policy::init(thread_manager& tm) {
  high_queue_owners_ = 0;
  for (int w = 0; w < tm.num_workers(); ++w)
    if (tm.worker(w).owns_high_queue) ++high_queue_owners_;
  GRAN_ASSERT(high_queue_owners_ >= 1);
}

void priority_local_policy::enqueue_new(thread_manager& tm, int home, task* t) {
  switch (t->priority()) {
    case task_priority::high: {
      // Round-robin over the high-priority queue owners.
      const int target = static_cast<int>(
          rr_high_.fetch_add(1, std::memory_order_relaxed) %
          static_cast<std::uint64_t>(high_queue_owners_));
      tm.worker(target).high_queue.push_staged(t);
      return;
    }
    case task_priority::low:
      tm.low_priority_queue().push_staged(t);
      return;
    case task_priority::normal:
      break;
  }
  // Normal priority: stage on the spawning worker; external spawns are
  // distributed round-robin.
  const int target =
      home >= 0 ? home
                : static_cast<int>(rr_normal_.fetch_add(1, std::memory_order_relaxed) %
                                   static_cast<std::uint64_t>(tm.num_workers()));
  tm.worker(target).queue.push_staged(t);
}

void priority_local_policy::enqueue_hinted(thread_manager& tm, int target, task* t) {
  // Staged queues are MPMC-safe dual queues, so a placement hint is just an
  // enqueue_new with `home` forced to the target worker (normal priority;
  // high/low keep their dedicated routing inside enqueue_new).
  enqueue_new(tm, target, t);
}

void priority_local_policy::enqueue_ready(thread_manager& tm, int home, task* t) {
  if (t->priority() == task_priority::low) {
    tm.low_priority_queue().push_pending(t);
    return;
  }
  // Prefer the enqueuing worker, then the worker the task last ran on
  // (cache affinity), then round-robin.
  int target = home;
  if (target < 0) target = t->last_worker();
  if (target < 0)
    target = static_cast<int>(rr_normal_.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<std::uint64_t>(tm.num_workers()));
  worker_data& wd = tm.worker(target);
  if (t->priority() == task_priority::high && wd.owns_high_queue)
    wd.high_queue.push_pending(t);
  else
    wd.queue.push_pending(t);
}

task* priority_local_policy::get_next(thread_manager& tm, int w) {
  worker_data& me = tm.worker(w);

  // 1. Local pending (high-priority queue first).
  if (me.owns_high_queue)
    if (auto t = tm.pending_probe(w, me.high_queue.pop_pending())) return *t;
  if (auto t = tm.pending_probe(w, me.queue.pop_pending())) return *t;

  // 2. Local staged: convert to pending, then take from the pending queue
  // (the staged->pending->run round trip is what the paper's queue counters
  // observe in HPX).
  // Between pop_staged and push_pending the task is in neither queue; the
  // handoff bracket keeps it visible to concurrent queues_empty scans
  // (parking).
  if (me.owns_high_queue) {
    if (auto d = tm.staged_probe(w, me.high_queue.pop_staged())) {
      tm.note_handoff_begin(w);
      tm.convert(*d);
      me.high_queue.push_pending(*d);
      tm.note_handoff_end(w);
      if (auto t = tm.pending_probe(w, me.high_queue.pop_pending())) return *t;
      return nullptr;  // converted work was snatched; retry outer loop
    }
  }
  if (auto d = tm.staged_probe(w, me.queue.pop_staged())) {
    tm.note_handoff_begin(w);
    tm.convert(*d);
    me.queue.push_pending(*d);
    tm.note_handoff_end(w);
    if (auto t = tm.pending_probe(w, me.queue.pop_pending())) return *t;
    return nullptr;
  }

  // Steal probes, one per victim queue, a victim's high-priority queue
  // first. A stolen staged description is converted into this worker's
  // pending queue and taken from there; the result is then engaged even
  // when another thief snatched the task meanwhile, which ends the sweep
  // with nullptr (the caller retries).
  const auto steal_staged = [&](int v) -> std::optional<task*> {
    worker_data& victim = tm.worker(v);
    std::optional<task*> d;
    if (victim.owns_high_queue) d = tm.staged_probe(w, victim.high_queue.pop_staged());
    if (!d) d = tm.staged_probe(w, victim.queue.pop_staged());
    if (!d) return std::nullopt;
    // Cross-worker staged steal: the same in-flight window as the local
    // convert, but the task also changes owner mid-transfer.
    tm.note_handoff_begin(w);
    tm.convert(*d);
    tm.record_steal(w, v, (*d)->id());
    me.queue.push_pending(*d);
    tm.note_handoff_end(w);
    return tm.pending_probe(w, me.queue.pop_pending()).value_or(nullptr);
  };
  const auto steal_pending = [&](int v) -> std::optional<task*> {
    worker_data& victim = tm.worker(v);
    std::optional<task*> t;
    if (victim.owns_high_queue) t = tm.pending_probe(w, victim.high_queue.pop_pending());
    if (!t) t = tm.pending_probe(w, victim.queue.pop_pending());
    if (t) tm.record_steal(w, v, (*t)->id());
    return t;
  };

  // 3./4. The route's local part (own NUMA domain), staged then pending;
  // 5./6. its remote part the same way.
  const std::uint32_t sweep = me.sweeps++;
  for (const auto part : {steal_route::part::local, steal_route::part::remote}) {
    if (auto t = me.route.walk(part, sweep, steal_staged)) return *t;
    if (auto t = me.route.walk(part, sweep, steal_pending)) return *t;
  }

  // 7. Low-priority work only when everything else is exhausted.
  return tm.pop_low_priority(w);
}

bool priority_local_policy::queues_empty(const thread_manager& tm) const {
  for (int w = 0; w < tm.num_workers(); ++w) {
    const worker_data& wd = tm.worker(w);
    if (!wd.queue.empty_approx() || !wd.high_queue.empty_approx()) return false;
  }
  return tm.low_priority_and_handoffs_empty();
}

}  // namespace gran
