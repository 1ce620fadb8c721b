#include "threads/policy_channel_steal.hpp"

#include <algorithm>
#include <stdexcept>

#include "perf/trace.hpp"
#include "threads/task.hpp"
#include "threads/thread_manager.hpp"
#include "util/assert.hpp"

namespace gran {

namespace {

// Batch announcement packing: (victim + 1) << 32 | batch size. Nonzero for
// every real batch (size >= 1), so 0 can mean "no batch pending".
std::uint64_t pack_served(int victim, std::size_t batch) {
  return (static_cast<std::uint64_t>(victim) + 1) << 32 |
         static_cast<std::uint64_t>(batch);
}

}  // namespace

void channel_steal_policy::init(thread_manager& tm) {
  num_workers_ = tm.num_workers();

  const std::string& batch = tm.config().steal_batch;
  if (batch == "one")
    mode_ = batch_mode::one;
  else if (batch == "half")
    mode_ = batch_mode::half;
  else if (batch == "adaptive")
    mode_ = batch_mode::adaptive;
  else
    throw std::invalid_argument("unknown steal batch: " + batch +
                                " (one|half|adaptive)");

  slots_.clear();
  slots_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    auto slot = std::make_unique<worker_slot>();
    // One token ring per potential thief; capacity 1 because each thief has
    // at most one token in flight (the push-success asserts below rely on
    // this invariant).
    slot->req_from.reserve(static_cast<std::size_t>(num_workers_));
    for (int t = 0; t < num_workers_; ++t)
      slot->req_from.push_back(std::make_unique<spsc_ring<steal_request>>(1));
    slots_.push_back(std::move(slot));
  }
}

void channel_steal_policy::push_remote(thread_manager& tm, int target, task* t) {
  (void)tm;
  slots_[static_cast<std::size_t>(target)]->inbox.push(t);
}

void channel_steal_policy::enqueue_new(thread_manager& tm, int home, task* t) {
  if (home >= 0) {
    // `home` is by contract the calling worker — the only thread allowed to
    // touch its private deque. Tasks stay staged; whoever executes them
    // pays the conversion (as in priority-local-fifo).
    GRAN_DEBUG_ASSERT(home == thread_manager::current_worker());
    slots_[static_cast<std::size_t>(home)]->deque.push_back(t);
    return;
  }
  const int target =
      static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<std::uint64_t>(num_workers_));
  push_remote(tm, target, t);
}

void channel_steal_policy::enqueue_ready(thread_manager& tm, int home, task* t) {
  if (home >= 0) {
    GRAN_DEBUG_ASSERT(home == thread_manager::current_worker());
    slots_[static_cast<std::size_t>(home)]->deque.push_back(t);
    return;
  }
  // External wake: prefer the task's previous worker (warm caches), but only
  // if it is a valid index under the current worker count.
  int target = t->last_worker();
  if (target < 0 || target >= num_workers_)
    target = static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<std::uint64_t>(num_workers_));
  push_remote(tm, target, t);
}

void channel_steal_policy::enqueue_hinted(thread_manager& tm, int target, task* t) {
  if (target == thread_manager::current_worker()) {
    slots_[static_cast<std::size_t>(target)]->deque.push_back(t);
    return;
  }
  push_remote(tm, target, t);
}

void channel_steal_policy::send_to_hop(thread_manager& tm, int sender,
                                       steal_request r) {
  const int target =
      tm.worker(r.thief).route.circuit(r.sweep, static_cast<std::uint32_t>(r.hops));
  worker_slot& vs = *slots_[static_cast<std::size_t>(target)];
  const bool ok = vs.req_from[static_cast<std::size_t>(r.thief)]->push(r);
  GRAN_ASSERT_MSG(ok, "steal-request token ring overflow (token discipline broken)");
  vs.pending_reqs.fetch_add(1, std::memory_order_relaxed);
  perf::trace_emit(tm.worker(sender).trace, perf::trace_kind::steal_request,
                   sender, static_cast<std::uint64_t>(r.hops),
                   perf::steal_arg2(target, tm.steal_distance(r.thief, target)));
}

void channel_steal_policy::maybe_send_request(thread_manager& tm, int w) {
  worker_slot& me = *slots_[static_cast<std::size_t>(w)];
  if (num_workers_ < 2 || me.outstanding || me.blocked) return;
  worker_counters& c = tm.worker(w).counters;
  me.last_refill_dry =
      me.had_refill &&
      c.cell(counter_event::created).load(std::memory_order_relaxed) == me.spawns_at_refill;
  steal_request r;
  r.thief = w;
  r.sweep = tm.worker(w).sweeps++;
  r.hops = 0;
  r.half = request_half(mode_, me.last_refill_dry);
  me.outstanding = true;
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  c.bump(counter_event::steal_req_sent);
  send_to_hop(tm, w, r);
}

void channel_steal_policy::handle_request(thread_manager& tm, int w,
                                          const steal_request& r) {
  worker_slot& me = *slots_[static_cast<std::size_t>(w)];
  worker_counters& c = tm.worker(w).counters;

  if (r.thief == w) {
    // My own token came back: every victim declined. Stop requesting until
    // the manager's queued count signals new supply — this is what drains
    // the circulating-request count to zero on an idle pool.
    me.outstanding = false;
    me.blocked = true;
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  worker_slot& thief_slot = *slots_[static_cast<std::size_t>(r.thief)];
  if (!me.deque.empty()) {
    // Serve: take from the FRONT (the breadth-first steal side) and push
    // into the thief's delivery channel. The thief drained its channel
    // before re-sending its token, so the ring is empty and every push
    // succeeds.
    GRAN_DEBUG_ASSERT(thief_slot.served.load(std::memory_order_relaxed) == 0);
    std::size_t batch =
        r.half ? std::max<std::size_t>(1, me.deque.size() / 2) : 1;
    batch = std::min(batch, thief_slot.delivery.capacity());
    for (std::size_t i = 0; i < batch; ++i) {
      task* t = me.deque.front();
      me.deque.pop_front();
      const bool ok = thief_slot.delivery.push(t);
      GRAN_ASSERT_MSG(ok, "delivery channel overflow (batch exceeds capacity)");
    }
    // Announce after the last push: the thief's acquire of `served` makes
    // the whole batch visible and hands the producer role onward.
    thief_slot.served.store(pack_served(w, batch), std::memory_order_release);
    perf::trace_emit(tm.worker(w).trace, perf::trace_kind::steal_handoff, w,
                     static_cast<std::uint64_t>(batch),
                     perf::steal_arg2(r.thief, tm.steal_distance(w, r.thief)));
    // The thief may be parked; only it can collect this batch, so wake
    // everyone rather than one arbitrary sleeper.
    tm.notify_work_available(/*all=*/true);
    return;
  }

  // Empty deque: pass the token along the thief's route, or return it
  // declined once it has visited every victim.
  if (r.hops + 1 < num_workers_ - 1) {
    steal_request fwd = r;
    ++fwd.hops;
    c.bump(counter_event::steal_req_forwarded);
    send_to_hop(tm, w, fwd);
  } else {
    c.bump(counter_event::steal_req_declined);
    const bool ok =
        thief_slot.req_from[static_cast<std::size_t>(r.thief)]->push(r);
    GRAN_ASSERT_MSG(ok, "decline ring overflow (token discipline broken)");
    thief_slot.pending_reqs.fetch_add(1, std::memory_order_relaxed);
  }
}

void channel_steal_policy::service_requests(thread_manager& tm, int w) {
  worker_slot& me = *slots_[static_cast<std::size_t>(w)];
  if (me.pending_reqs.load(std::memory_order_relaxed) == 0) return;
  for (int t = 0; t < num_workers_; ++t) {
    while (auto r = me.req_from[static_cast<std::size_t>(t)]->pop()) {
      me.pending_reqs.fetch_sub(1, std::memory_order_relaxed);
      handle_request(tm, w, *r);
    }
  }
}

std::size_t channel_steal_policy::collect_batch(thread_manager& tm, int w) {
  worker_slot& me = *slots_[static_cast<std::size_t>(w)];
  const std::uint64_t ann = me.served.load(std::memory_order_acquire);
  if (ann == 0) return 0;
  const int victim = static_cast<int>(ann >> 32) - 1;
  const auto batch = static_cast<std::size_t>(ann & 0xffffffffull);

  task* first = nullptr;
  for (std::size_t i = 0; i < batch; ++i) {
    auto t = me.delivery.pop();
    GRAN_ASSERT_MSG(t.has_value(), "announced batch short of tasks");
    if (first == nullptr) first = *t;
    me.deque.push_back(*t);
  }
  // Reset before the next request: the release-push of the next token
  // orders this store before the next victim's announcement.
  me.served.store(0, std::memory_order_relaxed);
  me.outstanding = false;
  me.blocked = false;
  me.had_refill = true;
  me.spawns_at_refill =
      tm.worker(w).counters.cell(counter_event::created).load(std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);

  tm.record_steal(w, victim, first != nullptr ? first->id() : 0, batch);
  return batch;
}

task* channel_steal_policy::get_next(thread_manager& tm, int w) {
  worker_slot& me = *slots_[static_cast<std::size_t>(w)];

  // Victim duties first — the scheduler-round cooperation point.
  service_requests(tm, w);
  // A delivery answering an earlier request refills the private deque.
  collect_batch(tm, w);

  // Owner side: LIFO pop of the private deque, then the cross-thread
  // enqueues addressed to this worker. Both count as pending-queue probes,
  // so the paper's queue metrics stay comparable across policies.
  task* own = nullptr;
  if (!me.deque.empty()) {
    own = me.deque.back();
    me.deque.pop_back();
  }
  if (task* t = tm.pending_probe(w, own)) {
    if (!t->has_context()) tm.convert(t);
    return t;
  }
  if (auto t = tm.pending_probe(w, me.inbox.pop())) {
    if (!(*t)->has_context()) tm.convert(*t);
    return *t;
  }

  // Low-priority work last, as in every policy.
  if (task* t = tm.pop_low_priority(w)) return t;

  // Nothing local: become a thief. A declined token blocks requesting
  // until the manager observes queued work again.
  if (me.blocked && tm.queued_tasks() > 0) me.blocked = false;
  maybe_send_request(tm, w);
  return nullptr;
}

void channel_steal_policy::cooperate(thread_manager& tm, int w) {
  service_requests(tm, w);
}

}  // namespace gran
