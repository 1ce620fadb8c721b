#include "threads/policy.hpp"

#include <stdexcept>

#include "threads/policy_channel_steal.hpp"
#include "threads/policy_priority_local.hpp"
#include "threads/policy_static.hpp"
#include "threads/policy_work_stealing.hpp"
#include "threads/thread_manager.hpp"

namespace gran {

void scheduling_policy::enqueue_hinted(thread_manager& tm, int target, task* t) {
  const int caller = thread_manager::current_worker();
  enqueue_new(tm, caller == target ? target : -1, t);
}

void scheduling_policy::cooperate(thread_manager&, int) {}

std::optional<task*> pop_local(thread_manager& tm, int w) {
  worker_data& me = tm.worker(w);
  if (me.owns_high_queue)
    if (auto t = tm.pending_probe(w, me.high_queue.pop_pending())) return t;
  if (auto t = tm.pending_probe(w, me.queue.pop_pending())) return t;
  // The staged->pending->run round trip is what the paper's queue counters
  // observe in HPX.
  const auto convert_from = [&](dual_queue<task*, task*>& q) -> std::optional<task*> {
    auto d = tm.staged_probe(w, q.pop_staged());
    if (!d) return std::nullopt;
    tm.convert(*d);
    q.push_pending(*d);
    return tm.pending_probe(w, q.pop_pending()).value_or(nullptr);
  };
  if (me.owns_high_queue)
    if (auto t = convert_from(me.high_queue)) return t;
  return convert_from(me.queue);
}

std::unique_ptr<scheduling_policy> make_policy(const std::string& name) {
  if (name == "priority-local-fifo") return std::make_unique<priority_local_policy>();
  if (name == "static-fifo") return std::make_unique<static_fifo_policy>();
  if (name == "work-stealing-lifo") return std::make_unique<work_stealing_policy>();
  if (name == "channel-steal") return std::make_unique<channel_steal_policy>();
  throw std::invalid_argument("unknown scheduling policy: " + name);
}

}  // namespace gran
