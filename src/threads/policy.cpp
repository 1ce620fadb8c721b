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

std::unique_ptr<scheduling_policy> make_policy(const std::string& name) {
  if (name == "priority-local-fifo") return std::make_unique<priority_local_policy>();
  if (name == "static-fifo") return std::make_unique<static_fifo_policy>();
  if (name == "work-stealing-lifo") return std::make_unique<work_stealing_policy>();
  if (name == "channel-steal") return std::make_unique<channel_steal_policy>();
  throw std::invalid_argument("unknown scheduling policy: " + name);
}

}  // namespace gran
