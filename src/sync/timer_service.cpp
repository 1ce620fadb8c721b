#include "sync/timer_service.hpp"

#include "util/assert.hpp"

namespace gran {

namespace {
// wake_ticket states.
constexpr int k_armed = 0, k_firing = 1, k_done = 2, k_cancelled = 3;
}  // namespace

bool wake_ticket_cancel(const wake_ticket& ticket) {
  int expected = k_armed;
  if (ticket->compare_exchange_strong(expected, k_cancelled,
                                      std::memory_order_acq_rel))
    return true;  // timer will skip this entry
  // Timer won the race: wait out the (brief) delivery so the task pointer
  // is never touched after we return.
  while (ticket->load(std::memory_order_acquire) != k_done) std::this_thread::yield();
  return false;
}

timer_service& timer_service::global() {
  static timer_service service;
  return service;
}

timer_service::~timer_service() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void timer_service::ensure_thread_locked() {
  if (!running_) {
    running_ = true;
    thread_ = std::thread([this] { timer_main(); });
  }
}

void timer_service::sleep_until(clock::time_point deadline) {
  task* const t = thread_manager::current_task();
  if (t == nullptr) {
    std::this_thread::sleep_until(deadline);
    return;
  }
  // A wake by anyone but the timer ends a suspension early: retire the
  // timer's claim (waiting out an in-flight delivery) and sleep again, so a
  // stray wake costs one re-check and the timer never wakes a task that
  // has moved on.
  while (clock::now() < deadline) {
    this_task::prepare_suspend();
    const wake_ticket ticket = schedule_wake(t, deadline);
    this_task::commit_suspend();
    wake_ticket_cancel(ticket);
  }
}

wake_ticket timer_service::schedule_wake(task* t, clock::time_point deadline) {
  GRAN_ASSERT(t != nullptr);
  auto ticket = std::make_shared<std::atomic<int>>(k_armed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_thread_locked();
    deadlines_.push(entry{deadline, t, ticket});
  }
  cv_.notify_one();
  return ticket;
}

std::size_t timer_service::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadlines_.size();
}

void timer_service::timer_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (deadlines_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !deadlines_.empty(); });
      continue;
    }
    const clock::time_point next = deadlines_.top().deadline;
    if (cv_.wait_until(lock, next,
                       [this, next] {
                         return stopping_ ||
                                (!deadlines_.empty() &&
                                 deadlines_.top().deadline < next);
                       })) {
      continue;  // earlier deadline arrived or shutting down
    }
    // Deadline passed: release every expired sleeper.
    const clock::time_point now = clock::now();
    std::vector<entry> expired;
    while (!deadlines_.empty() && deadlines_.top().deadline <= now) {
      expired.push_back(deadlines_.top());
      deadlines_.pop();
    }
    lock.unlock();
    for (const entry& e : expired) {
      // Claim the wake; skip it if the waiter cancelled.
      int expected = k_armed;
      if (!e.ticket->compare_exchange_strong(expected, k_firing,
                                             std::memory_order_acq_rel))
        continue;
      thread_manager* tm = e.sleeper->owner();
      GRAN_ASSERT_MSG(tm != nullptr, "sleeping task has no owning manager");
      tm->wake(e.sleeper);
      e.ticket->store(k_done, std::memory_order_release);
    }
    lock.lock();
  }
}

}  // namespace gran
