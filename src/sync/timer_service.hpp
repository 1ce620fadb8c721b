// Deadline service for cooperative sleeps: a task calling sleep_for()
// suspends (its worker keeps running other tasks) and is woken by a shared
// timer thread when the deadline passes; external threads just block.
//
// One lazily started timer thread serves the whole process; it sleeps until
// the earliest registered deadline and is re-armed whenever an earlier one
// arrives.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "threads/thread_manager.hpp"

namespace gran {

// Handshake object for cancellable timed wakes. States:
//   armed     — the timer will fire at the deadline
//   firing    — the timer thread is delivering the wake right now
//   done      — the wake was delivered
//   cancelled — the waiter cancelled before the timer fired
// The waiter must call wake_ticket_cancel() before letting the woken task
// terminate: it either cancels the timer or waits out an in-flight delivery,
// so the timer thread never touches a dead task.
using wake_ticket = std::shared_ptr<std::atomic<int>>;

// Cancels the ticket. Returns true if the timer had NOT fired (we cancelled
// it); false if the timer fired (after waiting for its delivery to finish).
bool wake_ticket_cancel(const wake_ticket& ticket);

class timer_service {
 public:
  using clock = std::chrono::steady_clock;

  static timer_service& global();

  ~timer_service();
  timer_service(const timer_service&) = delete;
  timer_service& operator=(const timer_service&) = delete;

  // Blocks the caller until `deadline`: cooperatively inside a task (on a
  // schedule_wake ticket, so a stray wake only re-checks the deadline),
  // natively otherwise.
  void sleep_until(clock::time_point deadline);

  template <typename Rep, typename Period>
  void sleep_for(std::chrono::duration<Rep, Period> d) {
    sleep_until(clock::now() + d);
  }

  // Arms a one-shot wake of `t` at `deadline` (used by timed future waits).
  // The caller must wake_ticket_cancel() the ticket once it no longer wants
  // the wake — and before the task can terminate.
  wake_ticket schedule_wake(task* t, clock::time_point deadline);

  // Number of sleepers currently registered (tests/introspection).
  std::size_t pending() const;

 private:
  timer_service() = default;

  struct entry {
    clock::time_point deadline;
    task* sleeper;
    wake_ticket ticket;
    bool operator>(const entry& o) const { return deadline > o.deadline; }
  };

  void ensure_thread_locked();
  void timer_main();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<entry, std::vector<entry>, std::greater<entry>> deadlines_;
  std::thread thread_;
  bool running_ = false;
  bool stopping_ = false;
};

namespace this_task {

// Cooperative sleep: the current task suspends until the duration elapses
// (outside a task this is a plain blocking sleep).
template <typename Rep, typename Period>
void sleep_for(std::chrono::duration<Rep, Period> d) {
  timer_service::global().sleep_for(d);
}

inline void sleep_until(timer_service::clock::time_point deadline) {
  timer_service::global().sleep_until(deadline);
}

}  // namespace this_task

}  // namespace gran
