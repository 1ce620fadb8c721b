// Waiter bookkeeping shared by all blocking primitives, and block_until,
// the one wait loop they block through.
//
// A waiter is either a task (suspended cooperatively — the worker keeps
// running other tasks, paper §I-B) or an external OS thread (parked on a
// condition variable). The owning primitive serializes access with its own
// spinlock; wait_queue itself is not thread-safe. An empty queue owns no
// memory: the first waiter allocates, so primitives that are never waited
// on (most future states) cost no allocation here.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "threads/thread_manager.hpp"

namespace gran {

// Stack-allocated parking slot for a non-worker thread.
class external_waiter {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return notified_; });
  }

  // Returns true if notified, false on timeout.
  template <typename Clock, typename Duration>
  bool wait_until(std::chrono::time_point<Clock, Duration> deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [this] { return notified_; });
  }

  void notify() {
    // Notify *while holding* the mutex: the waiter cannot return from
    // wait() (and destroy this object) until we release it, so cv_ stays
    // valid for the notify call.
    std::lock_guard<std::mutex> lock(mutex_);
    notified_ = true;
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool notified_ = false;
};

class wait_queue {
 public:
  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return waiters_.size() - head_; }

  void add_task(task* t) { waiters_.push_back(entry{t, nullptr}); }
  void add_external(external_waiter* w) { waiters_.push_back(entry{nullptr, w}); }

  // Removes a specific waiter (timeout/interrupt paths). Returns false when
  // it had already been removed by a notifier.
  bool remove(const task* t) {
    return erase_if([t](const entry& e) { return e.t == t; });
  }

  bool remove_external(const external_waiter* w) {
    return erase_if([w](const entry& e) { return e.ext == w; });
  }

  // Wakes the oldest waiter. Returns false when the queue was empty.
  //
  // DESTRUCTION-RACE WARNING: a released waiter may immediately destroy the
  // primitive that owns this queue. Only call notify_* with the owner's
  // lock held when the owner is guaranteed to outlive the wake (e.g. a
  // shared_state kept alive by the caller's shared_ptr). Otherwise use
  // detach()/detach_all() under the lock and dispatch_all() after
  // releasing it.
  bool notify_one() {
    if (empty()) return false;
    dispatch(pop_front());
    return true;
  }

  void notify_all() {
    while (notify_one()) {
    }
  }

  // Moves out up to `n` waiters (all by default) for dispatch outside the
  // owner's critical section.
  wait_queue detach_all() {
    wait_queue q;
    q.waiters_.swap(waiters_);
    q.head_ = head_;
    head_ = 0;
    return q;
  }

  wait_queue detach(std::size_t n) {
    wait_queue q;
    while (n-- > 0 && !empty()) q.waiters_.push_back(pop_front());
    return q;
  }

  // Wakes everything previously detached. The queue being dispatched is a
  // local copy, so no lock is needed.
  void dispatch_all() {
    for (std::size_t i = head_; i < waiters_.size(); ++i) dispatch(waiters_[i]);
    waiters_.clear();
    head_ = 0;
  }

 private:
  struct entry {
    task* t;
    external_waiter* ext;
  };

  // FIFO over a vector: pops advance head_, and the popped prefix is
  // erased once it is at least half the buffer, so both ends stay
  // amortized O(1) and a queue that keeps some waiters does not grow.
  entry pop_front() {
    const entry e = waiters_[head_++];
    if (2 * head_ >= waiters_.size()) {
      waiters_.erase(waiters_.begin(),
                     waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return e;
  }

  template <typename Match>
  bool erase_if(Match match) {
    for (auto it = waiters_.begin() + static_cast<std::ptrdiff_t>(head_);
         it != waiters_.end(); ++it)
      if (match(*it)) {
        waiters_.erase(it);
        return true;
      }
    return false;
  }

  static void dispatch(const entry& e) {
    if (e.t != nullptr) {
      // Route through the task's owning manager so wakes work from any
      // thread — another task's worker or a plain OS thread.
      thread_manager* tm = e.t->owner();
      GRAN_ASSERT_MSG(tm != nullptr, "waking a task with no owning manager");
      tm->wake(e.t);
    } else {
      e.ext->notify();
    }
  }

  std::vector<entry> waiters_;  // [head_, size) are queued, oldest first
  std::size_t head_ = 0;
};

// Blocks the caller until `ready()` returns true; `ready` runs with `guard`
// held and may take what the caller waits for (the lock, a permit, an item).
// The task-wait protocol, race-free with task::wake (task.hpp), per round:
//     prepare_suspend; lock guard; drop our entry if a round woke us and it
//     is still queued; ready() ? unlock, cancel_suspend, return
//                              : register, unlock, commit_suspend (suspend)
// A plain thread registers an external_waiter and parks on it instead.
// Either kind re-checks after every wake, so a waker may release more
// waiters than can proceed. A stray wake (thread_manager::wake on a task
// blocked here) costs one re-check: it can neither release the waiter early
// nor leave it queued twice.
//
// Three waits keep their own loop: condition_variable::wait releases the
// caller's mutex after registering and returns after one wake (dropping a
// stale entry itself); shared_state::wait_until races a timer wake against
// the notifier; and timer_service::sleep_until queues on the timer heap,
// not on a wait_queue.
template <typename Guard, typename Ready>
void block_until(Guard& guard, wait_queue& waiters, Ready&& ready) {
  task* const t = thread_manager::current_task();
  for (bool woken = false;; woken = true) {
    if (t != nullptr) this_task::prepare_suspend();
    guard.lock();
    // A notifier pops the entry it wakes; one still queued was woken stray.
    if (woken && t != nullptr) waiters.remove(t);
    if (ready()) {
      guard.unlock();
      if (t != nullptr) this_task::cancel_suspend();
      return;
    }
    if (t != nullptr) {
      waiters.add_task(t);
      guard.unlock();
      this_task::commit_suspend();
    } else {
      external_waiter w;
      waiters.add_external(&w);
      guard.unlock();
      w.wait();
    }
  }
}

}  // namespace gran
