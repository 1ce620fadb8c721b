#include "sync/condition_variable.hpp"

#include "util/assert.hpp"

namespace gran {

void condition_variable::wait(std::unique_lock<mutex>& lock) {
  GRAN_ASSERT_MSG(lock.owns_lock(), "condition_variable::wait requires a held lock");
  task* const t = thread_manager::current_task();
  if (t != nullptr) {
    this_task::prepare_suspend();
    guard_.lock();
    waiters_.add_task(t);
    guard_.unlock();
    // Release the user mutex only after registering: a notifier that takes
    // the mutex after unlock() is guaranteed to see this waiter.
    lock.unlock();
    this_task::commit_suspend();
    // A notifier pops the entry it wakes; one still queued was woken stray.
    // Drop it, so no later notify lands on this task twice or after it ends.
    guard_.lock();
    waiters_.remove(t);
    guard_.unlock();
  } else {
    external_waiter w;
    guard_.lock();
    waiters_.add_external(&w);
    guard_.unlock();
    lock.unlock();
    w.wait();
  }
  lock.lock();
}

void condition_variable::notify_one() {
  guard_.lock();
  wait_queue to_wake = waiters_.detach(1);
  guard_.unlock();
  to_wake.dispatch_all();
}

void condition_variable::notify_all() {
  guard_.lock();
  wait_queue to_wake = waiters_.detach_all();
  guard_.unlock();
  to_wake.dispatch_all();
}

}  // namespace gran
