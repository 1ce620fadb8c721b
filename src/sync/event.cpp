#include "sync/event.hpp"

namespace gran {

void event::set() {
  guard_.lock();
  set_ = true;
  wait_queue to_wake = waiters_.detach_all();
  guard_.unlock();
  to_wake.dispatch_all();
}

void event::reset() {
  guard_.lock();
  set_ = false;
  guard_.unlock();
}

bool event::is_set() const {
  guard_.lock();
  const bool s = set_;
  guard_.unlock();
  return s;
}

void event::wait() const {
  // A waiter released by set() re-checks, so a reset() that wins the race
  // with the wake makes it wait again.
  block_until(guard_, waiters_, [this] { return set_; });
}

}  // namespace gran
