#include "sync/mutex.hpp"

#include <utility>

namespace gran {

void mutex::lock() {
  // A woken waiter competes again (barging keeps the fast path cheap;
  // starvation is bounded by FIFO wakes).
  block_until(guard_, waiters_, [this] { return !std::exchange(locked_, true); });
}

bool mutex::try_lock() {
  guard_.lock();
  const bool acquired = !locked_;
  locked_ = true;
  guard_.unlock();
  return acquired;
}

void mutex::unlock() {
  guard_.lock();
  locked_ = false;
  wait_queue to_wake = waiters_.detach(1);
  guard_.unlock();
  // Dispatch outside the spinlock: the woken party may destroy this mutex.
  to_wake.dispatch_all();
}

}  // namespace gran
