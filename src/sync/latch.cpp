#include "sync/latch.hpp"

#include "util/assert.hpp"

namespace gran {

latch::latch(std::int64_t expected) : count_(expected) {
  GRAN_ASSERT(expected >= 0);
}

void latch::count_down(std::int64_t n) {
  guard_.lock();
  GRAN_ASSERT_MSG(count_ >= n, "latch count_down below zero");
  count_ -= n;
  wait_queue to_wake;
  if (count_ == 0) to_wake = waiters_.detach_all();
  guard_.unlock();
  // Dispatch outside the spinlock: a released waiter may destroy the latch.
  to_wake.dispatch_all();
}

bool latch::try_wait() const {
  guard_.lock();
  const bool done = count_ == 0;
  guard_.unlock();
  return done;
}

void latch::wait() const {
  block_until(guard_, waiters_, [this] { return count_ == 0; });
}

void latch::arrive_and_wait(std::int64_t n) {
  count_down(n);
  wait();
}

}  // namespace gran
