#include "sync/barrier.hpp"

#include "util/assert.hpp"

namespace gran {

barrier::barrier(std::int64_t expected, std::function<void()> on_completion)
    : on_completion_(std::move(on_completion)), expected_(expected) {
  GRAN_ASSERT(expected >= 1);
}

wait_queue barrier::complete_phase() {
  if (on_completion_) on_completion_();
  arrived_ = 0;
  ++phase_;
  return waiters_.detach_all();
}

void barrier::arrive_and_wait() {
  guard_.lock();
  const std::uint64_t my_phase = phase_;
  if (++arrived_ == expected_) {
    // Release everyone outside the spinlock (see wait_queue docs).
    wait_queue to_wake = complete_phase();
    guard_.unlock();
    to_wake.dispatch_all();
    return;
  }
  guard_.unlock();
  block_until(guard_, waiters_, [&] { return phase_ != my_phase; });
}

void barrier::arrive_and_drop() {
  guard_.lock();
  GRAN_ASSERT(expected_ >= 1);
  --expected_;
  // Dropping may satisfy the current phase for the remaining participants.
  wait_queue to_wake;
  if (expected_ > 0 && arrived_ == expected_) to_wake = complete_phase();
  guard_.unlock();
  to_wake.dispatch_all();
}

}  // namespace gran
