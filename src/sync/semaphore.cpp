#include "sync/semaphore.hpp"

#include "util/assert.hpp"

namespace gran {

counting_semaphore::counting_semaphore(std::int64_t initial) : count_(initial) {
  GRAN_ASSERT(initial >= 0);
}

void counting_semaphore::release(std::int64_t n) {
  GRAN_ASSERT(n >= 0);
  guard_.lock();
  count_ += n;
  wait_queue to_wake = waiters_.detach(static_cast<std::size_t>(n));
  guard_.unlock();
  to_wake.dispatch_all();
}

void counting_semaphore::acquire() {
  // A woken waiter competes again (another acquirer may have barged in).
  block_until(guard_, waiters_, [this] {
    if (count_ == 0) return false;
    --count_;
    return true;
  });
}

bool counting_semaphore::try_acquire() {
  guard_.lock();
  const bool ok = count_ > 0;
  if (ok) --count_;
  guard_.unlock();
  return ok;
}

std::int64_t counting_semaphore::value() const {
  guard_.lock();
  const std::int64_t v = count_;
  guard_.unlock();
  return v;
}

}  // namespace gran
