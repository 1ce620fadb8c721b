// Unbounded multi-producer/multi-consumer FIFO.
//
// Fast path is a lock-free Vyukov ring (mpmc_bounded); when the ring fills,
// producers spill into a mutex-protected overflow deque. Consumers drain the
// ring first and refill it from the overflow, preserving FIFO order between
// the two stages. Under the scheduler's normal operating point the overflow
// is empty and every operation is lock-free.
#pragma once

#include <deque>
#include <mutex>
#include <optional>

#include "queues/mpmc_bounded.hpp"

namespace gran {

template <typename T>
class concurrent_fifo {
 public:
  explicit concurrent_fifo(std::size_t ring_capacity = 1024) : ring_(ring_capacity) {}

  void push(T value) {
    // Once anything has spilled we must keep pushing to the overflow until a
    // consumer migrates it back, or FIFO order between stages would break.
    if (overflow_nonempty_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      if (!overflow_.empty()) {
        overflow_.push_back(std::move(value));
        return;
      }
      // Overflow drained between the check and the lock; fall through.
    }
    if (!ring_.push(std::move(value))) {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      overflow_.push_back(std::move(value));
      overflow_nonempty_.store(true, std::memory_order_release);
    }
  }

  std::optional<T> pop() {
    if (auto v = ring_.pop()) return v;
    if (!overflow_nonempty_.load(std::memory_order_acquire)) return std::nullopt;
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (overflow_.empty()) return std::nullopt;
    T value = std::move(overflow_.front());
    overflow_.pop_front();
    // Migrate a batch back to the ring to restore the lock-free path.
    while (!overflow_.empty()) {
      if (!ring_.push(std::move(overflow_.front()))) break;
      overflow_.pop_front();
    }
    if (overflow_.empty()) overflow_nonempty_.store(false, std::memory_order_release);
    return value;
  }

  // Approximate; for scheduling heuristics and tests only.
  std::size_t size_approx() const {
    std::size_t n = ring_.size_approx();
    if (overflow_nonempty_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      n += overflow_.size();
    }
    return n;
  }

 private:
  mpmc_bounded<T> ring_;
  mutable std::mutex overflow_mutex_;
  std::deque<T> overflow_;
  std::atomic<bool> overflow_nonempty_{false};
};

}  // namespace gran
