// Cyclic barrier (std::barrier semantics without the completion function
// template parameter; an optional std::function completion runs under the
// barrier lock when a phase flips).
#pragma once

#include <cstdint>
#include <functional>

#include "sync/spinlock.hpp"
#include "sync/wait_queue.hpp"

namespace gran {

class barrier {
 public:
  explicit barrier(std::int64_t expected,
                   std::function<void()> on_completion = nullptr);
  barrier(const barrier&) = delete;
  barrier& operator=(const barrier&) = delete;

  // Arrives at the barrier and blocks until all `expected` participants of
  // the current phase have arrived.
  void arrive_and_wait();

  // Arrives without waiting and permanently reduces the participant count.
  void arrive_and_drop();

  std::int64_t expected() const noexcept { return expected_; }

 private:
  // Runs the completion, flips the phase and detaches its waiters for
  // dispatch after the caller unlocks. Called with guard_ held.
  wait_queue complete_phase();

  mutable spinlock guard_;
  wait_queue waiters_;
  std::function<void()> on_completion_;
  std::int64_t expected_;
  std::int64_t arrived_ = 0;
  std::uint64_t phase_ = 0;
};

}  // namespace gran
