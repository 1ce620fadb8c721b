// Exponential spin backoff for lock-free retry loops and idle worker waits.
#pragma once

#include <cstdint>
#include <thread>

#include "util/timer.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gran {

// Single CPU pause/yield hint.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Exponential backoff: spins with pause hints, escalating to OS yield once
// the spin budget is exhausted. Reset when progress is made.
class backoff {
 public:
  explicit backoff(std::uint32_t spin_limit = 1024) noexcept : spin_limit_(spin_limit) {}

  void pause() noexcept {
    if (count_ < spin_limit_) {
      for (std::uint32_t i = 0; i < count_ + 1; ++i) cpu_relax();
      count_ = count_ == 0 ? 1 : count_ * 2;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

  // True once backoff has escalated past pure spinning.
  bool yielding() const noexcept { return count_ >= spin_limit_; }

 private:
  std::uint32_t count_ = 0;
  std::uint32_t spin_limit_;
};

// Idle-worker escalation: spin with pause hints, then OS-yield, then tell
// the caller to park (block on its wakeup primitive). Unlike `backoff`, the
// two thresholds are configurable so the scheduler's idle_spin_limit /
// idle_yield_limit knobs map onto it directly. They count fruitless
// scheduler rounds, and every step waits at least `step_ns`, so the time a
// starved worker takes to park is set by the thresholds and not by what one
// round of queue probes costs (which moves with the policy, the worker
// count and the cost of counting a probe).
class idle_backoff {
 public:
  static constexpr double step_ns = 1500.0;

  idle_backoff(std::uint32_t spin_limit, std::uint32_t yield_limit) noexcept
      : spin_limit_(spin_limit),
        yield_limit_(yield_limit),
        step_ticks_(static_cast<std::uint64_t>(step_ns / tsc_clock::ns_per_tick())) {}

  // One escalation step. Returns true once the caller should park.
  bool pause() noexcept {
    ++streak_;
    if (streak_ > yield_limit_) return true;
    const std::uint64_t until = tsc_clock::now() + step_ticks_;
    if (streak_ > spin_limit_) std::this_thread::yield();
    do cpu_relax();
    while (tsc_clock::now() < until);
    return false;
  }

  void reset() noexcept { streak_ = 0; }
  std::uint32_t streak() const noexcept { return streak_; }

 private:
  std::uint32_t streak_ = 0;
  std::uint32_t spin_limit_;
  std::uint32_t yield_limit_;
  std::uint64_t step_ticks_;
};

}  // namespace gran
