// High-resolution timing.
//
// Two clocks are provided:
//  * tsc_clock   — raw rdtsc cycles, calibrated once against steady_clock.
//                  ~6 ns to read; used by the per-task timestamping that
//                  feeds the /threads/time/* performance counters.
//  * stopwatch   — steady_clock convenience wrapper for coarse sections.
//
// The paper (§II, note) measures the overhead of invoking these timers and
// finds it insignificant except for sub-4 µs tasks on one core; the timer
// rows of bench/micro_observer_overhead reproduce that measurement.
#pragma once

#include <chrono>
#include <cstdint>

namespace gran {

// Nanoseconds as the universal internal time unit.
using nanoseconds_t = std::int64_t;

// Reads the CPU timestamp counter. On non-x86 platforms falls back to
// steady_clock (same interface, coarser cost).
std::uint64_t rdtsc() noexcept;

// Calibrated TSC clock. The first use (or an explicit calibrate()) measures
// the TSC frequency against std::chrono::steady_clock over a short window.
class tsc_clock {
 public:
  // Ticks of the underlying counter; convert with to_ns().
  static std::uint64_t now() noexcept { return rdtsc(); }

  // Nanoseconds per tick (calibrated once, cached).
  static double ns_per_tick();

  static nanoseconds_t to_ns(std::uint64_t ticks) {
    return static_cast<nanoseconds_t>(static_cast<double>(ticks) * ns_per_tick());
  }

  // Forces recalibration (used by tests).
  static void calibrate();
};

// Convenience steady_clock stopwatch.
class stopwatch {
 public:
  stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  nanoseconds_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start_).count();
  }

  double elapsed_s() const { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace gran
