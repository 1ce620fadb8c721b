// Stall watchdog: turns the windowed counters (perf/window.hpp), the
// workers' liveness gauges among them, into explicit incidents instead of
// silent hangs. Three detectors, evaluated once per telemetry tick:
//
//   stuck_task          a phase has been executing on one worker for longer
//                       than `stuck_ns` (the worker row's running_ns).
//                       Reported once per (worker, phase) — a 10-minute task
//                       raises one incident, not one per tick.
//   starved_backlogged  workers report starving AND tasks sit queued AND no
//                       task completed, for `starved_ticks` consecutive
//                       ticks: work exists but is not flowing (lost wakeup,
//                       policy bug). Reported once per episode.
//   flatline            tasks are alive but nothing executes: zero
//                       completions, zero phases, no phase in flight for
//                       `flatline_ticks` consecutive ticks — the deadlock
//                       shape (everyone suspended, nobody to wake them).
//                       Reported once per episode.
//
// Incident totals feed the /threads/count/stall-* counters via the
// process-global stall_stats (the watchdog lives in the perf layer; the
// thread manager registers the counters). The telemetry session
// (perf/telemetry.hpp) writes each incident to the JSONL stream and triggers
// a flight-recorder dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perf/window.hpp"

namespace gran::perf {

enum class stall_kind : std::uint8_t {
  stuck_task,
  starved_backlogged,
  flatline,
};

const char* to_string(stall_kind kind);

struct stall_incident {
  stall_kind kind = stall_kind::stuck_task;
  std::int64_t detected_at_ns = 0;  // the window's end (steady_clock, absolute)
  int worker = -1;                  // stuck_task only
  std::uint64_t task_id = 0;        // stuck_task only
  double age_ns = 0;                // how long the condition has persisted
  std::string detail;               // one-line human summary
};

// Process-global incident totals, so the /threads/count/stall-* counters
// survive the watchdog (telemetry session) being torn down and rebuilt
// around measurement regions. Monotonic; reset() is for tests.
class stall_stats {
 public:
  static stall_stats& instance();

  std::atomic<std::uint64_t> stuck{0};
  std::atomic<std::uint64_t> starved{0};
  std::atomic<std::uint64_t> flatline{0};

  std::uint64_t total() const noexcept {
    return stuck.load(std::memory_order_relaxed) +
           starved.load(std::memory_order_relaxed) +
           flatline.load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  stall_stats() = default;
};

struct watchdog_options {
  std::int64_t stuck_ns = 500'000'000;  // 500 ms
  int starved_ticks = 3;
  int flatline_ticks = 3;
};

// One instance per telemetry session; check() is called from the telemetry
// thread with each fresh window. Stateful across ticks (episode tracking,
// per-worker stuck dedup) but entirely thread-confined.
class stall_watchdog {
 public:
  explicit stall_watchdog(watchdog_options opt = {});

  // Evaluates all detectors against the window `w`; returns the incidents
  // that fired on this tick (usually empty).
  std::vector<stall_incident> check(const window_snapshot& w);

  // Forgets episode state (measurement-region boundary).
  void reset();

  const watchdog_options& options() const noexcept { return opt_; }

 private:
  watchdog_options opt_;
  // Per worker with a flagged phase in flight: that phase, named by the
  // worker's phase count (worker_window::phases).
  std::unordered_map<int, std::uint64_t> reported_phase_;
  int starved_run_ = 0;
  int flatline_run_ = 0;
  bool starved_open_ = false;   // incident already raised for this episode
  bool flatline_open_ = false;
};

}  // namespace gran::perf
