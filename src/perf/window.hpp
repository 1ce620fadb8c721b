// Windowed metric aggregation: the live-telemetry view of the counter
// registry.
//
// The cumulative counters answer "what happened since start"; a long-running
// service needs "what happened in the last interval". A window_aggregator
// samples the registry — counters and histograms, one batch per prefix — on
// every tick() and reports, per window:
//   * delta and rate for every monotonic counter (reset-aware: a counter
//     that went backwards — manager restart, reset_counters() — restarts
//     its delta from the new value instead of going negative);
//   * end-of-window values for gauges and rates;
//   * exact interval percentiles (p50/p95/p99) of task duration, task
//     overhead, service sojourn and queue wait, and the PMU distributions,
//     via mergeable histogram deltas (histogram_snapshot::snapshot_delta) —
//     not approximations from cumulative state;
//   * interval Eq. 1 idle-rate recomputed from the time-counter deltas;
//   * a per-worker breakdown (tasks/s, interval idle-rate, steal rate,
//     duration percentiles, liveness) assembled from the per-worker counter
//     instances.
//
// This is the runtime's one interval engine: the paper's metrics "over any
// interval of interest" (§II-A) are a window's fields, and the JSONL stream
// of windows (--metrics-out / GRAN_METRICS) is the counter time series.
//
// tick() is cheap enough to run from a background thread at 10–100 ms
// periods (one registry lock per prefix); the streaming exporter
// (perf/exporter.hpp) serializes the snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perf/counters.hpp"
#include "perf/histogram.hpp"

namespace gran::perf {

struct window_options {
  // Counter-path prefixes included in the window (counters and histograms).
  // The set is re-resolved every tick, so late-registered counters join
  // automatically. /service is included by default so a task_service
  // (service/service.hpp) surfaces in the stream the moment it registers;
  // when none exists the prefix simply matches nothing.
  std::vector<std::string> prefixes{"/threads", "/service"};
};

struct window_metric {
  std::string path;
  counter_kind kind = counter_kind::gauge;
  double value = 0;       // at window end (cumulative for monotonic counters)
  double delta = 0;       // change across the window (monotonic: reset-aware)
  double rate_per_s = 0;  // delta / dt, monotonic counters only
};

struct window_histogram {
  std::string name;
  histogram_snapshot cumulative;  // at window end
  histogram_snapshot delta;       // samples recorded inside this window
  bool reset_detected = false;
};

// Percentiles, mean and sample count of one histogram's window delta.
struct percentile_summary {
  double p50 = 0, p95 = 0, p99 = 0, mean = 0;
  std::uint64_t count = 0;
};

// Per-worker interval row, derived from the /threads{worker#N}/... counter
// instances and histograms, liveness gauges included.
struct worker_window {
  int worker = -1;
  double tasks_per_s = 0;
  double idle_rate = 0;        // interval Eq. 1 from this worker's time deltas
  double stolen_per_s = 0;
  percentile_summary duration;     // task-duration delta, ns
  double heartbeat_age_ns = -1;    // -1 = no liveness gauge
  std::uint64_t running_task = 0;  // 0 = no phase in flight
  double running_ns = 0;           // age of the in-flight phase
  // Phases this worker completed (cumulative): a running phase does not
  // move it, so it names the phase in flight for the stall watchdog.
  std::uint64_t phases = 0;
  // Interval IPC from this worker's task-ipc histogram delta; count == 0
  // when the PMU plane is off or degraded to software mode.
  percentile_summary ipc;
};

struct window_snapshot {
  std::uint64_t seq = 0;          // window index, 1-based
  std::int64_t t_start_ns = 0;    // steady_clock, absolute
  std::int64_t t_end_ns = 0;
  double dt_s = 0;

  std::vector<window_metric> metrics;        // sorted by path
  std::vector<window_histogram> histograms;  // sorted by name

  // Interval Eq. 1–3 signals (aggregate over workers).
  double idle_rate = 0;          // (Δt_func − Δt_exec) / Δt_func
  std::uint64_t tasks_delta = 0; // tasks completed inside the window
  double tasks_per_s = 0;
  percentile_summary task_duration, task_overhead;  // ns

  // Service-ingress interval signals (service/service.hpp). Populated only
  // while a task_service has its /service counters registered; has_service
  // gates the stream's optional service section. Queue wait (admission ->
  // first execution) is the in-queue share of sojourn.
  bool has_service = false;
  percentile_summary sojourn, queue_wait;  // ns
  double accepted_per_s = 0, rejected_per_s = 0, completed_per_s = 0;
  double rejection_rate = 0;             // Δrejected / Δsubmitted, 0 when idle
  double service_backlog = 0;            // gauge at window end

  // PMU-plane interval signals (perf/pmu.hpp). has_pmu is true while the
  // plane is enabled (pmu_mode != off); in software mode the IPC /
  // instructions / LLC distributions record nothing, so their sample
  // counts are 0 while mode still reports the degradation.
  bool has_pmu = false;
  int pmu_mode = 0;              // 0 off, 1 full, 2 reduced, 3 minimal, 4 sw
  percentile_summary ipc;           // IPC (not milli)
  percentile_summary instructions;  // per phase
  percentile_summary llc;           // misses per phase

  std::vector<worker_window> workers;  // sorted by worker index

  // Binary-search lookups (metrics/histograms are sorted).
  const window_metric* find(const std::string& path) const;
  const window_histogram* find_histogram(const std::string& name) const;
  double value_or(const std::string& path, double def) const;
  double delta_or(const std::string& path, double def) const;
  double rate_or(const std::string& path, double def) const;
};

class window_aggregator {
 public:
  // Captures the baseline immediately: the first tick() is a proper window
  // starting at construction time.
  explicit window_aggregator(window_options opt = {});

  // Closes the current window (baseline .. now) and opens the next one.
  window_snapshot tick();

 private:
  window_options opt_;
  std::uint64_t seq_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::unordered_map<std::string, double> prev_values_;
  std::unordered_map<std::string, histogram_snapshot> prev_hists_;
};

}  // namespace gran::perf
