// Windowed metric aggregation: the live-telemetry view of the counter
// registry and the log2 histograms.
//
// The cumulative counters answer "what happened since start"; a long-running
// service needs "what happened in the last interval". A window_aggregator
// snapshots the registry (and the registered histogram sources) on every
// tick() and reports, per window:
//   * delta and rate for every monotonic counter (reset-aware: a counter
//     that went backwards — manager restart, reset_counters() — restarts
//     its delta from the new value instead of going negative);
//   * end-of-window values for gauges and rates;
//   * exact interval percentiles (p50/p95/p99) of task duration and task
//     overhead via mergeable histogram deltas (histogram_snapshot::
//     snapshot_delta) — not approximations from cumulative state;
//   * interval Eq. 1 idle-rate recomputed from the time-counter deltas;
//   * a per-worker breakdown (tasks/s, interval idle-rate, steal rate,
//     duration percentiles) assembled from the per-worker counter
//     instances.
//
// This is the runtime's one interval engine: the paper's metrics "over any
// interval of interest" (§II-A) are a window's fields, and the JSONL stream
// of windows (--metrics-out / GRAN_METRICS) is the counter time series.
//
// tick() is cheap enough to run from a background thread at 10–100 ms
// periods (one registry lock per prefix, sample lambdas unlocked); the
// streaming exporter (perf/exporter.hpp) serializes the snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perf/counters.hpp"
#include "perf/histogram.hpp"

namespace gran::perf {

struct window_options {
  // Counter-path prefixes included in the window (registry + histogram
  // sources). The set is re-resolved every tick, so late-registered counters
  // join automatically. /service is
  // included by default so a task_service (service/service.hpp) surfaces in
  // the stream the moment it registers; when none exists the prefix simply
  // matches nothing.
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

// Per-worker interval row, derived from the /threads{worker#N}/... counter
// instances and per-worker histogram sources. heartbeat/running fields are
// filled by the telemetry session from the heartbeat board (the aggregator
// itself reads only registries).
struct worker_window {
  int worker = -1;
  double tasks_per_s = 0;
  double idle_rate = 0;        // interval Eq. 1 from this worker's time deltas
  double stolen_per_s = 0;
  double duration_p50_ns = 0;
  double duration_p95_ns = 0;
  double duration_p99_ns = 0;
  std::uint64_t duration_samples = 0;  // histogram delta count
  double heartbeat_age_ns = -1;        // -1 = unmonitored
  std::uint64_t running_task = 0;      // 0 = no phase in flight
  double running_ns = 0;               // age of the in-flight phase
  // Interval IPC from this worker's task-ipc histogram delta; samples == 0
  // when the PMU plane is off or degraded to software mode.
  double ipc_p50 = 0;
  std::uint64_t ipc_samples = 0;
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
  double task_duration_p50_ns = 0, task_duration_p95_ns = 0,
         task_duration_p99_ns = 0, task_duration_mean_ns = 0;
  double task_overhead_p50_ns = 0, task_overhead_p95_ns = 0,
         task_overhead_p99_ns = 0, task_overhead_mean_ns = 0;

  // Service-ingress interval signals (service/service.hpp). Populated only
  // while a task_service has its /service counters registered; has_service
  // gates the stream's optional service section.
  bool has_service = false;
  double sojourn_p50_ns = 0, sojourn_p95_ns = 0, sojourn_p99_ns = 0,
         sojourn_mean_ns = 0;
  std::uint64_t sojourn_count = 0;       // sojourn samples inside the window
  // Interval queue-wait percentiles (admission -> first execution, the
  // in-queue share of sojourn) from /service/histogram/queue-wait deltas.
  double queue_wait_p50_ns = 0, queue_wait_p95_ns = 0, queue_wait_p99_ns = 0,
         queue_wait_mean_ns = 0;
  std::uint64_t queue_wait_count = 0;
  double accepted_per_s = 0, rejected_per_s = 0, completed_per_s = 0;
  double rejection_rate = 0;             // Δrejected / Δsubmitted, 0 when idle
  double service_backlog = 0;            // gauge at window end

  // PMU-plane interval signals (perf/pmu.hpp). has_pmu is true while the
  // plane is enabled (pmu_mode != off); in software mode the IPC /
  // instructions / LLC distributions record nothing, so their sample
  // counts are 0 while mode still reports the degradation.
  bool has_pmu = false;
  int pmu_mode = 0;              // 0 off, 1 full, 2 reduced, 3 minimal, 4 sw
  double ipc_p50 = 0, ipc_p95 = 0, ipc_p99 = 0, ipc_mean = 0;  // IPC (not milli)
  std::uint64_t ipc_samples = 0;
  double instructions_p50 = 0, instructions_p95 = 0, instructions_p99 = 0,
         instructions_mean = 0;  // per phase
  std::uint64_t instructions_samples = 0;
  double llc_p50 = 0, llc_p95 = 0, llc_p99 = 0, llc_mean = 0;  // misses/phase
  std::uint64_t llc_samples = 0;

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
