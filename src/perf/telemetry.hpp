// Live telemetry session: the background thread that closes a metrics
// window every interval and fans it out —
//
//   window_aggregator ──► JSONL stream (file / FIFO / tcp://host:port)
//        │                Prometheus textfile (atomic rewrite per window)
//        │
//        └─► stall_watchdog ──► incident JSONL lines
//                               flight-recorder dump (GRANTRC1 + report)
//
// The flight recorder also fires on SIGUSR1 ("what is this process doing
// right now?"): the live trace rings are snapshotted (trace_ring::
// snapshot_live), serialized to <flight_prefix>-<n>.bin, and summarized
// through the offline analyzer into <flight_prefix>-<n>.txt — without
// stopping the workers.
//
// Sessions are owned by perf::observability_session (--metrics-out,
// --metrics-prom, --metrics-interval-us, --flight-prefix, --stall-ns and
// the GRAN_METRICS* / GRAN_FLIGHT / GRAN_STALL_NS environment knobs), so
// every bench and tool grows the capability without code changes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "perf/exporter.hpp"
#include "perf/watchdog.hpp"
#include "perf/window.hpp"

namespace gran::perf {

struct telemetry_options {
  // JSONL destination: a file path (appended), a FIFO, or "tcp://host:port".
  // Empty = no stream.
  std::string jsonl_out;
  // Prometheus exposition file, atomically rewritten each window. Empty =
  // none.
  std::string prom_out;
  std::int64_t interval_us = 100'000;  // window length
  // Flight-recorder output prefix: incidents and SIGUSR1 write
  // <prefix>-<n>.bin / .txt. Empty = flight recorder off. A non-empty
  // prefix force-enables tracing (the rings are the recorder's memory), so
  // set it BEFORE constructing the thread manager.
  std::string flight_prefix;
  int max_flights = 8;  // cap automatic dumps per session
  bool install_signal_handler = true;  // SIGUSR1 triggers a flight dump

  watchdog_options watchdog;
  window_options window;

  bool enabled() const {
    return !jsonl_out.empty() || !prom_out.empty() || !flight_prefix.empty();
  }
};

// Telemetry options from the environment — the one place these knobs are
// parsed: GRAN_METRICS (JSONL destination), GRAN_METRICS_PROM, GRAN_METRICS_US
// (window length), GRAN_FLIGHT (flight-recorder prefix; 1/true means
// "gran_flight") and GRAN_STALL_NS (watchdog stuck-task threshold). Unset or
// non-positive numeric knobs keep the defaults.
telemetry_options telemetry_options_from_env();

// Starts a process-lifetime telemetry session from
// telemetry_options_from_env(), the same way GRAN_TRACE arms the tracer: the
// thread manager calls this from its constructor, so ANY gran program —
// not just the benches and tools that own an observability_session —
// honors the env knobs. No-op when the variables are unset, when a
// telemetry_session already exists (observability_session constructs its
// session before the first manager, and wins), and on every call after the
// first.
void telemetry_autostart_from_env();

class telemetry_session {
 public:
  explicit telemetry_session(telemetry_options opt);
  ~telemetry_session();

  telemetry_session(const telemetry_session&) = delete;
  telemetry_session& operator=(const telemetry_session&) = delete;

  // Closes one final window, stops the thread, closes the sinks. Idempotent.
  void stop();

  // Captures a flight dump now (also invoked by the watchdog and SIGUSR1).
  // Returns the .bin path, or "" when the recorder is off / the dump failed.
  std::string capture_flight(const std::string& reason);

  const telemetry_options& options() const noexcept { return opt_; }
  std::uint64_t windows_exported() const noexcept {
    return windows_.load(std::memory_order_relaxed);
  }
  std::uint64_t incidents_raised() const noexcept {
    return incidents_.load(std::memory_order_relaxed);
  }
  std::uint64_t flights_captured() const noexcept {
    return flights_.load(std::memory_order_relaxed);
  }
  std::string last_flight_path() const;

 private:
  void run();
  void close_window();
  void handle_incidents(const window_snapshot& w);
  // Fills the heartbeat/running columns of the per-worker rows (the
  // aggregator reads only registries; liveness comes from the board).
  static void fill_heartbeats(window_snapshot& w);

  telemetry_options opt_;
  window_aggregator aggregator_;
  stall_watchdog watchdog_;
  metrics_sink jsonl_;

  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> incidents_{0};
  std::atomic<std::uint64_t> flights_{0};
  mutable std::mutex flight_mutex_;  // guards last_flight_path_
  std::string last_flight_path_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  bool signal_installed_ = false;
  std::thread thread_;
};

}  // namespace gran::perf
