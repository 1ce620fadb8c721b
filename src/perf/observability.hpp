// One-stop wiring of the observability features (trace export + live
// telemetry) for tools and benches.
//
// An observability_session is an RAII object created at the top of main():
// it enables tracing and/or starts the telemetry session according to CLI
// flags and environment knobs, and on destruction stops the telemetry and
// exports the trace.
//
//   CLI flags                     env fallback        effect
//   --trace-out=PATH              GRAN_TRACE          Chrome/Perfetto JSON
//   --trace-bin=PATH              GRAN_TRACE_BIN      binary dump for
//                                                     gran_trace_report
//   --trace-buf=N                 GRAN_TRACE_BUF      ring capacity (events)
//   --metrics-out=DEST            GRAN_METRICS        live JSONL window
//                                                     stream (file, FIFO, or
//                                                     tcp://host:port) — the
//                                                     counter time series;
//                                                     tools/gran_top tails it
//   --metrics-prom=PATH           GRAN_METRICS_PROM   Prometheus textfile,
//                                                     rewritten per window
//   --metrics-interval-us=N       GRAN_METRICS_US     window length
//   --flight-prefix=P             GRAN_FLIGHT         flight recorder on:
//                                                     stall/SIGUSR1 dumps
//                                                     P-<n>.bin + .txt
//   --stall-ns=N                  GRAN_STALL_NS       watchdog stuck-task
//                                                     threshold
//   --pmu=MODE                    GRAN_PMU            per-task hardware
//                                                     counters: off (default),
//                                                     1/on = probe hardware,
//                                                     sw/software = timers only
//
// The flags and variables of the removed CSV sampler (--sample-* and
// GRAN_SAMPLE_*) exit with a pointer to --metrics-out / GRAN_METRICS rather
// than being silently ignored.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "perf/telemetry.hpp"
#include "util/cli.hpp"

namespace gran::perf {

class observability_session {
 public:
  struct options {
    std::string trace_out;                  // Chrome JSON path; empty = none
    std::string trace_bin;                  // binary dump path; empty = none
    std::size_t trace_buf_events = 0;       // 0 = default / GRAN_TRACE_BUF
    telemetry_options telemetry;            // off until a destination is set
    std::string pmu;                        // PMU plane spec; empty = leave as-is
  };

  // Environment-only defaults (GRAN_TRACE, GRAN_METRICS, ...).
  static options options_from_env();
  // CLI flags layered over `base` (typically options_from_env()).
  static options options_from_cli(const cli_args& args, options base);

  explicit observability_session(options opt);
  ~observability_session();  // calls finish()

  observability_session(const observability_session&) = delete;
  observability_session& operator=(const observability_session&) = delete;

  // Stops the telemetry session and exports the trace. Idempotent; prints
  // one status line per artifact written.
  void finish();

  bool tracing() const {
    return !opt_.trace_out.empty() || !opt_.trace_bin.empty();
  }
  bool telemetry() const { return telemetry_ != nullptr; }
  telemetry_session* telemetry_ptr() { return telemetry_.get(); }

 private:
  options opt_;
  std::unique_ptr<telemetry_session> telemetry_;
  bool finished_ = false;
};

}  // namespace gran::perf
