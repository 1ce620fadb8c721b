// One start-up path for the observers, and the RAII session benches and
// tools open at the top of main().
//
// start_observers() starts, once per process, the tracer, PMU plane and
// telemetry session the knob table asks for: GRAN_TRACE*, GRAN_PMU,
// GRAN_METRICS*, GRAN_FLIGHT, GRAN_STALL_NS and their CLI twins (README
// "Configuration"). The thread manager's constructor calls it, so the knobs
// work in any gran program; an observer the code configured first
// (pmu_plane::configure, tracer::enable) is left alone. An
// observability_session resolves the table from the command line, prints
// its "# gran config:" line and starts the observers; on destruction it
// stops the telemetry and exports the trace.
#pragma once

#include "perf/telemetry.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"

namespace gran::perf {

// The telemetry session `s` asks for (off unless a destination is set).
telemetry_options telemetry_options_from(const config::settings& s);

// Starts the observers `s` asks for. start_observers() does it once per
// process from config::current().
void start_observers(const config::settings& s);
void start_observers();

class observability_session {
 public:
  // Must run before the first thread_manager: the table is resolved once.
  explicit observability_session(const cli_args& args);
  ~observability_session();  // calls finish()

  observability_session(const observability_session&) = delete;
  observability_session& operator=(const observability_session&) = delete;

  // Stops the telemetry session and exports the trace. Idempotent; prints
  // one status line per artifact written.
  void finish();

 private:
  bool finished_ = false;
};

}  // namespace gran::perf
