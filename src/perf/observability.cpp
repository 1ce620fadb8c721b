#include "perf/observability.hpp"

#include <iostream>
#include <mutex>

#include "perf/counters.hpp"
#include "perf/pmu.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "util/config.hpp"

namespace gran::perf {

namespace {

telemetry_session* g_telemetry = nullptr;

// A path knob: "" when unset, `one` for "1"/"true", else the value.
std::string knob_path(const config::settings& s, config::knob k, const char* one) {
  const std::string& v = s.text(k);
  return v == "1" || v == "true" ? one : v;
}

}  // namespace

telemetry_options telemetry_options_from(const config::settings& s) {
  telemetry_options to;
  to.jsonl_out = s.text(config::metrics);
  to.interval_us = s.integer(config::metrics_us);
  to.flight_prefix = knob_path(s, config::flight, "gran_flight");
  to.watchdog.stuck_ns = s.integer(config::stall_ns);
  return to;
}

void start_observers(const config::settings& s) {
  pmu_plane& plane = pmu_plane::instance();
  if (s.set(config::pmu) && !plane.configured()) plane.configure(s.text(config::pmu));

  const std::string json = knob_path(s, config::trace, "gran_trace.json");
  if ((!json.empty() || s.set(config::trace_bin)) && !tracer::enabled()) {
    tracer::instance().enable(static_cast<std::size_t>(s.integer(config::trace_buf)));
    tracer::instance().set_export_path(json);
  }

  telemetry_options to = telemetry_options_from(s);
  if (!to.enabled() || g_telemetry != nullptr) return;
  // Touch the singletons the session's thread uses so they are constructed
  // first and therefore destroyed after the session at exit.
  registry::instance();
  tracer::instance();
  static telemetry_session session(std::move(to));
  g_telemetry = &session;
}

void start_observers() {
  static std::once_flag once;
  std::call_once(once, [] { start_observers(config::current()); });
}

observability_session::observability_session(const cli_args& args) {
  config::init(args);
  std::cout << config::current().describe() << "\n";
  start_observers();
}

observability_session::~observability_session() { finish(); }

void observability_session::finish() {
  if (finished_) return;
  finished_ = true;
  if (g_telemetry != nullptr) {
    g_telemetry->stop();
    const telemetry_options& t = g_telemetry->options();
    if (!t.jsonl_out.empty())
      std::cout << "(telemetry: " << g_telemetry->windows_exported()
                << " windows streamed to " << t.jsonl_out << ")\n";
    if (g_telemetry->incidents_raised() > 0)
      std::cout << "(watchdog: " << g_telemetry->incidents_raised()
                << " stall incident(s); last flight dump: "
                << g_telemetry->last_flight_path() << ")\n";
  }
  const config::settings& s = config::current();
  const std::string json = knob_path(s, config::trace, "gran_trace.json");
  if (!json.empty()) {
    // The thread manager also exports at stop(); this final export includes
    // every manager the process ran and therefore supersedes those files.
    if (tracer::instance().export_chrome_json(json))
      std::cout << "(trace: " << tracer::instance().total_events() -
                                     tracer::instance().total_dropped()
                << " events written to " << json << " — load in ui.perfetto.dev)\n";
  }
  const std::string bin = knob_path(s, config::trace_bin, "gran_trace.bin");
  if (!bin.empty()) {
    if (tracer::instance().export_binary(bin))
      std::cout << "(trace: binary dump written to " << bin
                << " — analyze with gran_trace_report --in=" << bin << ")\n";
  }
}

}  // namespace gran::perf
