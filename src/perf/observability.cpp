#include "perf/observability.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "perf/pmu.hpp"
#include "perf/trace.hpp"
#include "util/env.hpp"

namespace gran::perf {

namespace {

// The CSV sampler these knobs drove is gone. cli_args ignores unknown flags,
// so without this check a stale script would run and write no time series.
[[noreturn]] void removed_knob(const std::string& knob) {
  std::fprintf(stderr,
               "error: %s was removed with the CSV sampler; the counter time "
               "series is the JSONL window stream (--metrics-out / "
               "GRAN_METRICS)\n",
               knob.c_str());
  std::exit(2);
}

}  // namespace

observability_session::options observability_session::options_from_env() {
  for (const char* knob : {"GRAN_SAMPLE_US", "GRAN_SAMPLE_OUT", "GRAN_SAMPLE_SET"})
    if (std::getenv(knob) != nullptr) removed_knob(knob);
  options o;
  const std::string trace = env_string("GRAN_TRACE", "");
  if (!trace.empty())
    o.trace_out = (trace == "1" || trace == "true") ? "gran_trace.json" : trace;
  const std::string bin = env_string("GRAN_TRACE_BIN", "");
  if (!bin.empty())
    o.trace_bin = (bin == "1" || bin == "true") ? "gran_trace.bin" : bin;
  o.trace_buf_events = static_cast<std::size_t>(env_int("GRAN_TRACE_BUF", 0));
  o.telemetry = telemetry_options_from_env();
  o.pmu = env_string("GRAN_PMU", "");
  return o;
}

observability_session::options observability_session::options_from_cli(
    const cli_args& args, options base) {
  for (const char* flag : {"sample-interval-us", "sample-out", "sample-set"})
    if (args.has(flag)) removed_knob(std::string("--") + flag);
  base.trace_out = args.get("trace-out", base.trace_out);
  base.trace_bin = args.get("trace-bin", base.trace_bin);
  base.trace_buf_events = static_cast<std::size_t>(
      args.get_int("trace-buf", static_cast<std::int64_t>(base.trace_buf_events)));
  telemetry_options& t = base.telemetry;
  t.jsonl_out = args.get("metrics-out", t.jsonl_out);
  t.prom_out = args.get("metrics-prom", t.prom_out);
  const std::int64_t us = args.get_int("metrics-interval-us", 0);
  if (us > 0) t.interval_us = us;
  t.flight_prefix = args.get("flight-prefix", t.flight_prefix);
  const std::int64_t stall = args.get_int("stall-ns", 0);
  if (stall > 0) t.watchdog.stuck_ns = stall;
  base.pmu = args.get("pmu", base.pmu);
  return base;
}

observability_session::observability_session(options opt) : opt_(std::move(opt)) {
  // Configure the PMU plane before any thread manager spawns workers;
  // readers are created at worker start, so a later configure() would miss
  // them. Empty spec leaves whatever GRAN_PMU/init_from_env decided intact.
  if (!opt_.pmu.empty()) pmu_plane::instance().configure(opt_.pmu);
  if (!opt_.trace_out.empty() || !opt_.trace_bin.empty()) {
    auto& t = tracer::instance();
    t.enable(opt_.trace_buf_events);
    t.set_export_path(opt_.trace_out);
  }
  if (opt_.telemetry.enabled())
    telemetry_ = std::make_unique<telemetry_session>(opt_.telemetry);
}

observability_session::~observability_session() { finish(); }

void observability_session::finish() {
  if (finished_) return;
  finished_ = true;
  if (telemetry_) {
    telemetry_->stop();
    const telemetry_options& t = opt_.telemetry;
    if (!t.jsonl_out.empty())
      std::cout << "(telemetry: " << telemetry_->windows_exported()
                << " windows streamed to " << t.jsonl_out << ")\n";
    if (!t.prom_out.empty())
      std::cout << "(telemetry: Prometheus exposition in " << t.prom_out << ")\n";
    if (telemetry_->incidents_raised() > 0)
      std::cout << "(watchdog: " << telemetry_->incidents_raised()
                << " stall incident(s); last flight dump: "
                << telemetry_->last_flight_path() << ")\n";
  }
  if (!opt_.trace_out.empty()) {
    // The thread manager also exports at stop(); this final export includes
    // every manager the process ran and therefore supersedes those files.
    if (tracer::instance().export_chrome_json(opt_.trace_out))
      std::cout << "(trace: " << tracer::instance().total_events() -
                                     tracer::instance().total_dropped()
                << " events written to " << opt_.trace_out
                << " — load in ui.perfetto.dev)\n";
  }
  if (!opt_.trace_bin.empty()) {
    if (tracer::instance().export_binary(opt_.trace_bin))
      std::cout << "(trace: binary dump written to " << opt_.trace_bin
                << " — analyze with gran_trace_report --in=" << opt_.trace_bin
                << ")\n";
  }
}

}  // namespace gran::perf
