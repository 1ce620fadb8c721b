#include "perf/telemetry.hpp"

#include <csignal>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf/analysis.hpp"
#include "perf/heartbeat.hpp"
#include "perf/trace.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace gran::perf {

namespace {

// SIGUSR1 -> flight dump. The handler only sets a flag (async-signal-safe);
// the telemetry thread polls it every wakeup. One session owns the handler
// at a time (the common case is exactly one per process, from
// observability_session).
std::atomic<bool> g_flight_signal{false};
struct sigaction g_prev_usr1;

void on_sigusr1(int) { g_flight_signal.store(true, std::memory_order_relaxed); }

// Live sessions in this process; telemetry_autostart_from_env only fires
// when this is zero (an observability_session-owned session wins).
std::atomic<int> g_active_sessions{0};

void write_incident_jsonl(std::ostream& os, const stall_incident& inc,
                          const std::string& flight_path) {
  os << "{\"type\":\"incident\",\"kind\":\"" << to_string(inc.kind)
     << "\",\"t_ns\":" << inc.detected_at_ns;
  if (inc.worker >= 0) os << ",\"worker\":" << inc.worker;
  if (inc.task_id != 0) os << ",\"task\":" << inc.task_id;
  os << ",\"age_ns\":" << static_cast<std::int64_t>(inc.age_ns) << ",\"detail\":";
  write_json_string(os, inc.detail);
  if (!flight_path.empty()) {
    os << ",\"flight\":";
    write_json_string(os, flight_path);
  }
  os << "}\n";
}

}  // namespace

telemetry_session::telemetry_session(telemetry_options opt)
    : opt_(std::move(opt)),
      aggregator_(opt_.window),
      watchdog_(opt_.watchdog) {
  if (opt_.interval_us <= 0) opt_.interval_us = 100'000;

  // The flight recorder's memory is the trace rings: force tracing on so a
  // thread manager constructed after this session hands its workers rings.
  if (!opt_.flight_prefix.empty() && !tracer::enabled())
    tracer::instance().enable();

  if (!opt_.jsonl_out.empty()) jsonl_.open(opt_.jsonl_out);

  if (!opt_.flight_prefix.empty() && opt_.install_signal_handler) {
    struct sigaction sa {};
    sa.sa_handler = on_sigusr1;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (::sigaction(SIGUSR1, &sa, &g_prev_usr1) == 0) signal_installed_ = true;
  }

  g_active_sessions.fetch_add(1, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

telemetry_session::~telemetry_session() {
  stop();
  g_active_sessions.fetch_sub(1, std::memory_order_relaxed);
}

telemetry_options telemetry_options_from_env() {
  telemetry_options to;
  to.jsonl_out = env_string("GRAN_METRICS", "");
  to.prom_out = env_string("GRAN_METRICS_PROM", "");
  const std::int64_t us = env_int("GRAN_METRICS_US", 0);
  if (us > 0) to.interval_us = us;
  to.flight_prefix = env_string("GRAN_FLIGHT", "");
  if (to.flight_prefix == "1" || to.flight_prefix == "true")
    to.flight_prefix = "gran_flight";
  const std::int64_t stall = env_int("GRAN_STALL_NS", 0);
  if (stall > 0) to.watchdog.stuck_ns = stall;
  return to;
}

void telemetry_autostart_from_env() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    if (g_active_sessions.load(std::memory_order_relaxed) > 0) return;
    telemetry_options to = telemetry_options_from_env();
    if (!to.enabled()) return;
    // Touch the singletons the session's thread uses so they are
    // constructed first and therefore destroyed after the session at exit.
    registry::instance();
    histogram_registry::instance();
    heartbeat_board::instance();
    tracer::instance();
    static telemetry_session session(std::move(to));
  });
}

void telemetry_session::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final (short) window so samples recorded after the last periodic
  // tick still reach the stream.
  close_window();
  jsonl_.close();
  if (signal_installed_) {
    ::sigaction(SIGUSR1, &g_prev_usr1, nullptr);
    signal_installed_ = false;
  }
}

void telemetry_session::run() {
  // Wake at least every 100 ms so SIGUSR1 and stop() stay responsive under
  // long window intervals.
  const auto interval = std::chrono::microseconds(opt_.interval_us);
  const auto max_nap = std::chrono::milliseconds(100);
  auto next_tick = std::chrono::steady_clock::now() + interval;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const auto nap = next_tick - now;
    if (nap > std::chrono::nanoseconds::zero())
      cv_.wait_for(lock, nap < max_nap ? nap : max_nap,
                   [this] { return stop_requested_; });
    if (stop_requested_) return;

    if (g_flight_signal.exchange(false, std::memory_order_relaxed)) {
      lock.unlock();
      const std::string path = capture_flight("SIGUSR1");
      if (!path.empty())
        std::fprintf(stderr, "[gran] flight dump (SIGUSR1): %s\n", path.c_str());
      lock.lock();
      if (stop_requested_) return;
    }

    if (std::chrono::steady_clock::now() < next_tick) continue;
    next_tick += interval;
    lock.unlock();
    close_window();
    lock.lock();
  }
}

void telemetry_session::fill_heartbeats(window_snapshot& w) {
  heartbeat_board& board = heartbeat_board::instance();
  if (board.active_workers() == 0) return;
  const std::uint64_t now = tsc_clock::now();
  for (worker_window& row : w.workers) {
    const heartbeat_slot* slot = board.slot(row.worker);
    if (slot == nullptr || row.worker >= board.active_workers()) continue;
    const std::uint64_t beat = slot->beat_ticks.load(std::memory_order_relaxed);
    if (beat != 0 && now > beat)
      row.heartbeat_age_ns = static_cast<double>(tsc_clock::to_ns(now - beat));
    else if (beat != 0)
      row.heartbeat_age_ns = 0;
    const std::uint64_t start =
        slot->phase_start_ticks.load(std::memory_order_acquire);
    if (start != 0 && now > start) {
      row.running_task = slot->task_id.load(std::memory_order_relaxed);
      row.running_ns = static_cast<double>(tsc_clock::to_ns(now - start));
    }
  }
}

void telemetry_session::close_window() {
  window_snapshot w = aggregator_.tick();
  fill_heartbeats(w);

  if (jsonl_.ok()) {
    std::ostringstream line;
    write_window_jsonl(line, w);
    jsonl_.write(line.str());
  }
  if (!opt_.prom_out.empty()) {
    std::ostringstream body;
    write_prometheus_text(body, w);
    write_file_atomic(opt_.prom_out, body.str());
  }
  windows_.fetch_add(1, std::memory_order_relaxed);

  handle_incidents(w);
}

void telemetry_session::handle_incidents(const window_snapshot& w) {
  const std::vector<stall_incident> incidents = watchdog_.check(w);
  if (incidents.empty()) return;
  incidents_.fetch_add(incidents.size(), std::memory_order_relaxed);

  // One flight dump covers every incident of this tick — the rings hold the
  // same history regardless of which detector fired.
  std::string flight_path;
  if (flights_.load(std::memory_order_relaxed) <
      static_cast<std::uint64_t>(opt_.max_flights))
    flight_path = capture_flight(to_string(incidents.front().kind));

  for (const stall_incident& inc : incidents) {
    std::fprintf(stderr, "[gran] watchdog: %s: %s\n", to_string(inc.kind),
                 inc.detail.c_str());
    if (jsonl_.ok()) {
      std::ostringstream line;
      write_incident_jsonl(line, inc, flight_path);
      jsonl_.write(line.str());
    }
  }
}

std::string telemetry_session::capture_flight(const std::string& reason) {
  if (opt_.flight_prefix.empty() || !tracer::enabled()) return {};
  const std::uint64_t n = flights_.fetch_add(1, std::memory_order_relaxed);
  const std::string base = opt_.flight_prefix + "-" + std::to_string(n);
  const std::string bin_path = base + ".bin";

  const trace_dump d = tracer::instance().dump_live();
  {
    std::ofstream f(bin_path, std::ios::binary);
    if (!f) return {};
    write_trace_binary(f, d);
    if (!f) return {};
  }

  // Auto-generated incident summary: the same report gran_trace_report
  // produces offline, so a stall comes with its own first-pass analysis.
  std::ofstream report(base + ".txt");
  if (report) {
    report << "flight recorder dump: " << bin_path << "\n";
    report << "trigger: " << reason << "\n\n";
    const analysis_result r = analyze_trace(d);
    if (r.ok)
      write_report(report, r);
    else
      report << "(trace analysis unavailable: " << r.error << ")\n";
  }

  std::lock_guard<std::mutex> lock(flight_mutex_);
  last_flight_path_ = bin_path;
  return bin_path;
}

std::string telemetry_session::last_flight_path() const {
  std::lock_guard<std::mutex> lock(flight_mutex_);
  return last_flight_path_;
}

}  // namespace gran::perf
