#include "perf/telemetry.hpp"

#include <csignal>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf/analysis.hpp"
#include "perf/trace.hpp"

namespace gran::perf {

namespace {

// SIGUSR1 -> flight dump. The handler only sets a flag (async-signal-safe);
// the telemetry thread polls it every wakeup. One session owns the handler
// at a time (the common case is exactly one per process, from
// start_observers).
std::atomic<bool> g_flight_signal{false};
struct sigaction g_prev_usr1;

void on_sigusr1(int) { g_flight_signal.store(true, std::memory_order_relaxed); }

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

  thread_ = std::thread([this] { run(); });
}

telemetry_session::~telemetry_session() { stop(); }

void telemetry_session::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  jsonl_.close();
  if (signal_installed_) {
    ::sigaction(SIGUSR1, &g_prev_usr1, nullptr);
    signal_installed_ = false;
  }
}

void telemetry_session::run() {
  // Every sink write happens on this thread, the final window's included,
  // so blocking SIGPIPE here turns a FIFO whose reader left into an EPIPE
  // that disables the sink, not a signal that kills the process. The
  // process-wide disposition stays the host program's.
  sigset_t pipe;
  sigemptyset(&pipe);
  sigaddset(&pipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe, nullptr);

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
    if (stop_requested_) break;

    if (g_flight_signal.exchange(false, std::memory_order_relaxed)) {
      lock.unlock();
      const std::string path = capture_flight("SIGUSR1");
      if (!path.empty())
        std::fprintf(stderr, "[gran] flight dump (SIGUSR1): %s\n", path.c_str());
      lock.lock();
      if (stop_requested_) break;
    }

    if (std::chrono::steady_clock::now() < next_tick) continue;
    next_tick += interval;
    lock.unlock();
    close_window();
    lock.lock();
  }
  lock.unlock();
  // One final (short) window so samples recorded after the last periodic
  // tick still reach the stream.
  close_window();
}

void telemetry_session::close_window() {
  const window_snapshot w = aggregator_.tick();

  if (jsonl_.ok()) {
    std::ostringstream line;
    write_window_jsonl(line, w);
    jsonl_.write(line.str());
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
