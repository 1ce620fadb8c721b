// Tests for the live telemetry plane: windowed aggregation (the runtime's
// interval engine), the streaming exporters, the stall watchdog, and the
// flight recorder.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/analysis.hpp"
#include "perf/counters.hpp"
#include "perf/exporter.hpp"
#include "perf/heartbeat.hpp"
#include "perf/histogram.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "perf/watchdog.hpp"
#include "perf/window.hpp"
#include "threads/thread_manager.hpp"
#include "util/minijson.hpp"
#include "util/timer.hpp"

namespace gran::perf {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "gran_telemetry_" + name;
}

void spin(int iters) {
  volatile double x = 1.0;
  for (int k = 0; k < iters; ++k) x = x * 1.0000001 + 0.1;
}

// Builds a window_snapshot by hand for the watchdog detectors (sorted
// metrics so value_or's binary search works).
window_snapshot make_window(
    std::vector<std::pair<std::string, double>> gauges,
    std::uint64_t tasks_delta, double phases_delta) {
  window_snapshot w;
  w.dt_s = 0.1;
  w.tasks_delta = tasks_delta;
  gauges.emplace_back("/threads/count/cumulative-phases", phases_delta);
  std::sort(gauges.begin(), gauges.end());
  for (auto& [path, value] : gauges) {
    window_metric m;
    m.path = path;
    m.kind = path == "/threads/count/cumulative-phases"
                 ? counter_kind::monotonic
                 : counter_kind::gauge;
    m.value = value;
    m.delta = value;  // the detectors read delta_or for phases
    w.metrics.push_back(std::move(m));
  }
  return w;
}

// --- window aggregation ----------------------------------------------------

TEST(WindowAggregator, DeltasAndRatesForMonotonicCounters) {
  auto& reg = registry::instance();
  std::atomic<double> v{100};
  std::atomic<double> gauge{7};
  reg.add("/wintest/count/events", counter_kind::monotonic, "test",
          [&v] { return v.load(); });
  reg.add("/wintest/level", counter_kind::gauge, "test",
          [&gauge] { return gauge.load(); });
  window_options opt;
  opt.prefixes = {"/wintest"};
  window_aggregator agg(opt);

  v = 160;
  gauge = 9;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  window_snapshot w = agg.tick();
  ASSERT_NE(w.find("/wintest/count/events"), nullptr);
  EXPECT_DOUBLE_EQ(w.delta_or("/wintest/count/events", -1), 60.0);
  EXPECT_GT(w.rate_or("/wintest/count/events", -1), 0.0);
  EXPECT_DOUBLE_EQ(w.value_or("/wintest/count/events", -1), 160.0);
  EXPECT_EQ(w.seq, 1u);
  EXPECT_GT(w.dt_s, 0.0);
  // A gauge reports its end value, the raw difference as its delta, and no
  // rate.
  EXPECT_DOUBLE_EQ(w.value_or("/wintest/level", -1), 9.0);
  EXPECT_DOUBLE_EQ(w.delta_or("/wintest/level", -1), 2.0);
  EXPECT_DOUBLE_EQ(w.rate_or("/wintest/level", -1), 0.0);

  // Second window sees only the new increment.
  v = 170;
  w = agg.tick();
  EXPECT_DOUBLE_EQ(w.delta_or("/wintest/count/events", -1), 10.0);
  EXPECT_EQ(w.seq, 2u);

  reg.remove_prefix("/wintest");
}

TEST(WindowAggregator, ResetAwareDelta) {
  auto& reg = registry::instance();
  std::atomic<double> v{1000};
  reg.add("/wintest/count/events", counter_kind::monotonic, "test",
          [&v] { return v.load(); });
  window_options opt;
  opt.prefixes = {"/wintest"};
  window_aggregator agg(opt);

  // Counter went backwards (manager restart / reset_counters): the delta
  // restarts from the new value instead of going negative.
  v = 40;
  const window_snapshot w = agg.tick();
  EXPECT_DOUBLE_EQ(w.delta_or("/wintest/count/events", -1), 40.0);

  reg.remove_prefix("/wintest");
}

TEST(WindowAggregator, LateRegisteredCounterJoins) {
  auto& reg = registry::instance();
  reg.add("/wintest/a", counter_kind::gauge, "test", [] { return 1.0; });
  window_options opt;
  opt.prefixes = {"/wintest"};
  window_aggregator agg(opt);

  reg.add("/wintest/b", counter_kind::gauge, "test", [] { return 2.0; });
  const window_snapshot w = agg.tick();
  EXPECT_DOUBLE_EQ(w.value_or("/wintest/a", -1), 1.0);
  EXPECT_DOUBLE_EQ(w.value_or("/wintest/b", -1), 2.0);

  reg.remove_prefix("/wintest");
}

TEST(WindowAggregator, IntervalHistogramPercentiles) {
  log2_histogram h;
  histogram_registry::instance().add("/wintest/histogram/lat",
                                     [&h] { return h.snap(); });
  for (int i = 0; i < 100; ++i) h.record(1000);
  window_options opt;
  opt.prefixes = {"/wintest"};
  window_aggregator agg(opt);

  // Only the samples recorded inside the window land in the delta.
  for (int i = 0; i < 50; ++i) h.record(1 << 20);
  const window_snapshot w = agg.tick();
  const window_histogram* wh = w.find_histogram("/wintest/histogram/lat");
  ASSERT_NE(wh, nullptr);
  EXPECT_EQ(wh->delta.count, 50u);
  EXPECT_EQ(wh->cumulative.count, 150u);
  EXPECT_FALSE(wh->reset_detected);
  // All interval samples sit in the 2^20 bucket, far from the cumulative p50.
  EXPECT_GE(wh->delta.percentile(50), static_cast<double>(1 << 20));

  histogram_registry::instance().remove_prefix("/wintest");
}

TEST(HistogramSnapshot, SnapshotDeltaDetectsReset) {
  log2_histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  const histogram_snapshot big = h.snap();
  h.reset();
  h.record(100);
  bool reset = false;
  const histogram_snapshot d = h.snap().snapshot_delta(big, &reset);
  EXPECT_TRUE(reset);
  EXPECT_EQ(d.count, 1u);  // falls back to the full current snapshot
}

// Acceptance cross-check: a single window spanning an entire run must agree
// with the offline cumulative metrics (Eq. 1–3) within 5%.
TEST(WindowAggregator, CrossChecksOfflineEq123) {
  thread_manager tm(test_config(2));
  // Warm the pool up first: workers fresh out of construction carry stale
  // round timestamps, and their first post-reset round would deposit
  // pre-reset wall time into func_ns — polluting the offline view but not
  // the window baseline.
  for (int i = 0; i < 200; ++i) tm.spawn([] { spin(500); });
  tm.wait_idle();
  tm.reset_counters();
  window_aggregator agg;  // baseline right after the reset

  constexpr int n = 2000;
  for (int i = 0; i < n; ++i) tm.spawn([] { spin(4000); });
  tm.wait_idle();
  // Idle func time keeps accruing while the workers spin in their scheduler
  // loops, so the offline Eq. 1 value drifts upward between any two samples.
  // Bracket the window's sample instant between two offline samples instead
  // of pretending all three happen atomically.
  const auto before = tm.counter_totals();
  const window_snapshot w = agg.tick();
  const auto totals = tm.counter_totals();

  ASSERT_EQ(totals.tasks_executed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(w.tasks_delta, static_cast<std::uint64_t>(n));

  // Eq. 1: interval idle-rate sits between the offline values sampled just
  // before and just after the tick (small epsilon for the baseline gap
  // between reset_counters and the aggregator construction).
  const auto idle_of = [](const thread_manager::totals& t) {
    return t.func_ns > 0 ? static_cast<double>(t.func_ns - t.exec_ns) /
                               static_cast<double>(t.func_ns)
                         : 0.0;
  };
  EXPECT_GE(w.idle_rate, idle_of(before) - 0.05);
  EXPECT_LE(w.idle_rate, idle_of(totals) + 0.05);

  // Eq. 2: mean task duration vs exec_ns / tasks (drift-free: both views
  // are frozen once the pool drains).
  const double off_duration =
      static_cast<double>(totals.exec_ns) / static_cast<double>(n);
  ASSERT_GT(w.task_duration_mean_ns, 0.0);
  EXPECT_NEAR(w.task_duration_mean_ns / off_duration, 1.0, 0.05);

  // Interval percentiles are ordered and bracket the mean's ballpark.
  EXPECT_GT(w.task_duration_p50_ns, 0.0);
  EXPECT_LE(w.task_duration_p50_ns, w.task_duration_p95_ns);
  EXPECT_LE(w.task_duration_p95_ns, w.task_duration_p99_ns);
}

// --- exporters -------------------------------------------------------------

TEST(Exporter, PrometheusFamilyMapping) {
  const auto plain = prometheus_family_of("/threads/count/cumulative");
  EXPECT_EQ(plain.name, "gran_threads_count_cumulative");
  EXPECT_EQ(plain.instance, "");
  const auto inst = prometheus_family_of("/threads{worker#3}/idle-rate");
  EXPECT_EQ(inst.name, "gran_threads_idle_rate");
  EXPECT_EQ(inst.instance, "worker#3");
}

TEST(Exporter, PrometheusOutputValidates) {
  thread_manager tm(test_config(2));
  window_aggregator agg;
  for (int i = 0; i < 200; ++i) tm.spawn([] { spin(500); });
  tm.wait_idle();
  const window_snapshot w = agg.tick();

  std::stringstream body;
  write_prometheus_text(body, w);
  ASSERT_FALSE(body.str().empty());
  EXPECT_NE(body.str().find("gran_window_idle_rate"), std::string::npos);
  EXPECT_NE(body.str().find("gran_threads_count_cumulative"),
            std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(body, &error)) << error;
}

TEST(Exporter, PrometheusValidatorRejectsMalformed) {
  const auto rejects = [](const std::string& text) {
    std::stringstream ss(text);
    std::string error;
    const bool ok = validate_prometheus_text(ss, &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
  };
  rejects("9bad_name 1\n");                         // digit-leading name
  rejects("metric{label=\"x} 1\n");                 // unterminated label value
  rejects("metric one\n");                          // unparseable value
  rejects("# TYPE m gauge\n# TYPE m counter\nm 1\n");  // duplicate TYPE
}

TEST(Exporter, JsonlWindowParsesAndCarriesWorkers) {
  thread_manager tm(test_config(2));
  window_aggregator agg;
  for (int i = 0; i < 200; ++i) tm.spawn([] { spin(500); });
  tm.wait_idle();
  const window_snapshot w = agg.tick();

  std::stringstream line;
  write_window_jsonl(line, w);
  std::string err;
  const auto doc = json_value::parse(
      line.str().substr(0, line.str().size() - 1), &err);  // strip '\n'
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->string_at("type"), "window");
  EXPECT_EQ(doc->number_at("seq"), 1.0);
  const json_value* interval = doc->find("interval");
  ASSERT_NE(interval, nullptr);
  EXPECT_EQ(interval->number_at("tasks"), 200.0);
  const json_value* workers = doc->find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->size(), 2u);
  const json_value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("/threads/count/cumulative"), nullptr);
}

TEST(Exporter, NonFiniteValuesSerializeAsZero) {
  window_snapshot w;
  w.seq = 1;
  w.dt_s = 0.1;
  w.idle_rate = std::numeric_limits<double>::quiet_NaN();
  w.tasks_per_s = std::numeric_limits<double>::infinity();
  std::stringstream line;
  write_window_jsonl(line, w);
  const auto doc = json_value::parse(line.str().substr(0, line.str().size() - 1));
  ASSERT_TRUE(doc.has_value());  // NaN/Inf would make this fail to parse
  EXPECT_EQ(doc->find("interval")->number_at("idle_rate", -1), 0.0);
  EXPECT_EQ(doc->find("interval")->number_at("tasks_per_s", -1), 0.0);

  std::stringstream prom;
  write_prometheus_text(prom, w);
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(prom, &error)) << error;
}

TEST(Exporter, MetricsSinkAppendsToFile) {
  const std::string path = temp_path("sink.jsonl");
  std::remove(path.c_str());
  metrics_sink sink;
  ASSERT_TRUE(sink.open(path));
  sink.write("line1\n");
  sink.write("line2\n");
  EXPECT_EQ(sink.bytes_written(), 12u);
  sink.close();

  std::ifstream f(path);
  std::string a, b;
  std::getline(f, a);
  std::getline(f, b);
  EXPECT_EQ(a, "line1");
  EXPECT_EQ(b, "line2");
  std::remove(path.c_str());
}

// Minimal loopback TCP listener for the tcp://host:port sink destination.
// The kernel completes the handshake from the listen backlog, so a
// single-threaded connect-then-accept sequence never deadlocks.
struct loopback_listener {
  int fd = -1;
  std::uint16_t port = 0;

  bool start(std::uint16_t want_port = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(want_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 1) != 0) {
      stop();
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
    return true;
  }
  int accept_one() { return ::accept(fd, nullptr, nullptr); }
  void stop() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~loopback_listener() { stop(); }
};

std::string recv_line(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

TEST(Exporter, MetricsSinkTcpRoundTripAndReconnect) {
  loopback_listener listener;
  ASSERT_TRUE(listener.start());
  const std::string dest = "tcp://127.0.0.1:" + std::to_string(listener.port);

  metrics_sink sink;
  ASSERT_TRUE(sink.open(dest));
  int conn = listener.accept_one();
  ASSERT_GE(conn, 0);

  // A real window line end to end: serialize, send, receive, parse.
  window_snapshot w;
  w.seq = 7;
  w.dt_s = 0.1;
  std::stringstream line;
  write_window_jsonl(line, w);
  sink.write(line.str());
  const std::string got = recv_line(conn);
  std::string err;
  const auto doc = json_value::parse(got, &err);
  ASSERT_TRUE(doc.has_value()) << err << " in: " << got;
  EXPECT_EQ(doc->string_at("type"), "window");
  EXPECT_EQ(static_cast<int>(doc->number_at("seq", -1)), 7);

  // Listener goes away: the sink must disable itself (one warning, no
  // SIGPIPE, no exception) instead of killing the telemetry thread. The
  // first write after the close may still land in the kernel buffer; the
  // RST it provokes fails a subsequent one.
  ::close(conn);
  listener.stop();
  for (int i = 0; i < 20 && sink.ok(); ++i) {
    sink.write(line.str());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(sink.ok());

  // Listener restarts on the same port: a re-open() is the reconnect path
  // (the session keeps its sink object across scraper restarts).
  ASSERT_TRUE(listener.start(listener.port));
  ASSERT_TRUE(sink.open(dest));
  conn = listener.accept_one();
  ASSERT_GE(conn, 0);
  sink.write(line.str());
  const std::string again = recv_line(conn);
  const auto doc2 = json_value::parse(again, &err);
  ASSERT_TRUE(doc2.has_value()) << err << " in: " << again;
  EXPECT_EQ(doc2->string_at("type"), "window");
  ::close(conn);
}

// --- stall watchdog --------------------------------------------------------

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stall_stats::instance().reset();
    heartbeat_board::instance().attach(1);
  }
  void TearDown() override { heartbeat_board::instance().detach(); }
};

TEST_F(WatchdogTest, StuckTaskDetectedOncePerPhase) {
  auto* slot = heartbeat_board::instance().slot(0);
  slot->task_id.store(42, std::memory_order_relaxed);
  slot->phase_start_ticks.store(tsc_clock::now(), std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  watchdog_options opt;
  opt.stuck_ns = 1'000'000;  // 1 ms, long exceeded by the sleep
  stall_watchdog dog(opt);
  const window_snapshot w = make_window({}, 0, 0);

  auto incidents = dog.check(w);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, stall_kind::stuck_task);
  EXPECT_EQ(incidents[0].worker, 0);
  EXPECT_EQ(incidents[0].task_id, 42u);
  EXPECT_GE(incidents[0].age_ns, 1e6);
  EXPECT_EQ(stall_stats::instance().stuck.load(), 1u);

  // Same phase: deduplicated.
  EXPECT_TRUE(dog.check(w).empty());

  // Phase ends, a new long phase starts: the detector re-arms.
  slot->phase_start_ticks.store(0, std::memory_order_relaxed);
  EXPECT_TRUE(dog.check(w).empty());
  slot->phase_start_ticks.store(tsc_clock::now(), std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.check(w).size(), 1u);
}

TEST_F(WatchdogTest, NoStuckIncidentBelowThreshold) {
  auto* slot = heartbeat_board::instance().slot(0);
  slot->phase_start_ticks.store(tsc_clock::now(), std::memory_order_relaxed);
  watchdog_options opt;
  opt.stuck_ns = 500'000'000;
  stall_watchdog dog(opt);
  EXPECT_TRUE(dog.check(make_window({}, 0, 0)).empty());
  EXPECT_EQ(stall_stats::instance().total(), 0u);
}

TEST_F(WatchdogTest, StarvedBackloggedAfterConsecutiveTicks) {
  stall_watchdog dog;
  const window_snapshot starved = make_window(
      {{"/threads/count/instantaneous/starving", 2},
       {"/threads/count/instantaneous/queued", 5}},
      0, 0);

  EXPECT_TRUE(dog.check(starved).empty());
  EXPECT_TRUE(dog.check(starved).empty());
  auto incidents = dog.check(starved);  // third consecutive window
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, stall_kind::starved_backlogged);
  EXPECT_EQ(stall_stats::instance().starved.load(), 1u);
  // Episode stays open: no repeat incident while the condition persists.
  EXPECT_TRUE(dog.check(starved).empty());

  // Flow resumes -> episode closes -> a new episode can fire again.
  const window_snapshot flowing = make_window(
      {{"/threads/count/instantaneous/starving", 2},
       {"/threads/count/instantaneous/queued", 5}},
      10, 10);
  EXPECT_TRUE(dog.check(flowing).empty());
  dog.check(starved);
  dog.check(starved);
  EXPECT_EQ(dog.check(starved).size(), 1u);
}

TEST_F(WatchdogTest, FlatlineRequiresAliveTasksAndNoPhaseInFlight) {
  stall_watchdog dog;
  const window_snapshot dead = make_window(
      {{"/threads/count/instantaneous/alive", 3}}, 0, 0);
  dog.check(dead);
  dog.check(dead);
  auto incidents = dog.check(dead);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, stall_kind::flatline);

  // A phase in flight (one legit long task) suppresses flatline entirely.
  stall_watchdog dog2;
  heartbeat_board::instance().slot(0)->phase_start_ticks.store(
      tsc_clock::now(), std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(dog2.check(dead).empty());

  // Idle-but-empty (alive == 0) never flatlines.
  heartbeat_board::instance().slot(0)->phase_start_ticks.store(
      0, std::memory_order_relaxed);
  stall_watchdog dog3;
  const window_snapshot idle = make_window({}, 0, 0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(dog3.check(idle).empty());
}

// --- telemetry session -----------------------------------------------------

TEST(Telemetry, StreamsParseableWindowsWithHeartbeats) {
  const std::string path = temp_path("stream.jsonl");
  std::remove(path.c_str());

  telemetry_options to;
  to.jsonl_out = path;
  to.interval_us = 10'000;
  to.install_signal_handler = false;
  telemetry_session session(to);
  {
    thread_manager tm(test_config(2));
    std::atomic<bool> stop{false};
    for (int i = 0; i < 4; ++i)
      tm.spawn([&stop] {
        while (!stop.load()) {
          spin(2000);
          this_task::yield();
        }
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    stop = true;
    tm.wait_idle();
  }
  session.stop();
  EXPECT_GE(session.windows_exported(), 2u);

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string line;
  std::size_t windows = 0, with_heartbeat = 0;
  double last_seq = 0;
  while (std::getline(f, line)) {
    std::string err;
    const auto doc = json_value::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << err << " in: " << line;
    if (doc->string_at("type") != "window") continue;
    ++windows;
    EXPECT_GT(doc->number_at("seq"), last_seq);
    last_seq = doc->number_at("seq");
    if (const json_value* workers = doc->find("workers"))
      for (const json_value& row : workers->items())
        if (row.find("heartbeat_age_ns") != nullptr) ++with_heartbeat;
  }
  EXPECT_EQ(windows, session.windows_exported());
  // At least one mid-run window carried live heartbeat columns.
  EXPECT_GT(with_heartbeat, 0u);
  std::remove(path.c_str());
}

TEST(Telemetry, PrometheusFileRewrittenAtomically) {
  const std::string path = temp_path("scrape.prom");
  std::remove(path.c_str());
  telemetry_options to;
  to.prom_out = path;
  to.interval_us = 10'000;
  to.install_signal_handler = false;
  telemetry_session session(to);
  {
    thread_manager tm(test_config(2));
    for (int i = 0; i < 500; ++i) tm.spawn([] { spin(1000); });
    tm.wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  session.stop();

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(f, &error)) << error;
  std::remove(path.c_str());
}

TEST(Telemetry, FlightDumpRoundTripsThroughAnalyzer) {
  const std::string prefix = temp_path("flight");
  telemetry_options to;
  to.jsonl_out = temp_path("flight.jsonl");
  to.interval_us = 50'000;
  to.flight_prefix = prefix;  // force-enables tracing
  to.install_signal_handler = false;
  telemetry_session session(to);
  ASSERT_TRUE(tracer::enabled());
  {
    thread_manager tm(test_config(2));
    for (int i = 0; i < 500; ++i) tm.spawn([] { spin(1000); });
    tm.wait_idle();

    const std::string bin = session.capture_flight("test");
    ASSERT_FALSE(bin.empty());
    EXPECT_EQ(session.flights_captured(), 1u);
    EXPECT_EQ(session.last_flight_path(), bin);

    trace_dump dump;
    ASSERT_TRUE(load_trace_binary(bin, dump));
    EXPECT_GT(dump.total_events(), 0u);
    const analysis_result r = analyze_trace(dump);
    EXPECT_TRUE(r.ok) << r.error;

    // The companion report was generated alongside the binary.
    const std::string txt = bin.substr(0, bin.size() - 4) + ".txt";
    std::ifstream report(txt);
    EXPECT_TRUE(report.is_open());
    std::remove(bin.c_str());
    std::remove(txt.c_str());
  }
  session.stop();
  tracer::instance().disable();
  tracer::instance().clear();
  std::remove(to.jsonl_out.c_str());
}

}  // namespace
}  // namespace gran::perf
