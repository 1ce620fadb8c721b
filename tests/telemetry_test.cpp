// Tests for the live telemetry plane: windowed aggregation (the runtime's
// interval engine), the JSONL exporter and its sink, the stall watchdog, and
// the flight recorder.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/analysis.hpp"
#include "perf/counters.hpp"
#include "perf/exporter.hpp"
#include "perf/histogram.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "perf/watchdog.hpp"
#include "perf/window.hpp"
#include "threads/thread_manager.hpp"
#include "util/minijson.hpp"

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
// metrics so value_or's binary search works), with the given worker rows.
window_snapshot make_window(
    std::vector<std::pair<std::string, double>> gauges,
    std::uint64_t tasks_delta, double phases_delta,
    std::vector<worker_window> workers = {}) {
  window_snapshot w;
  w.dt_s = 0.1;
  w.tasks_delta = tasks_delta;
  w.workers = std::move(workers);
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

// A worker row as the aggregator builds it from the liveness gauges: the
// worker's phase count, and the task running on it (0 = none) for how long.
worker_window live_row(int worker, std::uint64_t phases, std::uint64_t task,
                       double running_ns) {
  worker_window row;
  row.worker = worker;
  row.heartbeat_age_ns = 1000;
  row.phases = phases;
  row.running_task = task;
  row.running_ns = running_ns;
  return row;
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
  registry::instance().add_histogram("/wintest/histogram/lat", "test latency", "ns",
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
  // The cumulative views sample the same histogram.
  EXPECT_DOUBLE_EQ(w.value_or("/wintest/histogram/lat/count", -1), 150.0);

  registry::instance().remove_prefix("/wintest");
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
  // Idle func time keeps accruing while the workers spin in their scheduler
  // loops, so the offline Eq. 1 value drifts between any two samples.
  // Bracket both of the window's sample instants, its baseline here and its
  // tick below, between two offline samples each.
  const auto before_ctor = tm.counter_totals();
  window_aggregator agg;
  const auto after_ctor = tm.counter_totals();

  constexpr int n = 2000;
  for (int i = 0; i < n; ++i) tm.spawn([] { spin(4000); });
  tm.wait_idle();
  const auto before = tm.counter_totals();
  const window_snapshot w = agg.tick();
  const auto totals = tm.counter_totals();

  ASSERT_EQ(totals.tasks_executed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(w.tasks_delta, static_cast<std::uint64_t>(n));

  // Eq. 1: the pool has drained at both ends of the window, so exec is
  // frozen there and only func moves; the window's idle-rate grows with its
  // func and lies between the narrowest and the widest offline interval.
  const auto idle_between = [](const thread_manager::totals& from,
                               const thread_manager::totals& to) {
    const double func = static_cast<double>(to.func_ns - from.func_ns);
    const double exec = static_cast<double>(to.exec_ns - from.exec_ns);
    return func > 0 ? (func - exec) / func : 0.0;
  };
  EXPECT_GE(w.idle_rate, idle_between(after_ctor, before));
  EXPECT_LE(w.idle_rate, idle_between(before_ctor, totals));

  // Eq. 2: mean task duration vs exec_ns / tasks (drift-free: both views
  // are frozen once the pool drains).
  const double off_duration =
      static_cast<double>(totals.exec_ns) / static_cast<double>(n);
  ASSERT_GT(w.task_duration.mean, 0.0);
  EXPECT_NEAR(w.task_duration.mean / off_duration, 1.0, 0.05);
  EXPECT_EQ(w.task_duration.count, static_cast<std::uint64_t>(n));

  // Interval percentiles are ordered and bracket the mean's ballpark.
  EXPECT_GT(w.task_duration.p50, 0.0);
  EXPECT_LE(w.task_duration.p50, w.task_duration.p95);
  EXPECT_LE(w.task_duration.p95, w.task_duration.p99);
}

// --- exporters -------------------------------------------------------------

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
}

// One fixed window with every section on: the line is pinned byte for byte,
// so a change to the writer or to the window's summaries shows up here.
TEST(Exporter, FixedWindowLineIsPinned) {
  window_snapshot w;
  w.seq = 7;
  w.t_start_ns = 1'000'000'000;
  w.t_end_ns = 1'100'000'000;
  w.dt_s = 0.1;
  const auto metric = [&w](const char* path, counter_kind kind, double value,
                           double rate) {
    window_metric m;
    m.path = path;
    m.kind = kind;
    m.value = value;
    m.rate_per_s = rate;
    w.metrics.push_back(m);
  };
  metric("/service/backlog", counter_kind::gauge, 3, 0);
  metric("/threads/count/cumulative", counter_kind::monotonic, 50532, 4210.5);
  metric("/threads/idle-rate", counter_kind::rate, 0.0417, 0);
  w.idle_rate = 0.0417;
  w.tasks_delta = 421;
  w.tasks_per_s = 4210.5;
  w.task_duration = {21400, 44800.5, 61200, 23912.25, 421};
  w.task_overhead = {810, 1700.75, 9400, 1100.125, 425};
  w.has_service = true;
  w.sojourn = {26400, 42700, 64900.5, 28000.125, 4099};
  w.queue_wait = {1200, 3400, 9600, 1500.5, 4100};
  w.accepted_per_s = 4100.25;
  w.rejected_per_s = 12;
  w.completed_per_s = 4099;
  w.rejection_rate = 0.00292;
  w.service_backlog = 3;
  w.has_pmu = true;
  w.pmu_mode = 2;
  w.ipc = {1.234, 2.5, 3.125, 1.5, 400};
  w.instructions = {51200, 102400, 204800, 60000.75, 400};
  w.llc = {12, 40, 96, 18.5, 380};
  worker_window r0;
  r0.worker = 0;
  r0.tasks_per_s = 2105.5;
  r0.idle_rate = 0.03;
  r0.stolen_per_s = 12;
  r0.duration = {21000, 44000, 60000, 0, 2105};
  r0.ipc = {1.25, 0, 0, 0, 200};
  r0.heartbeat_age_ns = 120000;
  r0.running_task = 8812;
  r0.running_ns = 18000.5;
  worker_window r1;
  r1.worker = 1;
  r1.tasks_per_s = 2105;
  r1.idle_rate = 0.0534;
  r1.duration = {21500.5, 44500, 61000, 0, 2106};
  r1.ipc = {1.2, 0, 0, 0, 200};
  r1.heartbeat_age_ns = 95000.25;
  w.workers = {r0, r1};

  std::stringstream line;
  write_window_jsonl(line, w);
  const std::string expected =
      R"({"type":"window","seq":7,"t_start_ns":1000000000,)"
      R"("t_end_ns":1100000000,"dt_s":0.1,"interval":{"idle_rate":0.0417,)"
      R"("tasks":421,"tasks_per_s":4210.5,"task_duration":{"p50_ns":21400,)"
      R"("p95_ns":44800.5,"p99_ns":61200,"mean_ns":23912.2,"count":421},)"
      R"("task_overhead":{"p50_ns":810,"p95_ns":1700.75,"p99_ns":9400,)"
      R"("mean_ns":1100.12,"count":425},)"
      R"("service":{"accepted_per_s":4100.25,"rejected_per_s":12,)"
      R"("completed_per_s":4099,"rejection_rate":0.00292,"backlog":3,)"
      R"("sojourn":{"p50_ns":26400,"p95_ns":42700,"p99_ns":64900.5,)"
      R"("mean_ns":28000.1,"count":4099},"queue_wait":{"p50_ns":1200,)"
      R"("p95_ns":3400,"p99_ns":9600,"mean_ns":1500.5,"count":4100}},)"
      R"("pmu":{"mode":2,"ipc":{"p50":1.234,"p95":2.5,"p99":3.125,)"
      R"("mean":1.5,"count":400},"instructions":{"p50":51200,"p95":102400,)"
      R"("p99":204800,"mean":60000.8,"count":400},"llc_miss":{"p50":12,)"
      R"("p95":40,"p99":96,"mean":18.5,"count":380}}},)"
      R"("counters":{"/service/backlog":3,)"
      R"("/threads/count/cumulative":50532,"/threads/idle-rate":0.0417},)"
      R"("rates":{"/threads/count/cumulative":4210.5},)"
      R"("workers":[{"worker":0,"tasks_per_s":2105.5,"idle_rate":0.03,)"
      R"("stolen_per_s":12,"duration_p50_ns":21000,"duration_p95_ns":44000,)"
      R"("duration_p99_ns":60000,"duration_samples":2105,"ipc_p50":1.25,)"
      R"("ipc_samples":200,"heartbeat_age_ns":120000,"running_task":8812,)"
      R"("running_ns":18000.5},{"worker":1,"tasks_per_s":2105,)"
      R"("idle_rate":0.0534,"stolen_per_s":0,"duration_p50_ns":21500.5,)"
      R"("duration_p95_ns":44500,"duration_p99_ns":61000,)"
      R"("duration_samples":2106,"ipc_p50":1.2,"ipc_samples":200,)"
      R"("heartbeat_age_ns":95000.2,"running_task":0,"running_ns":0}]})" "\n";
  EXPECT_EQ(line.str(), expected);
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

// --- stall watchdog --------------------------------------------------------
//
// The watchdog reads only its window, so these run on hand-built windows.

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { stall_stats::instance().reset(); }
};

TEST_F(WatchdogTest, StuckTaskDetectedOncePerPhase) {
  watchdog_options opt;
  opt.stuck_ns = 1'000'000;  // 1 ms
  stall_watchdog dog(opt);

  // Below the threshold: nothing yet.
  EXPECT_TRUE(dog.check(make_window({}, 0, 0, {live_row(0, 5, 42, 0.5e6)})).empty());

  const window_snapshot stuck =
      make_window({}, 0, 0, {live_row(0, 5, 42, 10e6), live_row(1, 9, 0, 0)});
  auto incidents = dog.check(stuck);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, stall_kind::stuck_task);
  EXPECT_EQ(incidents[0].worker, 0);
  EXPECT_EQ(incidents[0].task_id, 42u);
  EXPECT_EQ(incidents[0].age_ns, 10e6);
  EXPECT_EQ(stall_stats::instance().stuck.load(), 1u);

  // Same phase, still running: deduplicated.
  EXPECT_TRUE(dog.check(make_window({}, 0, 0, {live_row(0, 5, 42, 20e6)})).empty());

  // The same phase on another worker is another (worker, phase).
  EXPECT_EQ(dog.check(make_window({}, 0, 0, {live_row(1, 5, 42, 10e6)})).size(), 1u);
  EXPECT_EQ(stall_stats::instance().stuck.load(), 2u);
}

TEST_F(WatchdogTest, StuckTaskRearmsForANewPhaseOfTheSameTask) {
  watchdog_options opt;
  opt.stuck_ns = 1'000'000;
  stall_watchdog dog(opt);
  EXPECT_EQ(dog.check(make_window({}, 0, 0, {live_row(0, 5, 42, 10e6)})).size(), 1u);

  // The task yields and runs a new long phase on the same worker, seen
  // without an idle window in between: its phase count moved.
  EXPECT_EQ(dog.check(make_window({}, 0, 0, {live_row(0, 6, 42, 10e6)})).size(), 1u);

  // A window with no phase in flight re-arms the worker too.
  EXPECT_TRUE(dog.check(make_window({}, 0, 0, {live_row(0, 7, 0, 0)})).empty());
  EXPECT_EQ(dog.check(make_window({}, 0, 0, {live_row(0, 7, 42, 10e6)})).size(), 1u);
  EXPECT_EQ(stall_stats::instance().stuck.load(), 3u);
}

TEST_F(WatchdogTest, NoStuckIncidentBelowThreshold) {
  watchdog_options opt;
  opt.stuck_ns = 500'000'000;
  stall_watchdog dog(opt);
  EXPECT_TRUE(dog.check(make_window({}, 0, 0, {live_row(0, 0, 7, 499e6)})).empty());
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
      {{"/threads/count/instantaneous/alive", 3}}, 0, 0, {live_row(0, 4, 0, 0)});
  dog.check(dead);
  dog.check(dead);
  auto incidents = dog.check(dead);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, stall_kind::flatline);

  // A row with a running task (one legit long task) suppresses flatline
  // entirely.
  stall_watchdog dog2;
  const window_snapshot long_task = make_window(
      {{"/threads/count/instantaneous/alive", 3}}, 0, 0,
      {live_row(0, 4, 0, 0), live_row(1, 4, 99, 1e6)});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(dog2.check(long_task).empty());

  // Idle-but-empty (alive == 0) never flatlines.
  stall_watchdog dog3;
  const window_snapshot idle = make_window({}, 0, 0, {live_row(0, 4, 0, 0)});
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
    // Two more windows close while the tasks run: the later one was sampled
    // wholly after the manager registered its liveness gauges.
    const std::uint64_t registered = session.windows_exported();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (session.windows_exported() < registered + 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop = true;
    tm.wait_idle();
    ASSERT_GE(session.windows_exported(), registered + 2)
        << "the telemetry thread closed no two windows in 5 s";
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
  // At least one mid-run window carried the liveness columns of both workers.
  EXPECT_GE(with_heartbeat, 2u);
  std::remove(path.c_str());
}

// A FIFO whose reader leaves fails the next write with EPIPE. The sink must
// disable itself with one warning while the session keeps closing windows;
// a SIGPIPE on the writing thread would kill the process instead.
TEST(Telemetry, FifoReaderLeavingDisablesTheSinkOnce) {
  const std::string path = temp_path("gone.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);

  std::string first;
  std::thread reader([&path, &first] {
    std::ifstream f(path);  // blocks until the session opens the write end
    std::getline(f, first);
  });  // f's destructor closes the read end

  telemetry_options to;
  to.jsonl_out = path;
  to.interval_us = 5'000;
  to.install_signal_handler = false;
  ::testing::internal::CaptureStderr();
  telemetry_session session(to);
  reader.join();
  const std::uint64_t at_close = session.windows_exported();
  for (int i = 0; i < 2000 && session.windows_exported() < at_close + 5; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(session.windows_exported(), at_close + 5);
  session.stop();
  const std::string err = ::testing::internal::GetCapturedStderr();

  const auto doc = json_value::parse(first);
  ASSERT_TRUE(doc.has_value()) << first;
  EXPECT_EQ(doc->string_at("type"), "window");
  std::size_t warnings = 0;
  for (std::size_t at = err.find("(disabling)"); at != std::string::npos;
       at = err.find("(disabling)", at + 1))
    ++warnings;
  EXPECT_EQ(warnings, 1u) << err;
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
