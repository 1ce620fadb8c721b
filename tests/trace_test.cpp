// Tests for the observability stack: trace rings + Chrome JSON export
// (src/perf/trace.*), log2 histograms (src/perf/histogram.*), and the
// observability_session option parsing (src/perf/observability.*).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/counters.hpp"
#include "perf/histogram.hpp"
#include "perf/observability.hpp"
#include "perf/trace.hpp"
#include "threads/thread_manager.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// The tracer is process-global state: every test leaves it disabled & empty.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    auto& t = perf::tracer::instance();
    t.disable();
    t.set_export_path("");
    t.clear();
  }
};

// --- trace_ring --------------------------------------------------------------

TEST_F(TraceTest, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(perf::trace_ring(5).capacity(), 8u);
  EXPECT_EQ(perf::trace_ring(8).capacity(), 8u);
  EXPECT_EQ(perf::trace_ring(1).capacity(), 2u);
}

TEST_F(TraceTest, RingKeepsEventsInOrder) {
  perf::trace_ring ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    perf::trace_event e;
    e.ticks = i;
    e.arg = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.written(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(events[i].arg, i);
}

TEST_F(TraceTest, RingWrapKeepsLatestAndCountsDropped) {
  perf::trace_ring ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    perf::trace_event e;
    e.arg = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.written(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].arg, 12 + i);

  ring.clear();
  EXPECT_EQ(ring.written(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST_F(TraceTest, RingCountersReadableWhileProducing) {
  // One producer, one observer polling the atomic counters — the only
  // concurrent access the ring supports. Exercised under TSan by
  // scripts/tsan_check.sh.
  perf::trace_ring ring(64);
  constexpr std::uint64_t n = 100'000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < n; ++i) {
      perf::trace_event e;
      e.arg = i;
      ring.emit(e);
    }
  });
  std::uint64_t last = 0;
  while (last < n) {
    const std::uint64_t d = ring.dropped();
    const std::uint64_t w = ring.written();  // read after: w >= d holds
    EXPECT_GE(w, last);                      // monotone
    EXPECT_GE(w, d);
    last = w;
  }
  producer.join();
  EXPECT_EQ(ring.written(), n);
  EXPECT_EQ(ring.dropped(), n - ring.capacity());
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

TEST_F(TraceTest, EmitHelperGatesOnEnabledAndRing) {
  perf::trace_ring ring(16);
  perf::trace_emit(&ring, perf::trace_kind::task_begin, 0, 1);
  EXPECT_EQ(ring.written(), 0u) << "disabled tracer must not emit";
  perf::trace_emit(nullptr, perf::trace_kind::task_begin, 0, 1);  // no crash

  perf::tracer::instance().enable();
  perf::trace_emit(&ring, perf::trace_kind::task_begin, 3, 42, 7, "t");
  ASSERT_EQ(ring.written(), 1u);
  const auto events = ring.snapshot();
  EXPECT_EQ(events[0].kind, perf::trace_kind::task_begin);
  EXPECT_EQ(events[0].worker, 3);
  EXPECT_EQ(events[0].arg, 42u);
  EXPECT_EQ(events[0].arg2, 7u);
  EXPECT_GT(events[0].ticks, 0u);
}

// --- log2_histogram ----------------------------------------------------------

TEST(Histogram, BucketOfEdges) {
  using perf::log2_histogram;
  EXPECT_EQ(log2_histogram::bucket_of(0), 0);
  EXPECT_EQ(log2_histogram::bucket_of(1), 0);
  EXPECT_EQ(log2_histogram::bucket_of(2), 1);
  EXPECT_EQ(log2_histogram::bucket_of(3), 1);
  EXPECT_EQ(log2_histogram::bucket_of(4), 2);
  EXPECT_EQ(log2_histogram::bucket_of((1ull << 20) - 1), 19);
  EXPECT_EQ(log2_histogram::bucket_of(1ull << 20), 20);
  EXPECT_EQ(log2_histogram::bucket_of(~0ull), 63);
}

TEST(Histogram, CountSumMean) {
  perf::log2_histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  const auto s = h.snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 600u);
  EXPECT_DOUBLE_EQ(s.mean(), 200.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  perf::log2_histogram h;
  for (int i = 0; i < 90; ++i) h.record(1000);    // bucket [512, 1024) is 9
  for (int i = 0; i < 10; ++i) h.record(100'000); // bucket [65536, 131072)
  const auto s = h.snap();
  const double p50 = s.percentile(50);
  const double p95 = s.percentile(95);
  const double p99 = s.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 lands in the bucket holding the 1000-ns samples...
  EXPECT_GE(p50, 512.0);
  EXPECT_LT(p50, 2048.0);
  // ...and p99 in the bucket holding the 100-us tail.
  EXPECT_GE(p99, 65536.0);
  EXPECT_LT(p99, 131072.0);
  EXPECT_EQ(perf::histogram_snapshot{}.percentile(50), 0.0);
}

TEST(Histogram, MergeAndReset) {
  perf::log2_histogram a, b;
  a.record(10);
  b.record(1000);
  b.record(2000);
  auto s = a.snap();
  s += b.snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 3010u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.snap().sum, 0u);
}

// --- end-to-end: manager with tracing on -------------------------------------

TEST_F(TraceTest, ManagerExportContainsLanesAndTaskSlices) {
  perf::tracer::instance().enable(1 << 18);
  constexpr int n = 200;
  std::uint64_t exec_ns = 0;
  {
    thread_manager tm(test_config(2));
    tm.reset_counters();
    for (int i = 0; i < n; ++i)
      tm.spawn(
          [] {
            volatile double x = 1.0;
            for (int k = 0; k < 4000; ++k) x = x * 1.0000001 + 0.1;
          },
          task_priority::normal, "traced-task");
    tm.wait_idle();
    exec_ns = tm.counter_totals().exec_ns;
  }

  std::ostringstream os;
  perf::tracer::instance().write_chrome_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("traced-task"), std::string::npos);

  // Count the task slices and sum their durations (one slice per line; dur
  // is exported in microseconds).
  int slices = 0;
  double dur_us = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"cat\":\"task\"") == std::string::npos) continue;
    ++slices;
    const auto pos = line.find("\"dur\":");
    ASSERT_NE(pos, std::string::npos);
    dur_us += std::strtod(line.c_str() + pos + 6, nullptr);
  }
  EXPECT_EQ(slices, n) << "one complete slice per single-phase task";
  // Phase begin/end events carry the exact tsc reads the Σt_exec counter
  // accumulates (trace_emit_at), so the two sums are the same measurement;
  // the slack only covers the exporter's µs formatting and float summation.
  EXPECT_NEAR(dur_us * 1e3, static_cast<double>(exec_ns),
              0.05 * static_cast<double>(exec_ns));
}

TEST_F(TraceTest, DroppedCounterSurfacesRingWrap) {
  perf::tracer::instance().enable(16);  // tiny rings: guaranteed wrap
  {
    thread_manager tm(test_config(1));
    for (int i = 0; i < 500; ++i) tm.spawn([] {});
    tm.wait_idle();
    EXPECT_GT(perf::registry::instance().value_or("/threads/count/trace-dropped", -1),
              0.0);
  }
  EXPECT_GT(perf::tracer::instance().total_dropped(), 0u);
}

TEST_F(TraceTest, StealEventsCarryVictim) {
  perf::tracer::instance().enable(1 << 16);
  {
    scheduler_config cfg = test_config(4);
    cfg.policy = "work-stealing-lifo";
    thread_manager tm(cfg);
    for (int i = 0; i < 400; ++i)
      tm.spawn([] {
        volatile double x = 1.0;
        for (int k = 0; k < 10000; ++k) x = x * 1.0000001 + 0.1;
      });
    tm.wait_idle();
  }
  std::ostringstream os;
  perf::tracer::instance().write_chrome_json(os);
  const std::string json = os.str();
  // External spawns round-robin into per-worker inboxes; draining another
  // worker's inbox is a steal, so a 4-worker run always records some.
  EXPECT_NE(json.find("\"cat\":\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"victim\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow begin
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
}

// --- observability_session options -------------------------------------------

TEST(Observability, OptionsFromEnvAndCli) {
  ::setenv("GRAN_TRACE", "env.json", 1);
  ::setenv("GRAN_METRICS", "env.jsonl", 1);
  ::setenv("GRAN_METRICS_US", "250", 1);
  ::setenv("GRAN_FLIGHT", "1", 1);
  const auto env = perf::observability_session::options_from_env();
  EXPECT_EQ(env.trace_out, "env.json");
  EXPECT_EQ(env.telemetry.jsonl_out, "env.jsonl");
  EXPECT_EQ(env.telemetry.interval_us, 250);
  EXPECT_EQ(env.telemetry.flight_prefix, "gran_flight");
  // The session and the thread manager's env autostart share one parse.
  EXPECT_EQ(perf::telemetry_options_from_env().jsonl_out, "env.jsonl");
  for (const char* k : {"GRAN_TRACE", "GRAN_METRICS", "GRAN_METRICS_US", "GRAN_FLIGHT"})
    ::unsetenv(k);

  const char* argv[] = {"prog", "--trace-out=cli.json", "--metrics-out=cli.jsonl",
                        "--metrics-interval-us=50", "--stall-ns=7000"};
  const cli_args args(5, argv);
  const auto opt = perf::observability_session::options_from_cli(args, env);
  EXPECT_EQ(opt.trace_out, "cli.json");  // CLI beats env
  EXPECT_EQ(opt.telemetry.jsonl_out, "cli.jsonl");
  EXPECT_EQ(opt.telemetry.interval_us, 50);
  EXPECT_EQ(opt.telemetry.watchdog.stuck_ns, 7000);
  EXPECT_EQ(opt.telemetry.flight_prefix, "gran_flight");  // env kept
}

void options_from_sampler_env() {
  ::setenv("GRAN_SAMPLE_OUT", "ts.csv", 1);
  perf::observability_session::options_from_env();
}

TEST(Observability, RemovedSamplerKnobsFailLoudly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* argv[] = {"prog", "--sample-interval-us=1000"};
  const cli_args args(2, argv);
  EXPECT_EXIT(perf::observability_session::options_from_cli(args, {}),
              ::testing::ExitedWithCode(2), "--metrics-out / GRAN_METRICS");
  EXPECT_EXIT(options_from_sampler_env(), ::testing::ExitedWithCode(2),
              "GRAN_SAMPLE_OUT was removed");
}

}  // namespace
}  // namespace gran
