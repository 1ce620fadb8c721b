// Tests for the PMU plane (src/perf/pmu.*): mode helpers and sample
// arithmetic, the degradation ladder driven through an injected
// perf_event_open shim, the forced software-only rung, real hardware
// spin-kernel deltas (skipped where the PMU is denied), and the
// trace-pairing + per-grain-bin attribution in the analyzer
// (src/perf/analysis.*) on hand-built event streams.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perf/analysis.hpp"
#include "perf/observability.hpp"
#include "perf/pmu.hpp"
#include "perf/trace.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <linux/perf_event.h>
#include <unistd.h>
#define GRAN_PMU_TEST_SHIM 1
#else
#define GRAN_PMU_TEST_SHIM 0
#endif

namespace gran {
namespace {

using perf::pmu_mode;
using perf::trace_event;
using perf::trace_kind;

// The plane (and the open shim) are process-global: every test starts and
// ends with both reset.
class PmuTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    perf::set_pmu_open_for_test(nullptr);
    perf::pmu_plane::instance().reset_for_test();
  }
};

// --- mode helpers ------------------------------------------------------------

TEST_F(PmuTest, ModeNamesAndUnavailableCounts) {
  EXPECT_STREQ(perf::pmu_mode_name(pmu_mode::off), "off");
  EXPECT_STREQ(perf::pmu_mode_name(pmu_mode::full), "full");
  EXPECT_STREQ(perf::pmu_mode_name(pmu_mode::reduced), "reduced");
  EXPECT_STREQ(perf::pmu_mode_name(pmu_mode::minimal), "minimal");
  EXPECT_STREQ(perf::pmu_mode_name(pmu_mode::software), "software");
  EXPECT_EQ(perf::pmu_events_unavailable(pmu_mode::full), 0);
  EXPECT_EQ(perf::pmu_events_unavailable(pmu_mode::reduced), 2);
  EXPECT_EQ(perf::pmu_events_unavailable(pmu_mode::minimal), 3);
  EXPECT_EQ(perf::pmu_events_unavailable(pmu_mode::software), 4);
}

TEST_F(PmuTest, SampleSubtractionSaturates) {
  perf::pmu_sample a, b;
  a.cycles = 100;
  a.instructions = 50;
  b.cycles = 120;
  b.instructions = 40;  // counter reset / reopened fd: never underflow
  const perf::pmu_sample d = b - a;
  EXPECT_EQ(d.cycles, 20u);
  EXPECT_EQ(d.instructions, 0u);
}

TEST_F(PmuTest, PackPmuArgRoundTripsAndSaturates) {
  const std::uint64_t arg = perf::pack_pmu_arg(123456, 654321);
  EXPECT_EQ(perf::pmu_arg_cycles(arg), 123456u);
  EXPECT_EQ(perf::pmu_arg_instructions(arg), 654321u);
  // Deltas wider than 32 bits clamp instead of bleeding into the other half.
  const std::uint64_t big = perf::pack_pmu_arg(1ull << 40, (1ull << 36) + 7);
  EXPECT_EQ(perf::pmu_arg_cycles(big), 0xffffffffull);
  EXPECT_EQ(perf::pmu_arg_instructions(big), 0xffffffffull);
}

// --- plane configuration -----------------------------------------------------

TEST_F(PmuTest, PlaneOffByDefaultAndOnOff) {
  auto& plane = perf::pmu_plane::instance();
  EXPECT_FALSE(plane.enabled());
  EXPECT_EQ(plane.mode(), pmu_mode::off);
  EXPECT_EQ(plane.create_reader(), nullptr);

  plane.configure("off");
  EXPECT_FALSE(plane.enabled());
  plane.configure("0");
  EXPECT_FALSE(plane.enabled());
  plane.configure("1");
  EXPECT_TRUE(plane.enabled());
  plane.configure("");
  EXPECT_FALSE(plane.enabled());
}

TEST_F(PmuTest, ConfigureWinsOverLaterEnvInit) {
  auto& plane = perf::pmu_plane::instance();
  plane.configure("sw");
  // thread_manager starts the knob table's observers at startup; a plane the
  // code configured first must not be clobbered by GRAN_PMU.
  const char* none[] = {"prog"};
  perf::start_observers(config::resolve({"GRAN_PMU=1"}, cli_args(1, none)));
  EXPECT_TRUE(plane.enabled());
  EXPECT_EQ(plane.mode(), pmu_mode::software);
}

TEST_F(PmuTest, KnobConfiguresAnUntouchedPlane) {
  auto& plane = perf::pmu_plane::instance();
  const char* none[] = {"prog"};
  perf::start_observers(config::resolve({"GRAN_PMU=sw"}, cli_args(1, none)));
  EXPECT_EQ(plane.mode(), pmu_mode::software);
}

TEST_F(PmuTest, ForcedSoftwareReaderCountsCyclesOnly) {
  auto& plane = perf::pmu_plane::instance();
  plane.configure("software");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode(), pmu_mode::software);
  EXPECT_EQ(plane.mode(), pmu_mode::software);
  EXPECT_EQ(plane.events_unavailable(), 4);

  perf::pmu_sample s0, s1;
  r->sample(s0);
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1;
  r->sample(s1);
  // rdtsc is monotonic, so the cycle delta is positive even in software
  // mode; the hardware-only channels must stay silent.
  EXPECT_GT(s1.cycles, s0.cycles);
  EXPECT_EQ(s0.instructions, 0u);
  EXPECT_EQ(s1.instructions, 0u);
  EXPECT_EQ(s1.llc_misses, 0u);
}

// --- degradation ladder via the open shim ------------------------------------

#if GRAN_PMU_TEST_SHIM

// Bitmask over PERF_COUNT_HW_* configs the shim denies; software events are
// always denied so ctx switches exercise the rusage fallback.
std::uint64_t g_denied_hw = 0;

int shim_open(std::uint32_t type, std::uint64_t config, int /*group_fd*/) {
  if (type != PERF_TYPE_HARDWARE || ((g_denied_hw >> config) & 1)) {
    errno = EPERM;
    return -1;
  }
  // Any real fd satisfies the open path; reads from it later fail the size
  // check, which is its own test below.
  return ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

TEST_F(PmuTest, LadderDenyAllLandsOnSoftware) {
  g_denied_hw = ~0ull;
  perf::set_pmu_open_for_test(&shim_open);
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode(), pmu_mode::software);
  EXPECT_EQ(plane.mode(), pmu_mode::software);
  EXPECT_EQ(plane.events_unavailable(), 4);
}

TEST_F(PmuTest, LadderDenyLLCLandsOnMinimal) {
  g_denied_hw = (1ull << PERF_COUNT_HW_CACHE_MISSES) |
                (1ull << PERF_COUNT_HW_BRANCH_MISSES) |
                (1ull << PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
  perf::set_pmu_open_for_test(&shim_open);
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode(), pmu_mode::minimal);
  EXPECT_EQ(plane.events_unavailable(), 3);
}

TEST_F(PmuTest, LadderDenyWideGroupLandsOnReduced) {
  g_denied_hw = (1ull << PERF_COUNT_HW_BRANCH_MISSES) |
                (1ull << PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
  perf::set_pmu_open_for_test(&shim_open);
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mode(), pmu_mode::reduced);
  EXPECT_EQ(plane.events_unavailable(), 2);
}

TEST_F(PmuTest, NegotiatedRungSticksForLaterReaders) {
  g_denied_hw = (1ull << PERF_COUNT_HW_BRANCH_MISSES) |
                (1ull << PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
  perf::set_pmu_open_for_test(&shim_open);
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto first = plane.create_reader();
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->mode(), pmu_mode::reduced);
  // The denial goes away (cgroup relaxed mid-run) — but later readers start
  // at the negotiated rung instead of re-probing full, so the fleet stays
  // mode-homogeneous.
  g_denied_hw = 0;
  auto second = plane.create_reader();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->mode(), pmu_mode::reduced);
  EXPECT_EQ(plane.mode(), pmu_mode::reduced);
}

TEST_F(PmuTest, BadGroupReadDegradesReaderToSoftware) {
  g_denied_hw = 0;  // every open "succeeds" but the fds are /dev/null
  perf::set_pmu_open_for_test(&shim_open);
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->mode(), pmu_mode::full);
  perf::pmu_sample s;
  r->sample(s);  // short read -> permanent software degradation, no error
  EXPECT_EQ(r->mode(), pmu_mode::software);
  EXPECT_GT(s.cycles, 0u);  // rdtsc fallback fills cycles immediately
  perf::pmu_sample s2;
  r->sample(s2);
  EXPECT_GE(s2.cycles, s.cycles);
}

#endif  // GRAN_PMU_TEST_SHIM

// --- real hardware (skips when the PMU is denied) ----------------------------

TEST_F(PmuTest, SpinKernelInstructionDeltasAreStable) {
  auto& plane = perf::pmu_plane::instance();
  plane.configure("1");
  auto r = plane.create_reader();
  ASSERT_NE(r, nullptr);
  if (perf::pmu_events_unavailable(r->mode()) > 3)
    GTEST_SKIP() << "no instruction counter here (mode "
                 << perf::pmu_mode_name(r->mode()) << ")";

  const auto spin = [] {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2000000; ++i) sink = sink + i;
  };
  perf::pmu_sample s0, s1, s2;
  r->sample(s0);
  spin();
  r->sample(s1);
  spin();
  r->sample(s2);
  const perf::pmu_sample d1 = s1 - s0;
  const perf::pmu_sample d2 = s2 - s1;
  // A fixed spin retires a near-fixed instruction count; the two deltas
  // must agree well within 2x (they typically agree within a percent, but
  // multiplexing scaling adds noise on busy machines).
  ASSERT_GT(d1.instructions, 0u);
  ASSERT_GT(d2.instructions, 0u);
  EXPECT_GT(d1.cycles, 0u);
  const double ratio = static_cast<double>(d1.instructions) /
                       static_cast<double>(d2.instructions);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

// --- analyzer pairing + grain bins on hand-built streams ---------------------

trace_event ev(std::uint64_t ticks, trace_kind k, std::uint16_t worker,
               std::uint64_t arg = 0, std::uint32_t arg2 = 0) {
  trace_event e;
  e.ticks = ticks;
  e.kind = k;
  e.worker = worker;
  e.arg = arg;
  e.arg2 = arg2;
  return e;
}

perf::trace_dump make_dump(std::vector<perf::trace_lane> lanes) {
  perf::trace_dump d;
  d.lanes = std::move(lanes);
  d.ns_per_tick = 1.0;
  d.names = std::make_shared<const std::vector<std::string>>();
  return d;
}

// Two tasks on one worker, each with a scheduler-gap record (after begin)
// and a kernel record (after end), the shape thread_manager emits.
perf::trace_dump pmu_dump(std::uint64_t instr1, std::uint64_t instr2) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(100, trace_kind::task_begin, 0, 1),
      ev(100, trace_kind::task_pmu, 0, perf::pack_pmu_arg(1000, 400), 5),
      ev(200, trace_kind::task_end, 0, 1),
      ev(200, trace_kind::task_pmu, 0, perf::pack_pmu_arg(9000, instr1), 10),
      ev(300, trace_kind::task_begin, 0, 2),
      ev(300, trace_kind::task_pmu, 0, perf::pack_pmu_arg(1200, 440), 7),
      ev(400, trace_kind::task_end, 0, 2),
      ev(400, trace_kind::task_pmu, 0, perf::pack_pmu_arg(8800, instr2), 8),
  };
  perf::trace_lane ext;
  ext.worker = perf::external_worker;
  ext.events = {
      ev(10, trace_kind::task_enqueue, perf::external_worker, 1,
         perf::external_worker),
      ev(20, trace_kind::task_enqueue, perf::external_worker, 2,
         perf::external_worker),
  };
  return make_dump({w0, ext});
}

TEST_F(PmuTest, AnalyzerPairsKernelAndSchedRecords) {
  const auto r = perf::analyze_trace(pmu_dump(3600, 3400));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.has_pmu);
  EXPECT_FALSE(r.pmu_software_only);
  EXPECT_EQ(r.pmu_tasks, 2u);

  const perf::task_record* t1 = nullptr;
  for (const auto& t : r.tasks)
    if (t.id == 1) t1 = &t;
  ASSERT_NE(t1, nullptr);
  EXPECT_TRUE(t1->has_pmu);
  EXPECT_EQ(t1->pmu_cycles, 9000u);
  EXPECT_EQ(t1->pmu_instructions, 3600u);
  EXPECT_EQ(t1->pmu_llc_misses, 10u);
  EXPECT_EQ(t1->pmu_sched_cycles, 1000u);
  EXPECT_EQ(t1->pmu_sched_instructions, 400u);
  EXPECT_EQ(t1->pmu_sched_llc_misses, 5u);
}

TEST_F(PmuTest, AnalyzerBinsByGrainAndReportsTable) {
  const auto r = perf::analyze_trace(pmu_dump(3600, 3400));
  ASSERT_TRUE(r.ok) << r.error;
  // Both tasks executed 100 ns -> one bin covering [64, 128).
  ASSERT_EQ(r.pmu_bins.size(), 1u);
  const auto& bin = r.pmu_bins[0];
  EXPECT_EQ(bin.tasks, 2u);
  EXPECT_DOUBLE_EQ(bin.grain_lo_ns, 64.0);
  EXPECT_DOUBLE_EQ(bin.grain_hi_ns, 128.0);
  EXPECT_NEAR(bin.kernel_cycles, (9000.0 + 8800.0) / 2, 1e-9);
  EXPECT_NEAR(bin.sched_cycles, (1000.0 + 1200.0) / 2, 1e-9);
  EXPECT_NEAR(bin.kernel_instructions, (3600.0 + 3400.0) / 2, 1e-9);
  EXPECT_NEAR(bin.llc_misses, (10.0 + 8.0) / 2, 1e-9);
  // Median IPC of {3600/9000, 3400/8800}.
  EXPECT_GT(bin.median_ipc, 0.35);
  EXPECT_LT(bin.median_ipc, 0.45);
  EXPECT_DOUBLE_EQ(bin.stolen_frac, 0.0);

  std::ostringstream report;
  perf::write_report(report, r);
  EXPECT_NE(report.str().find("pmu attribution (hardware counters)"),
            std::string::npos);
  EXPECT_NE(report.str().find("grain_us"), std::string::npos);
}

TEST_F(PmuTest, AnalyzerLabelsSoftwareOnlyCaptures) {
  // Zero instructions everywhere = rdtsc-only capture; the report must say
  // so instead of printing an all-zero IPC column as if it were measured.
  const auto r = perf::analyze_trace(pmu_dump(0, 0));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.has_pmu);
  EXPECT_TRUE(r.pmu_software_only);
  ASSERT_FALSE(r.pmu_bins.empty());
  EXPECT_EQ(r.pmu_bins[0].kernel_instructions, 0.0);
  EXPECT_GT(r.pmu_bins[0].kernel_cycles, 0.0);

  std::ostringstream report;
  perf::write_report(report, r);
  EXPECT_NE(report.str().find("software-only"), std::string::npos);
}

TEST_F(PmuTest, AnalyzerSurvivesOrphanPmuRecords) {
  // Ring wraparound can drop the begin/end a task_pmu belonged to; orphan
  // records must be ignored, not crash or misattribute.
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(50, trace_kind::task_pmu, 0, perf::pack_pmu_arg(7000, 2000), 3),
      ev(100, trace_kind::task_begin, 0, 9),
      ev(200, trace_kind::task_end, 0, 9),
      ev(200, trace_kind::task_pmu, 0, perf::pack_pmu_arg(5000, 1500), 2),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.pmu_tasks, 1u);
  const perf::task_record* t9 = nullptr;
  for (const auto& t : r.tasks)
    if (t.id == 9) t9 = &t;
  ASSERT_NE(t9, nullptr);
  EXPECT_EQ(t9->pmu_cycles, 5000u);
  EXPECT_EQ(t9->pmu_sched_cycles, 0u);
}

TEST_F(PmuTest, TaskCsvCarriesPmuColumns) {
  const auto r = perf::analyze_trace(pmu_dump(3600, 3400));
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream csv;
  perf::write_task_csv(csv, r);
  EXPECT_NE(csv.str().find("pmu_cycles"), std::string::npos);
  EXPECT_NE(csv.str().find("pmu_sched_instructions"), std::string::npos);
  EXPECT_NE(csv.str().find("3600"), std::string::npos);
}

}  // namespace
}  // namespace gran
