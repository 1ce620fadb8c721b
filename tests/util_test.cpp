// Unit tests for src/util: statistics, CLI parsing, table/number formatting,
// timers, backoff. The knob table has its own config_test.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/unique_function.hpp"

namespace gran {
namespace {

// --- running_stats ---------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.cov(), 0.0);
}

TEST(RunningStats, SingleSample) {
  running_stats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const double samples[] = {3.1, 4.7, 1.2, 8.8, 5.5, 2.2};
  running_stats s;
  double sum = 0;
  for (double x : samples) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 6.0;
  double var = 0;
  for (double x : samples) var += (x - mean) * (x - mean);
  var /= 5.0;  // n-1
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_NEAR(s.cov(), std::sqrt(var) / mean, 1e-12);
}

TEST(RunningStats, MergeEqualsCombined) {
  running_stats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  running_stats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  running_stats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

// --- sample_stats -----------------------------------------------------------

TEST(SampleStats, BasicMoments) {
  sample_stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SampleStats, Percentiles) {
  sample_stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(SampleStats, PercentileSingle) {
  sample_stats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(SampleStats, CovZeroMean) {
  sample_stats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_EQ(s.cov(), 0.0);  // mean 0 -> defined as 0, not inf
}

// --- cli_args ---------------------------------------------------------------

TEST(CliArgs, KeyEqualsValue) {
  const char* argv[] = {"prog", "--alpha=3", "--name=test"};
  cli_args args(3, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("name"), "test");
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, KeySpaceValue) {
  const char* argv[] = {"prog", "--count", "17"};
  cli_args args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 17);
}

TEST(CliArgs, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose", "--full"};
  cli_args args(3, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.get_bool("full", false));
  EXPECT_FALSE(args.get_bool("absent", false));
}

TEST(CliArgs, BooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=off", "--d=yes"};
  cli_args args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

TEST(CliArgs, IntList) {
  const char* argv[] = {"prog", "--cores=1,2,4,8"};
  cli_args args(2, argv);
  const auto list = args.get_int_list("cores", {});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0], 1);
  EXPECT_EQ(list[3], 8);
}

TEST(CliArgs, IntListDefault) {
  const char* argv[] = {"prog"};
  cli_args args(1, argv);
  const auto list = args.get_int_list("cores", {7, 9});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], 7);
}

TEST(CliArgs, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=1", "more"};
  cli_args args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(CliArgs, DoubleValues) {
  const char* argv[] = {"prog", "--x=2.5"};
  cli_args args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("y", 1.25), 1.25);
}

// --- table / formatting ------------------------------------------------------

TEST(Table, AlignedOutput) {
  table_writer t({"a", "bee"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a   | bee |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4   |"), std::string::npos);
}

TEST(Table, Csv) {
  table_writer t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, DoubleRow) {
  table_writer t({"x", "y"});
  t.add_numeric_row({1.5, 2.0}, 2);
  EXPECT_EQ(t.data()[0][0], "1.5");
  EXPECT_EQ(t.data()[0][1], "2");
}

TEST(Formatting, Numbers) {
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(0.25, 4), "0.25");
  EXPECT_EQ(format_number(-0.0), "0");
  EXPECT_EQ(format_number(1.23456, 2), "1.23");
}

TEST(Formatting, Durations) {
  EXPECT_EQ(format_duration_ns(312), "312 ns");
  EXPECT_EQ(format_duration_ns(21'400), "21.40 us");
  EXPECT_EQ(format_duration_ns(1'750'000'000), "1.750 s");
}

TEST(Formatting, Counts) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(12'500'000), "12,500,000");
  EXPECT_EQ(format_count(-1234), "-1,234");
}


TEST(CliArgs, NegativeValuesRequireEqualsForm) {
  // "--x -5" cannot distinguish a negative value from a flag; the
  // documented form is "--x=-5".
  const char* argv[] = {"prog", "--a=-5", "--b", "-7"};
  cli_args args(4, argv);
  EXPECT_EQ(args.get_int("a", 0), -5);
  EXPECT_TRUE(args.has("b"));          // "-7" was NOT consumed as b's value
  EXPECT_EQ(args.get_int("b", 99), 99);
}

TEST(CliArgs, LastDuplicateWins) {
  const char* argv[] = {"prog", "--x=1", "--x=2"};
  cli_args args(3, argv);
  EXPECT_EQ(args.get_int("x", 0), 2);
}

TEST(Formatting, NegativeDurations) {
  EXPECT_EQ(format_duration_ns(-2'500'000), "-2.50 ms");
}

TEST(SampleStats, PercentileHandlesUnsortedInput) {
  sample_stats s;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}


// --- unique_function -----------------------------------------------------------

TEST(UniqueFunction, EmptyAndBool) {
  unique_function<int()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = [] { return 3; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 3);
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, CapturesMoveOnlyState) {
  auto p = std::make_unique<int>(42);
  unique_function<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 42);
  unique_function<int()> g = std::move(f);
  EXPECT_EQ(g(), 42);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
}

TEST(UniqueFunction, LargeCaptureGoesToHeap) {
  struct big {
    char data[256];
  };
  big b{};
  b.data[0] = 7;
  unique_function<int()> f = [b] { return b.data[0]; };
  EXPECT_EQ(f(), 7);
  unique_function<int()> g = std::move(f);
  EXPECT_EQ(g(), 7);
}

TEST(UniqueFunction, ArgumentsAndReturn) {
  unique_function<int(int, int)> f = [](int a, int b) { return a * 10 + b; };
  EXPECT_EQ(f(3, 4), 34);
}

TEST(UniqueFunction, DestructorRunsCapturedState) {
  auto flag = std::make_shared<bool>(false);
  struct sentinel {
    std::shared_ptr<bool> flag;
    ~sentinel() {
      if (flag) *flag = true;
    }
  };
  {
    unique_function<void()> f = [s = sentinel{flag}] { (void)s; };
  }
  EXPECT_TRUE(*flag);
}

TEST(UniqueFunction, MoveAssignReleasesOldTarget) {
  auto flag = std::make_shared<int>(0);
  struct counter {
    std::shared_ptr<int> flag;
    ~counter() {
      if (flag) ++*flag;
    }
    counter(std::shared_ptr<int> f) : flag(std::move(f)) {}
    counter(counter&& o) noexcept : flag(std::move(o.flag)) {}
  };
  unique_function<void()> f = [c = counter{flag}] { (void)c; };
  f = [] {};  // old target destroyed exactly once
  EXPECT_EQ(*flag, 1);
}

// --- timers ------------------------------------------------------------------

TEST(Timer, TscMonotonicAndCalibrated) {
  const auto a = tsc_clock::now();
  const auto b = tsc_clock::now();
  EXPECT_GE(b, a);
  EXPECT_GT(tsc_clock::ns_per_tick(), 0.0);
}

TEST(Timer, TscTracksWallClock) {
  const auto c0 = tsc_clock::now();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto c1 = tsc_clock::now();
  const auto t1 = std::chrono::steady_clock::now();
  const double tsc_ns = static_cast<double>(tsc_clock::to_ns(c1 - c0));
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  EXPECT_NEAR(tsc_ns, wall_ns, wall_ns * 0.25);  // within 25 %
}

TEST(Timer, Stopwatch) {
  stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(w.elapsed_ns(), 4'000'000);
  w.reset();
  EXPECT_LT(w.elapsed_s(), 0.5);
}

// --- backoff / cacheline ------------------------------------------------------

TEST(Backoff, EscalatesToYield) {
  backoff bo(4);
  EXPECT_FALSE(bo.yielding());
  for (int i = 0; i < 16; ++i) bo.pause();
  EXPECT_TRUE(bo.yielding());
  bo.reset();
  EXPECT_FALSE(bo.yielding());
}

// The time to park follows the thresholds, not the caller's round cost:
// every spin and yield step waits at least step_ns, and the step after the
// yield threshold says park.
TEST(IdleBackoff, EveryStepWaitsAtLeastStepNs) {
  idle_backoff idler(/*spin_limit=*/3, /*yield_limit=*/8);
  for (int round = 0; round < 2; ++round) {
    stopwatch w;
    for (int i = 0; i < 8; ++i) EXPECT_FALSE(idler.pause());
    EXPECT_GE(static_cast<double>(w.elapsed_ns()), 8 * idle_backoff::step_ns * 0.5);
    EXPECT_TRUE(idler.pause());
    idler.reset();
  }
}

TEST(Cacheline, PaddedIsolation) {
  static_assert(sizeof(padded<int>) % cache_line_size == 0);
  static_assert(alignof(padded<int>) == cache_line_size);
  padded<int> p(5);
  EXPECT_EQ(*p, 5);
  *p = 7;
  EXPECT_EQ(p.value, 7);
}

}  // namespace
}  // namespace gran
