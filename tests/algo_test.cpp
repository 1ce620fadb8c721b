// Tests for the parallel algorithms layer (src/algo): chunking resolution,
// parallel_for (all policies), parallel_reduce, task_group.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "algo/parallel_for.hpp"
#include "algo/parallel_reduce.hpp"
#include "algo/parallel_scan.hpp"
#include "algo/task_group.hpp"
#include "async/async.hpp"

namespace gran::algo {
namespace {

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// --- chunking ----------------------------------------------------------------

TEST(Chunking, StaticIsLiteral) {
  EXPECT_EQ(resolve_chunk(static_chunk{100}, 1'000'000, 8), 100u);
  EXPECT_EQ(resolve_chunk(static_chunk{0}, 100, 8), 1u);  // clamped
}

TEST(Chunking, AutoTargetsTasksPerWorker) {
  // 1000 items, 4 workers, 4 tasks/worker -> 16 tasks -> chunk 63.
  const std::size_t chunk = resolve_chunk(auto_chunk{4}, 1'000, 4);
  EXPECT_EQ(chunk, (1'000 + 15) / 16);
  // Tiny input: at least one item per chunk.
  EXPECT_GE(resolve_chunk(auto_chunk{4}, 3, 8), 1u);
}

// --- parallel_for ----------------------------------------------------------------

class ParallelForPolicies : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForPolicies, TouchesEveryIndexOnce) {
  thread_manager tm(test_config(3));
  chunking policy;
  switch (GetParam()) {
    case 0: policy = static_chunk{7}; break;
    case 1: policy = auto_chunk{}; break;
    default: policy = lazy_chunk{}; break;
  }
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(tm, 0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, policy);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

std::string policy_case_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "static";
    case 1: return "auto";
    default: return "lazy";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ParallelForPolicies, ::testing::Values(0, 1, 2),
                         policy_case_name);

TEST(ParallelFor, EmptyRangeIsNoop) {
  thread_manager tm(test_config(1));
  int calls = 0;
  parallel_for(tm, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(tm, 9, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBase) {
  thread_manager tm(test_config(2));
  std::atomic<long> sum{0};
  parallel_for(tm, 100, 200, [&](std::size_t i) { sum += static_cast<long>(i); },
               static_chunk{13});
  EXPECT_EQ(sum.load(), (100L + 199) * 100 / 2);
}

TEST(ParallelFor, ExceptionPropagates) {
  thread_manager tm(test_config(2));
  EXPECT_THROW(
      parallel_for(tm, 0, 1'000,
                   [](std::size_t i) {
                     if (i == 321) throw std::runtime_error("item 321");
                   },
                   static_chunk{10}),
      std::runtime_error);
  // The runtime must still be healthy afterwards.
  std::atomic<int> ok{0};
  parallel_for(tm, 0, 100, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ParallelFor, DefaultManagerOverload) {
  thread_manager tm(test_config(2));
  std::atomic<int> count{0};
  parallel_for(0, 500, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ParallelFor, SingleItem) {
  thread_manager tm(test_config(2));
  std::atomic<int> hits{0};
  parallel_for(tm, 0, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++hits;
  });
  EXPECT_EQ(hits.load(), 1);
}

// --- parallel_reduce ---------------------------------------------------------------

TEST(ParallelReduce, SumMatchesSerial) {
  thread_manager tm(test_config(3));
  std::vector<double> data(50'000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.5 * static_cast<double>(i);
  const double parallel = parallel_reduce(
      tm, 0, data.size(), 0.0, [&](std::size_t i) { return data[i]; },
      [](double a, double b) { return a + b; }, static_chunk{1'000});
  const double serial = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_DOUBLE_EQ(parallel, serial);
}

TEST(ParallelReduce, DeterministicForFixedChunk) {
  thread_manager tm(test_config(4));
  std::vector<double> data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1.0 / (1.0 + static_cast<double>(i));
  const auto run = [&] {
    return parallel_reduce(
        tm, 0, data.size(), 0.0, [&](std::size_t i) { return data[i]; },
        [](double a, double b) { return a + b; }, static_chunk{128});
  };
  const double first = run();
  for (int r = 0; r < 5; ++r) EXPECT_EQ(run(), first);  // bitwise identical
}

TEST(ParallelReduce, MinReduction) {
  thread_manager tm(test_config(2));
  const auto value = [](std::size_t i) {
    return static_cast<long>((i * 7919) % 10'007);
  };
  const long parallel = parallel_reduce(
      tm, 0, 20'000, std::numeric_limits<long>::max(),
      [&](std::size_t i) { return value(i); },
      [](long a, long b) { return std::min(a, b); }, auto_chunk{});
  long serial = std::numeric_limits<long>::max();
  for (std::size_t i = 0; i < 20'000; ++i) serial = std::min(serial, value(i));
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  thread_manager tm(test_config(1));
  EXPECT_EQ(parallel_reduce(
                tm, 10, 10, 42, [](std::size_t) { return 1; },
                [](int a, int b) { return a + b; }),
            42);
}


// --- parallel_scan / parallel_transform --------------------------------------------

TEST(ParallelScan, MatchesSequentialInclusiveScan) {
  thread_manager tm(test_config(3));
  std::vector<long> in(30'000);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<long>((i * 2654435761u) % 1000) - 500;
  const auto out = parallel_inclusive_scan(tm, in, 0L,
                                           [](long a, long b) { return a + b; },
                                           static_chunk{777});
  long acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc += in[i];
    ASSERT_EQ(out[i], acc) << "index " << i;
  }
}

TEST(ParallelScan, SingleChunkDegenerate) {
  thread_manager tm(test_config(2));
  const std::vector<int> in{1, 2, 3, 4};
  const auto out = parallel_inclusive_scan(tm, in, 0,
                                           [](int a, int b) { return a + b; },
                                           static_chunk{100});
  EXPECT_EQ(out, (std::vector<int>{1, 3, 6, 10}));
}

TEST(ParallelScan, EmptyInput) {
  thread_manager tm(test_config(1));
  const std::vector<int> in;
  EXPECT_TRUE(parallel_inclusive_scan(tm, in, 0, [](int a, int b) { return a + b; })
                  .empty());
}

TEST(ParallelScan, MaxScan) {
  thread_manager tm(test_config(2));
  std::vector<int> in(5'000);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<int>((i * 48271) % 10'000);
  const auto out = parallel_inclusive_scan(
      tm, in, std::numeric_limits<int>::min(),
      [](int a, int b) { return std::max(a, b); }, static_chunk{321});
  int acc = std::numeric_limits<int>::min();
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc = std::max(acc, in[i]);
    ASSERT_EQ(out[i], acc);
  }
}

TEST(ParallelTransform, MapsEveryIndex) {
  thread_manager tm(test_config(3));
  std::vector<long> out(20'000, -1);
  parallel_transform(
      tm, 0, out.size(), [](std::size_t i) { return static_cast<long>(i * i); },
      [&out](std::size_t i, long v) { out[i] = v; }, static_chunk{997});
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<long>(i * i));
}

// --- task_group ---------------------------------------------------------------------

TEST(TaskGroup, JoinsAllChildren) {
  thread_manager tm(test_config(3));
  task_group tg(tm);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) tg.run([&done] { ++done; });
  tg.wait();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(tg.pending(), 0u);
}

TEST(TaskGroup, NestedForks) {
  thread_manager tm(test_config(3));
  task_group tg(tm);
  std::atomic<int> leaves{0};
  for (int i = 0; i < 8; ++i)
    tg.run([&] {
      for (int j = 0; j < 8; ++j) tg.run([&leaves] { ++leaves; });
    });
  tg.wait();
  EXPECT_EQ(leaves.load(), 64);
}

TEST(TaskGroup, ChildExceptionRethrownAtWait) {
  thread_manager tm(test_config(2));
  task_group tg(tm);
  std::atomic<int> survivors{0};
  tg.run([] { throw std::logic_error("child died"); });
  for (int i = 0; i < 10; ++i) tg.run([&survivors] { ++survivors; });
  EXPECT_THROW(tg.wait(), std::logic_error);
  EXPECT_EQ(survivors.load(), 10);  // the rest still completed
  // Group is reusable after a failed wait.
  tg.run([&survivors] { ++survivors; });
  tg.wait();
  EXPECT_EQ(survivors.load(), 11);
}

TEST(TaskGroup, WaitFromInsideTask) {
  thread_manager tm(test_config(2));
  std::atomic<int> inner_done{0};
  auto outer = gran::async([&] {
    task_group tg(tm);
    for (int i = 0; i < 20; ++i) tg.run([&inner_done] { ++inner_done; });
    tg.wait();  // suspends this task cooperatively
    return inner_done.load();
  });
  EXPECT_EQ(outer.get(), 20);
}

TEST(TaskGroup, WaitOnEmptyGroup) {
  thread_manager tm(test_config(1));
  task_group tg(tm);
  tg.wait();  // nothing spawned: returns immediately
  SUCCEED();
}

}  // namespace
}  // namespace gran::algo
