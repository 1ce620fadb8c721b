// Heap allocations per dataflow node, per chain node, per future round trip
// and per spawn, counted by a replacement global operator new (so this test
// has a binary of its own). Each shape runs once to warm up the caches and
// the vectors' capacities, then once more under the counter; every thread's
// allocations count. What a stencil node may still allocate: its input
// vector and the node (result state, callable, inputs, edge records). The
// task object, with its fiber inside, and the fiber's stack come from
// per-thread caches, on both context backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "async/gran.hpp"
#include "graph/futurize.hpp"
#include "graph/spec.hpp"

// The replacements below pair malloc with free; once GCC inlines them it
// sees an operator new pointer reach free() and warns, wrongly.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gran {
namespace {

struct AllocTest : ::testing::Test {
  AllocTest() : tm(make_config()) {}
  static scheduler_config make_config() {
    scheduler_config cfg;
    cfg.num_workers = 4;
    cfg.pin_workers = false;
    return cfg;
  }

  // Runs `pass` as a task twice and returns the allocations, on any
  // thread, of the second run divided by `units`.
  template <typename F>
  double allocs_per(std::uint64_t units, F pass) {
    std::uint64_t made = 0;
    for (int round = 0; round < 2; ++round) {
      tm.spawn([&] {
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        pass();
        made = g_allocs.load(std::memory_order_relaxed) - before;
      });
      tm.wait_idle();
    }
    return static_cast<double>(made) / static_cast<double>(units);
  }

  // Allocations per node of a futurized graph, built by a task with a
  // 16-row construction window (perfbench's stencil section).
  double graph_allocs_per_node(const graph::graph_spec& g) {
    EXPECT_EQ(g.validate(), "");
    const auto body = [](std::uint32_t t, std::uint32_t p,
                         const std::vector<future<std::uint64_t>>& in) {
      std::uint64_t acc = t * 1000003ull + p;
      for (const auto& f : in) acc += f.get();
      return acc;
    };
    std::uint64_t tasks = 0;
    const double per_node = allocs_per(g.total_tasks(), [&] {
      tasks = graph::futurize_dag<std::uint64_t>(tm, g, body, /*window=*/16).tasks;
    });
    EXPECT_EQ(tasks, g.total_tasks());
    std::printf("%s: %.3f allocations per node\n", g.describe().c_str(), per_node);
    return per_node;
  }

  thread_manager tm;
};

graph::graph_spec spec(graph::pattern kind, std::uint32_t radius) {
  graph::graph_spec g;
  g.kind = kind;
  g.width = 64;
  g.steps = 200;
  g.radius = radius;
  return g;
}

TEST_F(AllocTest, Stencil1dNode) {
  EXPECT_LE(graph_allocs_per_node(spec(graph::pattern::stencil1d, 1)), 2.1);
}

TEST_F(AllocTest, FftNode) {
  EXPECT_LE(graph_allocs_per_node(spec(graph::pattern::fft, 1)), 2.1);
}

TEST_F(AllocTest, SpreadFanIn8Node) {
  const graph::graph_spec g = spec(graph::pattern::spread, 8);
  ASSERT_EQ(g.max_fanin(), 8u);
  // Fan-in 8 is past the inline edge records: one more array per node.
  EXPECT_LE(graph_allocs_per_node(g), 3.1);
}

TEST_F(AllocTest, DataflowChainNode) {
  constexpr int k = 20'000;
  std::uint64_t result = 0;
  const double per_node = allocs_per(k, [&] {
    auto f = make_ready_future<std::uint64_t>(0);
    for (int i = 0; i < k; ++i)
      f = dataflow_on(tm, task_priority::normal,
                      [](future<std::uint64_t> x) { return x.get() + 1; }, f);
    result = f.get();
  });
  EXPECT_EQ(result, static_cast<std::uint64_t>(k));
  std::printf("dataflow_on chain: %.3f allocations per node\n", per_node);
  EXPECT_LE(per_node, 1.1);
}

TEST_F(AllocTest, AsyncRoundTrip) {
  constexpr int k = 20'000;
  std::uint64_t sum = 0;
  const double per_trip = allocs_per(k, [&] {
    sum = 0;
    for (int i = 0; i < k; ++i)
      sum += async_on(tm, task_priority::normal,
                      [i] { return static_cast<std::uint64_t>(i); })
                 .get();
  });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(k) * (k - 1) / 2);
  std::printf("async_on(...).get(): %.3f allocations per round trip\n", per_trip);
  // The shared state, and the waiter list's storage when get() waits.
  EXPECT_LE(per_trip, 2.1);
}

// A spawn allocates nothing: the task comes from the spawner's magazine,
// which the depot refills with what the other workers retired. Rounds of
// 256 awaited on a latch keep at most 256 tasks alive, far under the
// caches' caps.
TEST_F(AllocTest, EmptySpawnFromTask) {
  constexpr int k = 20'000;
  constexpr int round = 256;
  const double per_spawn = allocs_per(k, [&] {
    for (int begun = 0; begun < k; begun += round) {
      const int n = std::min(round, k - begun);
      latch all(n);
      for (int i = 0; i < n; ++i) tm.spawn([&all] { all.count_down(); });
      all.wait();
    }
  });
  std::printf("spawn from a task: %.4f allocations per spawn\n", per_spawn);
  EXPECT_LE(per_spawn, 0.05);
}

}  // namespace
}  // namespace gran
