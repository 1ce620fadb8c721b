// Unit tests for src/fiber: raw context switching, fiber lifecycle, stack
// management and pooling.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"

namespace gran {
namespace {

TEST(FiberStack, AllocationAndMove) {
  fiber_stack s(64 * 1024);
  EXPECT_TRUE(s.valid());
  EXPECT_GE(s.size(), 64u * 1024);
  // Usable memory is writable.
  auto* base = static_cast<char*>(s.base());
  base[0] = 1;
  base[s.size() - 1] = 2;

  fiber_stack moved = std::move(s);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(s.valid());  // NOLINT(bugprone-use-after-move): testing move
}

TEST(FiberStack, SizeRoundedToPages) {
  fiber_stack s(1000);
  EXPECT_EQ(s.size() % 4096, 0u);
  EXPECT_GE(s.size(), 1000u);
}

TEST(StackPool, Recycles) {
  stack_pool pool(32 * 1024, 4);
  fiber_stack a = pool.acquire();
  void* base = a.base();
  pool.release(std::move(a));
  EXPECT_EQ(pool.cached(), 1u);
  fiber_stack b = pool.acquire();
  EXPECT_EQ(b.base(), base);  // same stack came back
  EXPECT_EQ(pool.cached(), 0u);
}

TEST(StackPool, CapRespected) {
  stack_pool pool(16 * 1024, 2);
  pool.release(fiber_stack(16 * 1024));
  pool.release(fiber_stack(16 * 1024));
  pool.release(fiber_stack(16 * 1024));  // dropped
  EXPECT_EQ(pool.cached(), 2u);
}

// Four threads cycle stacks through one pool in batches of 1..40, more than
// one magazine, so whole magazines move through the depot and stacks
// migrate between threads. Each holder stamps its id at the stack base and
// checks the stamp on release: a stack handed to two holders at once shows.
TEST(StackPool, ConcurrentAcquireReleaseHoldsEachStackOnce) {
  constexpr int threads = 4;
  constexpr int cycles = 100'000;
  constexpr std::size_t max_cached = 256;  // 32-stack magazines, depot of 6
  std::vector<std::vector<void*>> seen(threads);
  std::atomic<int> doubly_held{0};
  auto pool = std::make_unique<stack_pool>(16 * 1024, max_cached);
  std::vector<std::thread> pool_users;
  for (int t = 0; t < threads; ++t)
    pool_users.emplace_back([&, t] {
      const std::uint64_t me = static_cast<std::uint64_t>(t) + 1;
      std::vector<fiber_stack> held;
      std::uint32_t rng = 12345u * static_cast<std::uint32_t>(me);
      for (int done = 0; done < cycles;) {
        rng = rng * 1664525u + 1013904223u;
        const int batch = 1 + static_cast<int>((rng >> 16) % 40);
        for (int i = 0; i < batch; ++i) {
          held.push_back(pool->acquire());
          auto* stamp = static_cast<std::uint64_t*>(held.back().base());
          stamp[0] = me;
          stamp[1] = static_cast<std::uint64_t>(done + i);
          seen[static_cast<std::size_t>(t)].push_back(held.back().base());
        }
        for (int i = 0; i < batch; ++i) {
          const auto* stamp = static_cast<const std::uint64_t*>(held[i].base());
          if (stamp[0] != me || stamp[1] != static_cast<std::uint64_t>(done + i))
            doubly_held.fetch_add(1);
          pool->release(std::move(held[i]));
        }
        held.clear();
        done += batch;
      }
    });
  for (auto& th : pool_users) th.join();
  EXPECT_EQ(doubly_held.load(), 0);

  // One thread's view is capped at max_cached; each other thread slot adds
  // at most its two 32-stack magazines.
  const std::size_t held = pool->cached();
  EXPECT_GT(held, 0u);
  EXPECT_LE(held, max_cached + (threads - 1) * 2 * 32);

  // The destructor unmaps exactly the stacks the pool holds. (An address
  // dropped past the caps earlier may since hold an unrelated mapping, so
  // count the change across the destructor.)
  std::vector<void*> all;
  for (const auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const auto mapped = [&] {
    std::size_t n = 0;
    for (void* base : all) {
      unsigned char resident = 0;
      if (mincore(static_cast<char*>(base) - page, page, &resident) == 0 || errno != ENOMEM)
        ++n;
    }
    return n;
  };
  const std::size_t mapped_before = mapped();
  pool.reset();
  EXPECT_EQ(mapped_before - mapped(), held) << "of " << all.size() << " stacks";
}

TEST(Fiber, RunsToCompletion) {
  stack_pool pool(64 * 1024);
  int called = 0;
  fiber f(pool.acquire(), [&] { called = 1; });
  EXPECT_FALSE(f.finished());
  void* r = f.resume();
  EXPECT_EQ(r, nullptr);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(called, 1);
  pool.release(f.take_stack());
}

TEST(Fiber, SuspendResumeSequence) {
  stack_pool pool(64 * 1024);
  std::vector<int> log;
  fiber f(pool.acquire(), [&] {
    log.push_back(1);
    fiber::current()->suspend();
    log.push_back(3);
    fiber::current()->suspend();
    log.push_back(5);
  });
  log.push_back(0);
  f.resume();
  log.push_back(2);
  f.resume();
  log.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Fiber, ArgumentPassing) {
  stack_pool pool(64 * 1024);
  void* received = nullptr;
  fiber f(pool.acquire(), [&] {
    // suspend's return value is the argument of the next resume.
    received = fiber::current()->suspend(reinterpret_cast<void*>(0x1111));
  });
  void* from_suspend = f.resume();
  EXPECT_EQ(from_suspend, reinterpret_cast<void*>(0x1111));
  f.resume(reinterpret_cast<void*>(0x2222));
  EXPECT_EQ(received, reinterpret_cast<void*>(0x2222));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksNesting) {
  stack_pool pool(64 * 1024);
  EXPECT_EQ(fiber::current(), nullptr);
  fiber* inner_seen = nullptr;
  fiber* outer_seen = nullptr;
  fiber outer(pool.acquire(), [&] {
    outer_seen = fiber::current();
    fiber inner(fiber_stack(32 * 1024), [&] { inner_seen = fiber::current(); });
    inner.resume();
    EXPECT_EQ(fiber::current(), outer_seen);  // restored after nested fiber
  });
  outer.resume();
  EXPECT_EQ(fiber::current(), nullptr);
  EXPECT_NE(outer_seen, nullptr);
  EXPECT_NE(inner_seen, nullptr);
  EXPECT_NE(inner_seen, outer_seen);
}

TEST(Fiber, ManySequential) {
  stack_pool pool(32 * 1024, 8);
  long sum = 0;
  for (int i = 0; i < 2000; ++i) {
    fiber f(pool.acquire(), [&sum, i] { sum += i; });
    f.resume();
    pool.release(f.take_stack());
  }
  EXPECT_EQ(sum, 1999L * 2000 / 2);
}

TEST(Fiber, DeepStackUse) {
  stack_pool pool(256 * 1024);
  // Recursion that uses a few KB of fiber stack; verifies the usable region
  // is really usable and the guard page is where it should be.
  long result = 0;
  fiber f(pool.acquire(), [&] {
    struct rec {
      static long go(int depth) {
        volatile char pad[512];  // force stack growth
        pad[0] = static_cast<char>(depth);
        if (depth == 0) return pad[0];
        return go(depth - 1) + 1;
      }
    };
    result = rec::go(200);  // ~100 KB would overflow; 200*~0.6KB fits 256K
  });
  f.resume();
  EXPECT_EQ(result, 200);
}

TEST(Fiber, FloatingPointStatePreserved) {
  stack_pool pool(64 * 1024);
  double value = 0.0;
  fiber f(pool.acquire(), [&] {
    double x = 1.5;
    fiber::current()->suspend();
    x *= 2.0;  // executes after another context ran on this thread
    value = x;
  });
  f.resume();
  volatile double noise = 3.14159;
  noise = noise * 2.71828;
  (void)noise;
  f.resume();
  EXPECT_DOUBLE_EQ(value, 3.0);
}

}  // namespace
}  // namespace gran
