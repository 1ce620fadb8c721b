// Unit + stress tests for src/queues: SPSC ring, Vyukov MPMC, unbounded
// concurrent FIFO with overflow, and the dual queue.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "queues/concurrent_fifo.hpp"
#include "queues/dual_queue.hpp"
#include "queues/mpmc_bounded.hpp"
#include "queues/spsc_ring.hpp"

namespace gran {
namespace {

// --- spsc_ring ---------------------------------------------------------------

TEST(SpscRing, PushPopOrder) {
  spsc_ring<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, FullRejects) {
  spsc_ring<int> ring(4);
  std::size_t pushed = 0;
  while (ring.push(1)) ++pushed;
  EXPECT_GE(pushed, 4u);  // capacity is rounded up
  EXPECT_FALSE(ring.push(2));
  ring.pop();
  EXPECT_TRUE(ring.push(2));
}

TEST(SpscRing, WrapAround) {
  spsc_ring<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.push(round));
    auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, TwoThreadStress) {
  spsc_ring<int> ring(64);
  constexpr int n = 100'000;
  long long consumer_sum = 0;
  std::thread consumer([&] {
    int received = 0;
    while (received < n) {
      if (auto v = ring.pop()) {
        consumer_sum += *v;
        ++received;
      }
    }
  });
  for (int i = 0; i < n; ++i)
    while (!ring.push(i)) {
    }
  consumer.join();
  EXPECT_EQ(consumer_sum, static_cast<long long>(n - 1) * n / 2);
}

// Regression (ISSUE 9): push used to require T default-constructible and
// copy-assignable (std::vector<T> slots), and the natural retry loop
// `while (!ring.push(std::move(v)))` double-moved the payload on a full
// ring. Move-only payloads now work and a failed push does not consume the
// argument.
TEST(SpscRing, MoveOnlyPayloadSurvivesFullRingRetry) {
  spsc_ring<std::unique_ptr<int>> ring(2);
  std::size_t pushed = 0;
  while (ring.push(std::make_unique<int>(static_cast<int>(pushed)))) ++pushed;

  auto extra = std::make_unique<int>(777);
  EXPECT_FALSE(ring.push(std::move(extra)));
  ASSERT_NE(extra, nullptr);  // NOT consumed by the failed push
  EXPECT_EQ(*extra, 777);
  EXPECT_FALSE(ring.push(std::move(extra)));  // retry: still intact
  ASSERT_NE(extra, nullptr);

  auto v = ring.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 0);
  EXPECT_TRUE(ring.push(std::move(extra)));  // room now; this one consumes
  EXPECT_EQ(extra, nullptr);

  for (std::size_t i = 1; i < pushed; ++i) {
    auto p = ring.pop();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(**p, static_cast<int>(i));
  }
  auto last = ring.pop();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(**last, 777);
}

// Storage is uninitialized + placement-new, so T needs no default
// constructor (the old std::vector<T> slots required one).
TEST(SpscRing, NonDefaultConstructiblePayload) {
  struct payload {
    explicit payload(int x) : value(x) {}
    int value;
  };
  spsc_ring<payload> ring(4);
  EXPECT_TRUE(ring.push(payload{41}));
  EXPECT_TRUE(ring.push(payload{42}));
  auto a = ring.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value, 41);
  auto b = ring.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->value, 42);
}

// Regression (ISSUE 9): the destructor used to destroy unconsumed elements
// without running any drain, leaking owning payloads at shutdown. Elements
// still queued must have their destructors run — observable here via a
// counting RAII type, and ASan-visible via the unique_ptr variant below.
TEST(SpscRing, DestructorDrainsUnconsumedElements) {
  static std::atomic<int> live{0};
  struct tracked {
    tracked() { live.fetch_add(1, std::memory_order_relaxed); }
    tracked(const tracked&) { live.fetch_add(1, std::memory_order_relaxed); }
    tracked(tracked&&) noexcept { live.fetch_add(1, std::memory_order_relaxed); }
    ~tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
  };
  live.store(0);
  {
    spsc_ring<tracked> ring(16);
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.push(tracked{}));
    (void)ring.pop();
    (void)ring.pop();
    EXPECT_EQ(live.load(), 8);  // 8 still queued, temporaries destroyed
  }
  EXPECT_EQ(live.load(), 0);  // destructor drained the rest
}

TEST(SpscRing, DestructorDrainReleasesOwningPointers) {
  // Under ASan, a leak here (the pre-fix behavior) fails the test run.
  spsc_ring<std::unique_ptr<std::vector<int>>> ring(8);
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(ring.push(std::make_unique<std::vector<int>>(1000, i)));
  // Destroy with all five still queued.
}

// --- mpmc_bounded --------------------------------------------------------------

TEST(MpmcBounded, FifoOrderSingleThread) {
  mpmc_bounded<int> q(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(MpmcBounded, CapacityRounding) {
  mpmc_bounded<int> q(10);
  EXPECT_EQ(q.capacity(), 16u);
  mpmc_bounded<int> q2(16);
  EXPECT_EQ(q2.capacity(), 16u);
}

TEST(MpmcBounded, FullAndEmpty) {
  mpmc_bounded<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_FALSE(q.push(99));
  EXPECT_EQ(q.size_approx(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty_approx());
}

struct stress_params {
  int producers;
  int consumers;
};

class MpmcStress : public ::testing::TestWithParam<stress_params> {};

TEST_P(MpmcStress, SumPreserved) {
  const auto [producers, consumers] = GetParam();
  mpmc_bounded<int> q(256);
  constexpr int per_producer = 20'000;
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  const int total = producers * per_producer;

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p)
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        const int value = p * per_producer + i;
        while (!q.push(value)) std::this_thread::yield();
      }
    });
  for (int c = 0; c < consumers; ++c)
    threads.emplace_back([&] {
      while (consumed_count.load(std::memory_order_acquire) < total) {
        if (auto v = q.pop()) {
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed_count.load(), total);
  EXPECT_EQ(consumed_sum.load(), static_cast<long long>(total - 1) * total / 2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MpmcStress,
                         ::testing::Values(stress_params{1, 1}, stress_params{2, 2},
                                           stress_params{4, 1}, stress_params{1, 4}));

// --- concurrent_fifo ------------------------------------------------------------

TEST(ConcurrentFifo, UnboundedBeyondRing) {
  concurrent_fifo<int> q(4);  // tiny ring forces overflow
  for (int i = 0; i < 1000; ++i) q.push(i);
  EXPECT_EQ(q.size_approx(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i) << "FIFO order must survive overflow migration";
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ConcurrentFifo, InterleavedOverflow) {
  concurrent_fifo<int> q(4);
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 7; ++i) q.push(next_push++);
    for (int i = 0; i < 5; ++i) {
      auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
  }
  while (auto v = q.pop()) EXPECT_EQ(*v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(ConcurrentFifo, MultiThreadedSum) {
  concurrent_fifo<int> q(64);
  constexpr int n = 50'000;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::thread producer([&] {
    for (int i = 0; i < n; ++i) q.push(i);
  });
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c)
    consumers.emplace_back([&] {
      while (count.load(std::memory_order_acquire) < n) {
        if (auto v = q.pop()) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          count.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), static_cast<long long>(n - 1) * n / 2);
}


TEST(MpmcBounded, SequenceWrapsManyGenerations) {
  // Cycle far beyond the capacity so slot sequence numbers wrap through
  // multiple generations.
  mpmc_bounded<int> q(4);
  for (int gen = 0; gen < 10'000; ++gen) {
    ASSERT_TRUE(q.push(gen));
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, gen);
  }
}

TEST(ConcurrentFifo, PushAfterDrainReturnsToLockFreePath) {
  concurrent_fifo<int> q(4);
  for (int i = 0; i < 100; ++i) q.push(i);   // spills
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.pop().has_value());
  // Fully drained: pushes fit the ring again and order is preserved.
  for (int i = 0; i < 3; ++i) q.push(i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(q.pop().value(), i);
}

// --- dual_queue -------------------------------------------------------------------

TEST(DualQueue, EmptyApprox) {
  dual_queue<int*, int*> q(16);
  int a = 1;
  q.push_staged(&a);
  EXPECT_EQ(q.staged_size_approx(), 1u);
  EXPECT_EQ(q.pending_size_approx(), 0u);
}

}  // namespace
}  // namespace gran
