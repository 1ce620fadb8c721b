// Tests for the channel-steal scheduling backend: randomized N-worker
// exactly-once execution, termination-detection convergence with zero
// residual requests, steal-one vs steal-half batch correctness, checksum
// equivalence with the other policies, and the racy-shutdown regression for
// in-flight handoffs. The request route is the manager's victim route,
// tested in steal_order_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/executor.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "threads/policy_channel_steal.hpp"
#include "threads/thread_manager.hpp"

namespace gran {
namespace {

scheduler_config test_config(int workers, const std::string& batch = "") {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.policy = "channel-steal";
  cfg.steal_batch = batch;
  cfg.pin_workers = false;  // the CI host is oversubscribed
  return cfg;
}

channel_steal_policy& policy_of(thread_manager& tm) {
  return dynamic_cast<channel_steal_policy&>(tm.policy());
}

// --- exactly-once stress (mirrors chase_lev_test's checksum scheme) -------

struct stress_ctx {
  thread_manager* tm = nullptr;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> xr{0};
  std::atomic<std::uint64_t> count{0};
};

// Recursive range split: the front half stays on the spawning worker, the
// back half is a new task — a steal-heavy tree whose leaves fold every id
// in [0, n) into sum/xor/count checksums exactly once.
void run_range(stress_ctx* c, std::uint64_t lo, std::uint64_t hi) {
  while (hi - lo > 16) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    c->tm->spawn([c, mid, hi] { run_range(c, mid, hi); });
    hi = mid;
  }
  std::uint64_t s = 0, x = 0;
  for (std::uint64_t i = lo; i < hi; ++i) {
    s += i;
    x ^= i;
  }
  c->sum.fetch_add(s, std::memory_order_relaxed);
  c->xr.fetch_xor(x, std::memory_order_relaxed);
  c->count.fetch_add(hi - lo, std::memory_order_relaxed);
}

class ChannelStealStress : public ::testing::TestWithParam<int> {};

TEST_P(ChannelStealStress, ExactlyOnceAcrossWorkers) {
  constexpr std::uint64_t n = 100'000;
  thread_manager tm(test_config(GetParam()));
  stress_ctx ctx;
  ctx.tm = &tm;
  tm.spawn([&ctx] { run_range(&ctx, 0, n); });
  tm.wait_idle();

  std::uint64_t want_sum = 0, want_xor = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    want_sum += i;
    want_xor ^= i;
  }
  EXPECT_EQ(ctx.count.load(), n);
  EXPECT_EQ(ctx.sum.load(), want_sum);
  EXPECT_EQ(ctx.xr.load(), want_xor);
}

INSTANTIATE_TEST_SUITE_P(Workers, ChannelStealStress, ::testing::Values(2, 4, 8));

// --- termination detection -------------------------------------------------

TEST(ChannelSteal, RequestsConvergeToZeroWhenIdle) {
  thread_manager tm(test_config(4));
  stress_ctx ctx;
  ctx.tm = &tm;
  tm.spawn([&ctx] { run_range(&ctx, 0, 20'000); });
  tm.wait_idle();

  // After the work drains, every circulating token completes its circuit,
  // comes back declined, and the thief stops requesting (blocked until the
  // manager observes queued work again) — so the in-flight count must reach
  // zero and stay there, with no polling loop involved.
  channel_steal_policy& pol = policy_of(tm);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pol.requests_in_flight() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(pol.requests_in_flight(), 0u);

  // And the pool is still live: new work un-blocks the thieves.
  std::atomic<int> done{0};
  for (int i = 0; i < 1'000; ++i) tm.spawn([&done] { ++done; });
  tm.wait_idle();
  EXPECT_EQ(done.load(), 1'000);
}

// --- steal-one vs steal-half -----------------------------------------------

TEST(ChannelSteal, RequestHalfDecision) {
  using P = channel_steal_policy;
  using M = P::batch_mode;
  EXPECT_FALSE(P::request_half(M::one, false));
  EXPECT_FALSE(P::request_half(M::one, true));
  EXPECT_TRUE(P::request_half(M::half, false));
  EXPECT_TRUE(P::request_half(M::half, true));
  // Adaptive: escalate to half exactly when the last refill ran dry.
  EXPECT_FALSE(P::request_half(M::adaptive, false));
  EXPECT_TRUE(P::request_half(M::adaptive, true));
}

TEST(ChannelSteal, BatchModeParsing) {
  thread_manager one(test_config(2, "one"));
  EXPECT_EQ(policy_of(one).steal_batch(), channel_steal_policy::batch_mode::one);
  thread_manager half(test_config(2, "half"));
  EXPECT_EQ(policy_of(half).steal_batch(), channel_steal_policy::batch_mode::half);
  thread_manager adaptive(test_config(2));
  EXPECT_EQ(policy_of(adaptive).steal_batch(),
            channel_steal_policy::batch_mode::adaptive);
  EXPECT_THROW(thread_manager bad(test_config(2, "sideways")),
               std::invalid_argument);
}

// One generator worker floods its private deque while the other can only
// refill through requests — the workload that separates the batch modes.
// The deque is deep when the first request arrives by construction, not by
// timing: worker 1 is held in a task (an OS-level spin, so it sends no
// request) until all n tasks are spawned, and the generator returns only
// once worker 1 has sent a request afterwards. Worker 0 serves it from the
// full deque at its next scheduler round.
thread_manager::totals run_generator_workload(const std::string& batch) {
  thread_manager tm(test_config(2, batch));
  tm.reset_counters();
  std::atomic<int> done{0};
  std::atomic<bool> held{false};
  std::atomic<bool> spawned{false};
  constexpr int n = 2'000;
  const auto sent_by_thief = [&tm] {
    return tm.worker(1).counters.read(counter_event::steal_req_sent);
  };
  tm.spawn_on(1, [&] {
    held.store(true);
    while (!spawned.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  tm.spawn_on(0, [&] {
    for (int i = 0; i < n; ++i)
      tm.spawn([&done] {
        // ~2µs of spinning per task, so the deque drains over
        // milliseconds and later requests still find work.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
        ++done;
      });
    const std::uint64_t sent = sent_by_thief();
    spawned.store(true);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (sent_by_thief() == sent && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  tm.wait_idle();
  EXPECT_EQ(done.load(), n);
  return tm.counter_totals();
}

TEST(ChannelSteal, StealOneDeliversAtMostOneTaskPerRequest) {
  const auto totals = run_generator_workload("one");
  // Every request is answered with exactly one task (or declined), so the
  // stolen count can never exceed the request count.
  EXPECT_GT(totals.steal_req_sent, 0u);
  EXPECT_LE(totals.tasks_stolen, totals.steal_req_sent);
}

TEST(ChannelSteal, StealHalfBatchesMultipleTasksPerRequest) {
  const auto totals = run_generator_workload("half");
  // Half of a deep deque per answer: far fewer requests than stolen tasks.
  EXPECT_GT(totals.tasks_stolen, 0u);
  EXPECT_GT(totals.tasks_stolen, totals.steal_req_sent);
}

// --- checksum equivalence with the other policies --------------------------

TEST(ChannelSteal, GraphChecksumsMatchOtherPolicies) {
  graph::kernel_spec k;
  k.grain_ns = 200.0;
  for (const graph::pattern kind : graph::all_patterns) {
    graph::graph_spec g;
    g.kind = kind;
    g.width = 12;
    g.steps = 5;
    g.seed = 42;
    std::uint64_t expected = 0;
    bool first = true;
    for (const char* policy :
         {"priority-local-fifo", "static-fifo", "work-stealing-lifo",
          "channel-steal"}) {
      scheduler_config cfg;
      cfg.num_workers = 4;
      cfg.policy = policy;
      cfg.pin_workers = false;
      thread_manager tm(cfg);
      const graph::run_stats stats = graph::run_graph(tm, g, k);
      if (first) {
        expected = stats.checksum;
        first = false;
      } else {
        EXPECT_EQ(stats.checksum, expected)
            << graph::pattern_name(kind) << " under " << policy;
      }
    }
  }
}

// --- racy shutdown (in-flight handoff regression) --------------------------

// Tasks handed off between structures (channel deliveries, staged-steal
// converts) are momentarily in no queue; queues_empty must still see them
// (thread_manager::handoffs_in_flight), or a racing park/shutdown observes
// an empty pool while work is in flight. Hammer construction, cross-thread
// spawning, yields (requeue traffic) and immediate destruction under every
// policy; nothing may be lost.
TEST(ChannelSteal, RacyShutdownLosesNoTasksUnderAnyPolicy) {
  for (const char* policy :
       {"priority-local-fifo", "static-fifo", "work-stealing-lifo",
        "channel-steal"}) {
    for (int round = 0; round < 10; ++round) {
      scheduler_config cfg;
      cfg.num_workers = 3;
      cfg.policy = policy;
      cfg.pin_workers = false;
      std::atomic<int> done{0};
      constexpr int n = 300;
      {
        thread_manager tm(cfg);
        std::thread external([&tm, &done] {
          for (int i = 0; i < n; ++i)
            tm.spawn([&done] {
              this_task::yield();  // forces a pending re-enqueue handoff
              ++done;
            });
        });
        external.join();
        tm.wait_idle();
        // Destructor races the tail of the drain from here.
      }
      ASSERT_EQ(done.load(), n) << policy << " round " << round;
    }
  }
}

}  // namespace
}  // namespace gran
