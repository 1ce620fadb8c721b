// Tests for lazy task splitting (algo/splittable.hpp), the closed-loop split
// controller (core/split_controller.hpp), and the simulator mirror
// (sim/split_sim.hpp): exactly-once execution under randomized concurrent
// splits, controller gate/supply semantics on synthetic traces, and
// native-vs-sim checksum agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "algo/splittable.hpp"
#include "core/split_controller.hpp"
#include "sim/machine_model.hpp"
#include "sim/split_sim.hpp"
#include "threads/thread_manager.hpp"
#include "util/rng.hpp"

namespace gran {
namespace {

scheduler_config workers_cfg(int n) {
  scheduler_config cfg;
  cfg.num_workers = n;
  cfg.pin_workers = false;
  return cfg;
}

// Forces the pressure gate open so gate-only demand (supply == 0) keeps
// splitting the range down to min_chunk regardless of live worker state —
// the harshest split schedule the controller can produce.
void force_gate_open(core::split_controller& ctl) {
  ctl.observe(/*idle_rate=*/0.9, /*pending_misses=*/10, /*pending_accesses=*/10);
  ASSERT_TRUE(ctl.gate_open());
}

TEST(SplitExactlyOnce, RandomizedConcurrentSplits) {
  const std::uint64_t seed = fuzz_seed(0x5eed5p11);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t t = mix64(seed + static_cast<std::uint64_t>(trial));
    const int workers = 2 + static_cast<int>(t % 7);           // 2..8
    const std::size_t items = 20'000 + (mix64(t) % 30'000);    // 20k..50k
    thread_manager tm(workers_cfg(workers));

    core::split_options opts;
    opts.min_chunk = 16;
    opts.poll_iters = 8;  // aggressive polling: maximize split interleavings
    core::split_controller ctl(opts);
    force_gate_open(ctl);

    std::vector<std::atomic<std::uint8_t>> hits(items);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);

    algo::splittable_for(tm, ctl, 0, items, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      // Occasional extra work shakes up which task a thief sees running.
      if (mix64_combine(t, i) % 64 == 0) {
        volatile int spin = 0;
        while (spin < 100) spin = spin + 1;
      }
    });

    std::size_t misses = 0, dups = 0;
    for (auto& h : hits) {
      const auto n = h.load(std::memory_order_relaxed);
      misses += n == 0;
      dups += n > 1;
    }
    EXPECT_EQ(misses, 0u) << "seed=" << seed << " trial=" << trial;
    EXPECT_EQ(dups, 0u) << "seed=" << seed << " trial=" << trial;
    EXPECT_GT(tm.counter_totals().tasks_split, 0u)
        << "gate-open run produced no splits; the stress exercised nothing";
  }
}

TEST(SplitController, GateConvergesOnSyntheticIdleTrace) {
  core::split_controller ctl({.enabled = true});
  // Warm phase: busy intervals, no pressure.
  for (int i = 0; i < 5; ++i) ctl.observe(0.02, 0, 100);
  EXPECT_FALSE(ctl.gate_open());
  // Starvation phase: idle climbs past high_water with real queue misses.
  ctl.observe(0.20, 5, 100);
  EXPECT_FALSE(ctl.gate_open());  // still below high_water
  ctl.observe(0.45, 5, 100);
  EXPECT_TRUE(ctl.gate_open());
  EXPECT_EQ(ctl.gate_opens(), 1u);
  // Hysteresis: pressure between the watermarks keeps the gate latched.
  ctl.observe(0.15, 5, 100);
  EXPECT_TRUE(ctl.gate_open());
  // Recovery: pressure below low_water closes it.
  ctl.observe(0.01, 1, 1000);
  EXPECT_FALSE(ctl.gate_open());
  EXPECT_EQ(ctl.gate_closes(), 1u);
}

TEST(SplitController, IdleWithoutMissesIsNotPressure) {
  // Oversubscription guard: high idle-rate with zero pending-queue misses
  // means workers were preempted off the CPU, not starving for tasks —
  // splitting cannot help, the gate must stay shut.
  core::split_controller ctl({.enabled = true});
  for (int i = 0; i < 10; ++i) ctl.observe(0.95, 0, 100);
  EXPECT_FALSE(ctl.gate_open());
  // The same idle-rate with even one miss counts.
  ctl.observe(0.95, 1, 100);
  EXPECT_TRUE(ctl.gate_open());
}

TEST(SplitController, SupplyMatchesDemand) {
  core::split_options opts;
  opts.min_chunk = 8;
  core::split_controller ctl(opts);

  // One starving worker, nothing queued, nothing offered: split.
  EXPECT_EQ(ctl.should_split(1000, 1, 0), core::split_verdict::split);
  // Queued work already covers the demand: no split.
  EXPECT_EQ(ctl.should_split(1000, 1, 1), core::split_verdict::no_demand);
  // An outstanding (unclaimed) offer covers it too.
  ctl.note_split();
  EXPECT_EQ(ctl.should_split(1000, 1, 0), core::split_verdict::no_demand);
  ctl.note_claim();
  EXPECT_EQ(ctl.should_split(1000, 1, 0), core::split_verdict::split);
  // Demand present but the range is too small to split: denied.
  EXPECT_EQ(ctl.should_split(15, 1, 0), core::split_verdict::denied);
  EXPECT_EQ(ctl.should_split(16, 1, 0), core::split_verdict::split);

  // Gate-only demand requires zero supply.
  core::split_controller gated(opts);
  gated.observe(0.9, 10, 10);
  EXPECT_EQ(gated.should_split(1000, 0, 0), core::split_verdict::split);
  EXPECT_EQ(gated.should_split(1000, 0, 2), core::split_verdict::no_demand);

  // Disabled controller never splits.
  core::split_controller off({.enabled = false});
  EXPECT_EQ(off.should_split(1000, 4, 0), core::split_verdict::no_demand);
}

TEST(SplitChecksum, SplitAndUnsplitRunsAgree) {
  const std::uint64_t seed = 42;
  const std::size_t items = 30'000;
  thread_manager tm(workers_cfg(2));

  const auto run = [&](core::split_controller& ctl) {
    std::atomic<std::uint64_t> sum{0};
    algo::splittable_for(tm, ctl, 0, items, [&](std::size_t i) {
      sum.fetch_add(sim::split_item_hash(seed, i), std::memory_order_relaxed);
    });
    return sum.load(std::memory_order_relaxed);
  };

  core::split_options opts;
  opts.min_chunk = 32;
  core::split_controller splitting(opts);
  force_gate_open(splitting);
  const auto before = tm.counter_totals().tasks_split;
  const std::uint64_t split_sum = run(splitting);
  EXPECT_GT(tm.counter_totals().tasks_split, before);

  core::split_controller off({.enabled = false});
  const std::uint64_t unsplit_sum = run(off);

  std::uint64_t serial = 0;
  for (std::size_t i = 0; i < items; ++i) serial += sim::split_item_hash(seed, i);

  EXPECT_EQ(split_sum, serial);
  EXPECT_EQ(unsplit_sum, serial);
}

TEST(SplitChecksum, NativeAndSimulatedRunsAgree) {
  const std::uint64_t seed = 7;
  const std::size_t items = 30'000;

  sim::split_sim_config cfg;
  cfg.model = sim::make_machine_model("haswell");
  cfg.cores = 4;
  cfg.seed = seed;
  cfg.items = items;
  cfg.imbalance = 0.5;
  cfg.lazy = true;
  cfg.min_chunk = 64;
  cfg.hash_items = true;
  const auto sim_result = sim::run_split_sim(cfg);
  EXPECT_EQ(sim_result.items_executed, items);
  EXPECT_GT(sim_result.splits, 0u);

  thread_manager tm(workers_cfg(2));
  core::split_options opts;
  opts.min_chunk = 64;
  core::split_controller ctl(opts);
  force_gate_open(ctl);
  std::atomic<std::uint64_t> native_sum{0};
  algo::splittable_for(tm, ctl, 0, items, [&](std::size_t i) {
    native_sum.fetch_add(sim::split_item_hash(seed, i), std::memory_order_relaxed);
  });

  EXPECT_EQ(native_sum.load(), sim_result.checksum);
}

TEST(SplitSim, FixedAndLazyConserveItems) {
  sim::split_sim_config cfg;
  cfg.model = sim::make_machine_model("haswell");
  cfg.cores = 4;
  cfg.items = 100'000;
  cfg.imbalance = 0.5;
  cfg.lazy = false;
  cfg.chunk = 1000;
  const auto fixed = sim::run_split_sim(cfg);
  EXPECT_EQ(fixed.items_executed, cfg.items);
  EXPECT_EQ(fixed.tasks, 100u);
  EXPECT_EQ(fixed.splits, 0u);

  cfg.lazy = true;
  cfg.chunk = 0;
  const auto lazy = sim::run_split_sim(cfg);
  EXPECT_EQ(lazy.items_executed, cfg.items);
  // Every split turns one task into two.
  EXPECT_EQ(lazy.tasks, static_cast<std::uint64_t>(cfg.cores) + lazy.splits);
}

}  // namespace
}  // namespace gran
