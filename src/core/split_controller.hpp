// Closed-loop split controller — decides, from live runtime signals, when a
// running coarse task should give away the back half of its range
// (algo/splittable.hpp). This is the paper's idle-rate threshold (§IV-A,
// ~30%) turned from a measurement into an actuator: instead of the operator
// reading the counter and re-running with a different grain, the controller
// reads it online and splits work mid-run.
//
// Two signals, fused:
//   * instantaneous hunger — the number of workers currently starving
//     (thread_manager::starving_workers(), maintained edge-triggered off the
//     same had_work transition that emits the pending_miss trace event).
//     This is the fast path: a parked or probing-and-missing worker means
//     someone can use the back half of *this* task right now.
//   * latched pressure — a hysteresis gate over the measurement-interval
//     idle-rate (Eq. 1) fused with the pending-queue miss rate: the gate
//     opens above `high_water` (0.30) and only closes again below
//     `low_water` (0.05), so a workload that hovers around the threshold
//     does not flap between splitting and coasting.
//
// should_split() is the hot-path query (one relaxed load each of the gate
// and the hunger count); observe()/maybe_observe() feed the gate at a
// sampled cadence. All methods are thread-safe: many tasks poll one shared
// controller.
//
// split_options defaults to the GRAN_SPLIT* knobs (README "Configuration").
// A range below 2× min_chunk is never split — the demand is counted as
// /threads/count/split-denied. See docs/ADAPTIVE.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "threads/thread_manager.hpp"
#include "util/config.hpp"

namespace gran::core {

enum class split_verdict {
  no_demand,  // nobody is hungry and the pressure gate is closed
  split,      // give away the back half now
  denied,     // demand exists but the remaining range is below 2×min_chunk
};

struct split_options {
  bool enabled = config::boolean(config::split);  // false turns the controller off
  // smallest child a split may produce
  std::size_t min_chunk = static_cast<std::size_t>(config::integer(config::split_min));
  double high_water = 0.30;   // pressure gate opens (paper §IV-A threshold)
  double low_water = 0.05;    // ... and latches until pressure falls below this
  // Base items between demand polls (the stride doubles while nobody is hungry)
  std::size_t poll_iters = static_cast<std::size_t>(config::integer(config::split_poll));
  // Polls between idle-rate/miss-rate re-observations (counter_totals walks
  // every worker, so the gate is fed at a decimated cadence). 0 = never
  // observe; only instantaneous hunger drives splits.
  std::size_t observe_every = 256;
};

class split_controller {
 public:
  explicit split_controller(split_options opts = {})
      : opts_(opts) {
    if (opts_.min_chunk == 0) opts_.min_chunk = 1;
  }

  split_controller(const split_controller&) = delete;
  split_controller& operator=(const split_controller&) = delete;

  const split_options& options() const noexcept { return opts_; }
  std::size_t min_chunk() const noexcept { return opts_.min_chunk; }
  std::size_t poll_iters() const noexcept {
    return std::max<std::size_t>(1, opts_.poll_iters);
  }

  // Hot-path query: should a task with `remaining` items left split now,
  // given `starving` workers currently finding no work and `queued` tasks
  // already sitting unclaimed in queues? Existing supply counts against the
  // demand twice over: queued tasks will feed starving workers without any
  // split (a parked worker is "starving" for its whole OS wake-up latency
  // even when its own queue holds work), and splits already offered but not
  // yet claimed (note_split/note_claim) are queued work in flight. Splitting
  // past supply shreds the range for consumers that were never short of
  // work.
  split_verdict should_split(std::size_t remaining, int starving,
                             std::int64_t queued) noexcept {
    if (!opts_.enabled) return split_verdict::no_demand;
    const std::int64_t supply =
        std::max<std::int64_t>(queued, offers_.load(std::memory_order_relaxed));
    const bool demand = starving > supply ||
                        (supply == 0 && gate_.load(std::memory_order_relaxed));
    if (!demand) return split_verdict::no_demand;
    if (remaining < 2 * opts_.min_chunk) return split_verdict::denied;
    return split_verdict::split;
  }

  // A splitter calls note_split() when it gives away its back half; the
  // child calls note_claim() as its first action. In between, the offer
  // satisfies one unit of demand.
  void note_split() noexcept { offers_.fetch_add(1, std::memory_order_relaxed); }
  void note_claim() noexcept { offers_.fetch_sub(1, std::memory_order_relaxed); }
  std::int64_t outstanding_offers() const noexcept {
    return offers_.load(std::memory_order_relaxed);
  }

  // Feeds one observation interval into the hysteresis gate. Pure (no
  // runtime dependency): tests drive it with synthetic idle-rate traces.
  // `pressure` is the max of the interval's idle-rate and its pending-queue
  // miss rate — but idle time only counts when the interval also saw at
  // least one pending-queue miss. Idle without misses means workers were off
  // the CPU (oversubscription, OS preemption), not spinning on empty
  // queues; splitting cannot help that and would shred the range down to
  // min_chunk.
  void observe(double idle_rate, std::uint64_t pending_misses,
               std::uint64_t pending_accesses) noexcept {
    const double miss_rate =
        pending_accesses > 0
            ? static_cast<double>(pending_misses) / static_cast<double>(pending_accesses)
            : 0.0;
    const double pressure =
        pending_misses > 0 ? std::max(idle_rate, miss_rate) : 0.0;
    const bool open = gate_.load(std::memory_order_relaxed);
    if (!open && pressure > opts_.high_water) {
      gate_.store(true, std::memory_order_relaxed);
      opens_.fetch_add(1, std::memory_order_relaxed);
    } else if (open && pressure < opts_.low_water) {
      gate_.store(false, std::memory_order_relaxed);
      closes_.fetch_add(1, std::memory_order_relaxed);
    }
    observations_.fetch_add(1, std::memory_order_relaxed);
  }

  // Sampled live observation: every `observe_every` polls, one caller (the
  // others skip past a held try-lock) snapshots the manager's counters and
  // feeds the delta since the previous snapshot into observe().
  void maybe_observe(thread_manager& tm) noexcept {
    if (opts_.observe_every == 0 || !opts_.enabled) return;
    if (polls_.fetch_add(1, std::memory_order_relaxed) % opts_.observe_every != 0)
      return;
    if (observe_busy_.exchange(true, std::memory_order_acquire)) return;
    const thread_manager::totals now = tm.counter_totals();
    if (have_baseline_) {
      const double func = static_cast<double>(now.func_ns - last_.func_ns);
      const double exec = static_cast<double>(now.exec_ns - last_.exec_ns);
      const double idle = func > 0.0 ? std::max(0.0, func - exec) / func : 0.0;
      observe(idle, now.queues.pending_misses - last_.queues.pending_misses,
              now.queues.pending_accesses - last_.queues.pending_accesses);
    }
    last_ = now;
    have_baseline_ = true;
    observe_busy_.store(false, std::memory_order_release);
  }

  // Introspection (tests, reports).
  bool gate_open() const noexcept { return gate_.load(std::memory_order_relaxed); }
  std::uint64_t observations() const noexcept {
    return observations_.load(std::memory_order_relaxed);
  }
  std::uint64_t gate_opens() const noexcept {
    return opens_.load(std::memory_order_relaxed);
  }
  std::uint64_t gate_closes() const noexcept {
    return closes_.load(std::memory_order_relaxed);
  }

 private:
  split_options opts_;
  std::atomic<bool> gate_{false};
  std::atomic<std::int64_t> offers_{0};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> observations_{0};
  std::atomic<std::uint64_t> opens_{0};
  std::atomic<std::uint64_t> closes_{0};
  // Snapshot state, guarded by the observe_busy_ try-lock.
  std::atomic<bool> observe_busy_{false};
  thread_manager::totals last_{};
  bool have_baseline_ = false;
};

}  // namespace gran::core
