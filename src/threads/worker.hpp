// Per-worker state: the dual staged/pending queues of Fig. 1, the software
// performance-counter cells, and idle bookkeeping. One instance per worker
// OS thread, cache-line padded inside the manager's array.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "perf/heartbeat.hpp"
#include "perf/histogram.hpp"
#include "perf/pmu.hpp"
#include "queues/dual_queue.hpp"
#include "topo/pin_plan.hpp"
#include "topo/steal_route.hpp"
#include "util/cacheline.hpp"

namespace gran {

namespace perf {
class trace_ring;
}

class task;

// Adds `delta` to a cell that only the calling thread writes: a plain load
// and a release store, no read-modify-write.
template <typename T>
inline void bump_owned(std::atomic<T>& cell, T delta) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_release);
}

// The events a worker counts; each one indexes one cell of worker_counters.
// The queue-probe events count the probes this worker made, whichever
// worker's queue it probed.
enum class counter_event : std::size_t {
  created,           // tasks spawned from this thread
  retired,           // tasks this worker ran to completion and deleted (nt)
  phases,            // thread phases executed
  exec_ticks,        // Σ t_exec, TSC ticks
  func_ticks,        // worker-loop wall time, TSC ticks
  converted,         // staged -> pending transforms
  pending_accesses,  // pending-queue probes (thread_manager::pending_probe)
  pending_misses,    // pending-queue probes that found nothing
  staged_accesses,
  staged_misses,
  stolen,            // tasks obtained from another worker
  // The subset of `stolen` taken from a victim in another NUMA domain;
  // stolen-local is derived as stolen - stolen_remote.
  stolen_remote,
  // Lazy-splitting actuation (core/split_controller.hpp): ranges this worker
  // split, and split demands denied because the remaining range was below
  // 2×GRAN_SPLIT_MIN.
  splits,
  splits_denied,
  // Channel-steal request traffic (policy_channel_steal.hpp): requests this
  // worker originated, passed on because its deque was empty, and returned
  // to the thief unserved after a full circuit. Every sent request ends as
  // exactly one handoff or one decline. Zero under the other policies.
  steal_req_sent,
  steal_req_forwarded,
  steal_req_declined,
  // PMU-plane attribution (perf/pmu.hpp; zero while GRAN_PMU is off). The
  // *_task cells sum per-phase deltas (kernel work), the *_sched cells the
  // inter-phase gaps.
  pmu_cycles_task,
  pmu_cycles_sched,
  pmu_instructions_task,
  pmu_instructions_sched,
  pmu_llc_misses,
  pmu_branch_misses,
  pmu_stalled_backend,
  pmu_ctx_switches,
  count_
};

// One cell per counted event and one baseline per cell. Only the owning
// worker writes its cells (bump); threads that are not workers share one
// more set, whose only event is `created`, and add to it with
// read-modify-writes. A reading is the cell minus its baseline, the cell's
// value at the last rebase (thread_manager::reset_counters), so a reset
// stores into no cell. Cells only grow: rebase loads the cell and then
// release-stores the baseline, a reader acquire-loads the baseline and then
// loads the cell, and by read-read coherence that load returns at least the
// value the baseline was taken from. A reading never drops below zero.
struct worker_counters {
  static constexpr std::size_t size = static_cast<std::size_t>(counter_event::count_);

  std::atomic<std::uint64_t>& cell(counter_event e) noexcept {
    return cells_[static_cast<std::size_t>(e)];
  }
  const std::atomic<std::uint64_t>& cell(counter_event e) const noexcept {
    return cells_[static_cast<std::size_t>(e)];
  }
  void bump(counter_event e, std::uint64_t delta = 1) noexcept {
    bump_owned(cell(e), delta);
  }
  // Acquire on the cell too: a retirement read here makes the spawn of its
  // task visible to whatever the reader loads next.
  std::uint64_t read(counter_event e) const noexcept {
    const std::size_t i = static_cast<std::size_t>(e);
    const std::uint64_t b = base_[i].load(std::memory_order_acquire);
    return cells_[i].load(std::memory_order_acquire) - b;
  }
  // Makes every reading start over from zero (thread_manager::reset_counters).
  void rebase() noexcept {
    for (std::size_t i = 0; i < size; ++i)
      base_[i].store(cells_[i].load(std::memory_order_relaxed), std::memory_order_release);
  }

 private:
  alignas(cache_line_size) std::array<std::atomic<std::uint64_t>, size> cells_{};
  alignas(cache_line_size) std::array<std::atomic<std::uint64_t>, size> base_{};
};

// Queue-occupancy cells of one worker, on a line of their own, written only
// by the owning worker with bump_owned and summed on demand
// (thread_manager::queued_tasks, handoffs_in_flight). Threads that are not
// workers share one more `queued` cell and update it with
// read-modify-writes. Neither is a counter: reset_counters leaves them.
struct alignas(cache_line_size) queue_cells {
  // Enqueues by this thread minus dequeues by this worker; advisory, and
  // negative in one cell whenever another thread queued what this one ran.
  std::atomic<std::int64_t> queued{0};
  // Tasks this worker holds between two queue structures
  // (thread_manager::note_handoff_begin).
  std::atomic<std::int64_t> handoffs{0};
};

struct worker_data {
  explicit worker_data(std::size_t ring_capacity)
      : queue(ring_capacity), high_queue(ring_capacity) {}

  // Normal-priority dual queue (always used).
  dual_queue<task*, task*> queue;
  // High-priority dual queue; only the first `high_priority_queues` workers
  // own an active one (others leave it empty).
  dual_queue<task*, task*> high_queue;

  worker_counters counters;
  queue_cells cells;

  // Distribution counters (always on; see perf/histogram.hpp):
  //   task-duration — total t_exec of each completed task, ns;
  //   task-overhead — the non-exec gap between consecutive phases on this
  //   worker (scheduling + queue + idle time per slot), ns. Σgaps + Σexec
  //   reconstructs Σt_func, so the histogram decomposes Eq. 3's mean.
  perf::log2_histogram hist_task_duration;
  perf::log2_histogram hist_task_overhead;
  // PMU-plane distributions (only recorded while a reader exists):
  //   task-ipc          — per-phase instructions/cycle as milli-IPC
  //                       (IPC × 1000, so log2 buckets resolve 0.1 steps);
  //   task-llc-miss     — LLC misses per phase;
  //   task-instructions — retired instructions per phase.
  perf::log2_histogram hist_task_ipc;
  perf::log2_histogram hist_task_llc;
  perf::log2_histogram hist_task_instructions;
  // End of the previous phase on this worker (TSC ticks); 0 = none yet.
  // Written by the owning worker, reset externally between measurement
  // regions — relaxed atomic keeps that handoff race-free.
  std::atomic<std::uint64_t> last_phase_end_ticks{0};

  // This worker's hardware-counter reader; created on the worker thread
  // (perf_event_open self-attaches) when the PMU plane is enabled, else
  // null — the disabled hot path is this one branch.
  std::unique_ptr<perf::pmu_reader> pmu;
  // Counter reading at the previous phase end, the base for the scheduler-
  // gap delta at the next phase begin. Validity mirrors the
  // last_phase_end_ticks reset-handoff idiom.
  perf::pmu_sample pmu_last_end;
  std::atomic<bool> pmu_last_valid{false};

  // This worker's trace lane; nullptr whenever tracing was disabled at
  // manager construction (perf/trace.hpp). Not owned.
  perf::trace_ring* trace = nullptr;

  // This worker's heartbeat slot on the process-global board
  // (perf/heartbeat.hpp); nullptr when the worker index exceeds the board's
  // capacity. Not owned. Stamped from the scheduler loop and run_phase.
  perf::heartbeat_slot* heartbeat = nullptr;

  int index = -1;
  // Where this worker runs, from the pin plan: the logical CPU it is pinned
  // to (-1 = unpinned), its dense NUMA/locality domain (the even spread
  // under the numa_domains override), and its dense physical-core id,
  // shared by SMT siblings (-1 = no core identity). The route's tiers key
  // off the domain and the core.
  worker_assignment place;
  bool owns_high_queue = false;

  // The order in which this worker's steal sweeps probe the other workers
  // (topo/steal_route.hpp); read-only once the workers run.
  steal_route route;
  // Steal sweeps this worker has begun; the count rotates a hier route.
  // Only the owning worker touches it, so it is a plain integer on a line
  // of its own.
  alignas(cache_line_size) std::uint32_t sweeps = 0;
};

}  // namespace gran
