// Per-worker state: the dual staged/pending queues of Fig. 1, the software
// performance-counter cells, and idle bookkeeping. One instance per worker
// OS thread, cache-line padded inside the manager's array.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "perf/heartbeat.hpp"
#include "perf/histogram.hpp"
#include "perf/pmu.hpp"
#include "queues/dual_queue.hpp"
#include "util/cacheline.hpp"

namespace gran {

namespace perf {
class trace_ring;
}

class task;

// Counter cells written by the owning worker with relaxed atomics and read
// by anyone (perf-counter queries, other workers' heuristics).
struct worker_counters {
  std::atomic<std::uint64_t> tasks_executed{0};    // nt contribution
  std::atomic<std::uint64_t> phases_executed{0};
  std::atomic<std::uint64_t> exec_ticks{0};        // Σ t_exec (TSC ticks)
  std::atomic<std::uint64_t> func_ticks{0};        // worker-loop wall ticks
  std::atomic<std::uint64_t> tasks_stolen{0};      // obtained from another worker
  // Subset of tasks_stolen taken from a victim in a *different* NUMA/locality
  // domain; stolen-local is derived as (stolen - stolen_remote), so
  // stolen-local + stolen-remote == stolen holds by construction.
  std::atomic<std::uint64_t> tasks_stolen_remote{0};
  std::atomic<std::uint64_t> tasks_converted{0};   // staged -> pending transforms
  // Tasks this worker spawned (spawn/spawn_on called from its thread); spawns
  // from non-worker threads are counted by the manager's external cell. The
  // sum backs /threads/count/spawned and cross-checks the trace's
  // task_enqueue event count.
  std::atomic<std::uint64_t> tasks_spawned{0};
  // Queue-probe counts for policies that bypass the instrumented dual_queue
  // (work-stealing-lifo keeps its own deques); zero otherwise.
  std::atomic<std::uint64_t> extra_pending_accesses{0};
  std::atomic<std::uint64_t> extra_pending_misses{0};
  // Lazy-splitting actuation (core/split_controller.hpp): ranges this worker
  // split (back half re-enqueued as a new task), and split demands denied
  // because the remaining range was below 2×GRAN_SPLIT_MIN.
  std::atomic<std::uint64_t> tasks_split{0};
  std::atomic<std::uint64_t> splits_denied{0};
  // Channel-steal request traffic (policy_channel_steal.hpp): requests this
  // worker originated, requests it passed on because its deque was empty,
  // and requests it returned to the thief unserved after a full circuit.
  // sent >= forwarded-circuits, and every sent request ends as exactly one
  // handoff or one decline — the convergence invariant the termination test
  // checks. Zero under the other policies.
  std::atomic<std::uint64_t> steal_req_sent{0};
  std::atomic<std::uint64_t> steal_req_forwarded{0};
  std::atomic<std::uint64_t> steal_req_declined{0};
  // PMU-plane attribution (perf/pmu.hpp; zero while GRAN_PMU is off). The
  // *_task cells sum per-phase deltas (kernel work), the *_sched cells sum
  // the inter-phase gaps — the hardware-unit mirror of exec_ticks vs the
  // task-overhead histogram.
  std::atomic<std::uint64_t> pmu_cycles_task{0};
  std::atomic<std::uint64_t> pmu_cycles_sched{0};
  std::atomic<std::uint64_t> pmu_instructions_task{0};
  std::atomic<std::uint64_t> pmu_instructions_sched{0};
  std::atomic<std::uint64_t> pmu_llc_misses{0};
  std::atomic<std::uint64_t> pmu_branch_misses{0};
  std::atomic<std::uint64_t> pmu_stalled_backend{0};
  std::atomic<std::uint64_t> pmu_ctx_switches{0};

  void reset() {
    tasks_executed.store(0, std::memory_order_relaxed);
    phases_executed.store(0, std::memory_order_relaxed);
    exec_ticks.store(0, std::memory_order_relaxed);
    func_ticks.store(0, std::memory_order_relaxed);
    tasks_stolen.store(0, std::memory_order_relaxed);
    tasks_stolen_remote.store(0, std::memory_order_relaxed);
    tasks_converted.store(0, std::memory_order_relaxed);
    tasks_spawned.store(0, std::memory_order_relaxed);
    extra_pending_accesses.store(0, std::memory_order_relaxed);
    extra_pending_misses.store(0, std::memory_order_relaxed);
    tasks_split.store(0, std::memory_order_relaxed);
    splits_denied.store(0, std::memory_order_relaxed);
    steal_req_sent.store(0, std::memory_order_relaxed);
    steal_req_forwarded.store(0, std::memory_order_relaxed);
    steal_req_declined.store(0, std::memory_order_relaxed);
    pmu_cycles_task.store(0, std::memory_order_relaxed);
    pmu_cycles_sched.store(0, std::memory_order_relaxed);
    pmu_instructions_task.store(0, std::memory_order_relaxed);
    pmu_instructions_sched.store(0, std::memory_order_relaxed);
    pmu_llc_misses.store(0, std::memory_order_relaxed);
    pmu_branch_misses.store(0, std::memory_order_relaxed);
    pmu_stalled_backend.store(0, std::memory_order_relaxed);
    pmu_ctx_switches.store(0, std::memory_order_relaxed);
  }
};

// Task-lifecycle cells of one worker, on a line of their own. Only the
// owning worker writes them, with a plain load and a release store
// (bump_owned); readers sum every worker's cells on demand
// (thread_manager::tasks_alive, queued_tasks, handoffs_in_flight). Threads
// that are not workers share one more set and update it with
// read-modify-writes. DESIGN.md decision 12 gives the read order that keeps
// the liveness sum exact.
struct alignas(cache_line_size) lifecycle_cells {
  std::atomic<std::uint64_t> created{0};  // tasks spawned from this thread
  std::atomic<std::uint64_t> retired{0};  // tasks deleted by this worker
  // Enqueues by this thread minus dequeues by this worker; advisory, and
  // negative in one cell whenever another thread queued what this one ran.
  std::atomic<std::int64_t> queued{0};
  // Tasks this worker holds between two queue structures
  // (thread_manager::note_handoff_begin).
  std::atomic<std::int64_t> handoffs{0};
};

// Adds `delta` to a cell that only the calling thread writes.
template <typename T>
inline void bump_owned(std::atomic<T>& cell, T delta) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_release);
}

struct worker_data {
  explicit worker_data(std::size_t ring_capacity)
      : queue(ring_capacity), high_queue(ring_capacity) {}

  // Normal-priority dual queue (always used).
  dual_queue<task*, task*> queue;
  // High-priority dual queue; only the first `high_priority_queues` workers
  // own an active one (others leave it empty).
  dual_queue<task*, task*> high_queue;

  worker_counters counters;
  lifecycle_cells cells;

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
  // Dense NUMA/locality domain from the pin plan (or the even spread when
  // unpinned); the policies' same-domain steal tier keys off this.
  int numa_node = 0;
  // Dense physical-core id from the pin plan; workers sharing it are SMT
  // siblings. -1 when the worker is unpinned (no core identity).
  int core = -1;
  // Logical CPU this worker is pinned to; -1 = unpinned.
  int cpu = -1;
  bool owns_high_queue = false;
};

}  // namespace gran
