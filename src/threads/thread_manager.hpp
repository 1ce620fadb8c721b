// The thread manager: a pool of worker OS threads (one per core by default,
// pinned) cooperatively scheduling lightweight tasks — the M:N hybrid
// threading model of paper §I-B.
//
// Responsibilities:
//   * owns the per-worker dual queues and the global low-priority queue;
//   * drives the scheduling policy's search loop on every worker;
//   * accounts Σt_exec / Σt_func / task & phase counts per worker and
//     registers them as named performance counters (perf/counters.hpp);
//   * implements the suspend/wake handshake used by futures and
//     synchronization primitives.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fiber/stack.hpp"
#include "perf/counters.hpp"
#include "queues/dual_queue.hpp"
#include "threads/config.hpp"
#include "threads/policy.hpp"
#include "threads/task.hpp"
#include "threads/worker.hpp"
#include "topo/pin_plan.hpp"
#include "util/cacheline.hpp"

namespace gran {

class thread_manager {
 public:
  // Builds the pool and starts the workers immediately. Throws
  // std::invalid_argument on an unknown policy or steal order.
  explicit thread_manager(scheduler_config cfg = {});

  // Drains all remaining work, then stops and joins the workers.
  ~thread_manager();

  thread_manager(const thread_manager&) = delete;
  thread_manager& operator=(const thread_manager&) = delete;

  // --- task creation ----------------------------------------------------

  // Schedules `body` as a new task; returns its id. The task is created as
  // a staged description (no stack) and converted on first schedule.
  std::uint64_t spawn(task::body_fn body,
                      task_priority priority = task_priority::normal,
                      const char* description = "<task>");

  // spawn with a placement hint: prefer queuing on worker `worker_hint`
  // (e.g. the worker whose NUMA domain owns the task's data — see
  // home_worker_for_block). A hint, not a binding: any worker may still
  // steal the task. Out-of-range hints fall back to plain spawn.
  std::uint64_t spawn_on(int worker_hint, task::body_fn body,
                         task_priority priority = task_priority::normal,
                         const char* description = "<task>");

  // --- used by synchronization primitives --------------------------------

  // Manager whose worker is executing the calling code (nullptr outside any
  // worker of any manager).
  static thread_manager* current() noexcept;
  // Task executing on the calling OS thread (nullptr outside tasks).
  static task* current_task() noexcept;
  // Worker index on the calling OS thread (-1 outside workers).
  static int current_worker() noexcept;

  // Wakes a suspended/suspending task (see task::wake) and re-queues it if
  // the caller won the transition. Safe from any thread. A wake of a task
  // blocked in a library primitive (mutex, latch, future, channel, ...) by
  // anyone but that primitive is a stray wake: the task drops its stale
  // waiter entry, re-checks and blocks again (block_until, sync/wait_queue.hpp),
  // so it costs one re-check and can neither release the waiter early nor
  // queue it twice; condition_variable::wait returns, as its spurious-wake
  // contract allows; this_task::sleep_for sleeps again until its deadline.
  // The caller must guarantee the task object is still alive (a terminated
  // task is deleted by the runtime).
  void wake(task* t);

  // Re-queues a pending task (used internally and by tests).
  void schedule_ready(task* t);

  // Attaches a context to a staged task (stack from this manager's pool).
  // Only this manager's workers convert, inside get_next.
  void convert(task* t);

  // --- lifecycle ----------------------------------------------------------

  // Blocks the calling (non-worker) thread until no task is alive.
  void wait_idle();

  // Signals shutdown; workers exit once all work has drained. Idempotent;
  // called by the destructor.
  void stop();

  // --- introspection -----------------------------------------------------

  int num_workers() const noexcept { return static_cast<int>(workers_.size()); }
  const scheduler_config& config() const noexcept { return cfg_; }
  scheduling_policy& policy() noexcept { return *policy_; }

  // The topology-aware CPU assignment plan computed at construction.
  const pin_plan& plan() const noexcept { return plan_; }
  // Worker pins the kernel rejected (CPU offline / outside the cpuset);
  // counts since construction, not cleared by reset_counters().
  std::uint64_t pins_rejected() const noexcept {
    return pins_rejected_.load(std::memory_order_relaxed);
  }

  // Topology distance from `thief` to `victim`: 0 = SMT siblings (same
  // physical core), 1 = same NUMA/locality domain, 2 = remote domain. Each
  // worker's victim route (worker_data::route) is tiered by it.
  int steal_distance(int thief, int victim) const noexcept;

  // --- queue probes and steals, counted in the calling worker's cells ------
  // Every policy counts its queue look-ups through these two calls, so the
  // pending/staged access and miss counters mean the same under all four:
  // one access per probe of one structure (not per CAS retry inside it),
  // plus one miss when the probe came back empty. `w` is the calling worker.
  // Each returns the pop's result: `if (auto t = tm.pending_probe(w, pop))`.
  template <typename R>
  R pending_probe(int w, R result) noexcept {
    count_probe(w, counter_event::pending_accesses, counter_event::pending_misses,
                static_cast<bool>(result));
    return result;
  }
  template <typename R>
  R staged_probe(int w, R result) noexcept {
    count_probe(w, counter_event::staged_accesses, counter_event::staged_misses,
                static_cast<bool>(result));
    return result;
  }

  // Counts `n` tasks that worker `thief` (the caller) took from `victim` in
  // one steal: `stolen` first, so a reader never sees stolen-remote above
  // stolen, then the cross-domain subset, then one steal trace event naming
  // the first task taken.
  void record_steal(int thief, int victim, std::uint64_t first_id,
                    std::uint64_t n = 1) noexcept;

  // The last step of every policy's search: worker `w` probes the
  // low-priority queue's pending side, then its staged side, converting a
  // staged task it takes. nullptr when both are empty.
  task* pop_low_priority(int w);

  // Wakes parked workers (all=false: one). Public so message-passing
  // policies can signal after pushing work into another worker's channel —
  // the same Dekker protocol as the enqueue paths (see the private section).
  void notify_work_available(bool all = false) { notify_work(all); }

  // Preferred worker for block `index` of `total` equally sized data blocks:
  // block distribution over the NUMA domains, round-robin among each
  // domain's workers. Deterministic; used for NUMA-aware home placement of
  // data-parallel tasks (graph/futurize.hpp, algo/parallel_for.hpp).
  int home_worker_for_block(std::uint64_t index, std::uint64_t total) const noexcept;

  worker_data& worker(int w) { return *workers_[static_cast<std::size_t>(w)]; }
  const worker_data& worker(int w) const { return *workers_[static_cast<std::size_t>(w)]; }

  dual_queue<task*, task*>& low_priority_queue() noexcept { return low_queue_; }
  const dual_queue<task*, task*>& low_priority_queue() const noexcept { return low_queue_; }

  // Tasks spawned and not yet deleted: the sum of the per-worker created
  // and retired cells. Never zero while a task the caller can know of is
  // alive, and never above the tasks spawned so far (DESIGN.md decision 12).
  std::uint64_t tasks_alive() const noexcept;

  // Workers currently starving (their scheduler round found no work and they
  // have not found any since) — maintained edge-triggered off the same
  // had_work transition that emits the pending_miss trace event. This is the
  // instantaneous demand signal the split controller polls
  // (core/split_controller.hpp): > 0 means a split-off back half would be
  // picked up immediately.
  int starving_workers() const noexcept {
    return starving_.load(std::memory_order_relaxed);
  }

  // Tasks queued under any policy: enqueued (spawned, woken, or re-queued
  // after a yield) and whose next phase has not begun, whichever queue
  // structure holds them meanwhile. The raw sum of the per-worker queued
  // cells: a reader that races enqueues may see a dequeue before its
  // enqueue, so it can read low, and below zero; a reader that needs a
  // count clamps it. A starved worker parks only while it reads <= 0
  // (park_idle, DESIGN.md decision 7); the split controller weighs it as
  // supply against the starving count, so workers that are merely slow to
  // wake up to *existing* work do not read as demand for more.
  std::int64_t queued_tasks() const noexcept;

  // Spawns that arrived through the external lane (spawn/spawn_on from a
  // non-worker thread) and external submissions an admission controller
  // turned away before they became tasks (service/service.hpp). Exposed as
  // /threads/count/external-{spawns,rejected}.
  std::uint64_t external_spawns() const noexcept {
    return external_counters_.read(counter_event::created);
  }
  std::uint64_t external_rejected() const noexcept {
    return external_rejected_.load(std::memory_order_relaxed);
  }
  // Called by the ingress layer when admission control refuses an external
  // submission (the request never reaches spawn).
  void note_external_rejected() noexcept {
    external_rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  // Split bookkeeping (algo/splittable.hpp): bumps the calling worker's
  // splits cell and emits the task_split trace event (arg = the parent
  // task's id, arg2 = the split point, saturated to 32 bits). The runner
  // calls this immediately before spawn_on of the back half, so on the
  // parent's trace lane the task_split event directly precedes the child's
  // task_enqueue — the pairing perf/analysis.cpp uses for provenance.
  void record_split(std::uint64_t parent_id, std::uint64_t split_point) noexcept;
  // Split demand observed but the remaining range was below 2×min_chunk.
  void record_split_denied() noexcept;

  // Queue probes by every worker (pending_probe, staged_probe).
  struct queue_access_counts {
    std::uint64_t pending_accesses = 0;
    std::uint64_t pending_misses = 0;
    std::uint64_t staged_accesses = 0;
    std::uint64_t staged_misses = 0;
  };

  // Every worker's counts since the last reset_counters(), summed.
  struct totals {
    std::uint64_t tasks_executed = 0;
    std::uint64_t phases_executed = 0;
    std::uint64_t exec_ns = 0;   // Σ t_exec
    std::uint64_t func_ns = 0;   // Σ t_func (worker loop time, ⊇ exec)
    std::uint64_t tasks_stolen = 0;
    std::uint64_t tasks_stolen_remote = 0;  // subset of stolen: cross-domain
    std::uint64_t tasks_converted = 0;
    std::uint64_t tasks_spawned = 0;  // spawn/spawn_on calls, incl. external
    std::uint64_t tasks_split = 0;    // lazy splits (back half re-enqueued)
    std::uint64_t splits_denied = 0;  // demand seen, range below 2×min_chunk
    std::uint64_t steal_req_sent = 0;       // channel-steal requests originated
    std::uint64_t steal_req_forwarded = 0;  // passed on by an empty victim
    std::uint64_t steal_req_declined = 0;   // returned unserved (full circuit)
    // PMU-plane sums (perf/pmu.hpp); zero while GRAN_PMU is off. task vs
    // sched is the kernel/scheduler split of the overhead decomposition,
    // in hardware units.
    std::uint64_t pmu_cycles_task = 0;
    std::uint64_t pmu_cycles_sched = 0;
    std::uint64_t pmu_instructions_task = 0;
    std::uint64_t pmu_instructions_sched = 0;
    std::uint64_t pmu_llc_misses = 0;
    std::uint64_t pmu_branch_misses = 0;
    std::uint64_t pmu_stalled_backend = 0;
    std::uint64_t pmu_ctx_switches = 0;
    queue_access_counts queues;
  };
  totals counter_totals() const;

  // Starts every software count over from zero (start of a measurement
  // region): each counter cell's baseline takes the cell's current value,
  // and the histograms are cleared. Stores into no counter cell, so it may
  // run while the workers count.
  void reset_counters();

  // Registers/unregisters the /threads/... counters with the global
  // registry. Called by the constructor/destructor when
  // cfg.num_workers >= 0 (always); concurrent managers overwrite each
  // other's registrations — run one instrumented manager at a time.
  void register_counters();
  void unregister_counters();

 private:
  friend struct this_task_access;

  void worker_main(int w);
  // The body of spawn and spawn_on: `target` is the placement hint, or -1.
  std::uint64_t spawn_task(int target, task::body_fn body, task_priority priority,
                           const char* description);
  // Returns a terminated task's stack to the pool, deletes the task, and
  // counts the retirement in worker `w`'s cell.
  void retire(int w, task* t);
  // Counts one creation or one enqueue (delta +1) / dequeue (delta -1) in
  // the cells of `w`, or in the shared cells when w < 0.
  void note_created(int w) noexcept;
  void note_queued(int w, std::int64_t delta) noexcept;
  // The body of pending_probe and staged_probe.
  void count_probe(int w, counter_event accesses, counter_event misses,
                   bool found) noexcept {
    worker_counters& c = worker(w).counters;
    c.bump(accesses);
    if (!found) c.bump(misses);
  }
  // Runs one thread-phase of `t` on worker `w`; handles termination,
  // yield re-queueing, and suspension finalization.
  void run_phase(int w, task* t);

  // Emits the task_enqueue provenance event of a spawn. `spawner` is the
  // calling worker's index, or -1 for a non-worker thread (external lane).
  void record_spawn(int spawner, std::uint64_t id) noexcept;

  // --- event-based idle parking ------------------------------------------
  // Starved workers park on a condition variable; every enqueue signals it.
  // The sleeper count lets producers skip the mutex entirely when nobody is
  // parked (the common case under load). Missed-wakeup freedom (DESIGN.md
  // decision 7): a worker registers as a sleeper, fences, *then* reads the
  // queued count; a producer counts and pushes its task, fences, *then*
  // reads the sleeper count — one of the two must observe the other.
  void notify_work(bool all = false);
  // Parks worker `w` (the caller) for at most cfg_.idle_park_us. Returns
  // false when the queued count showed work and the park was skipped.
  bool park_idle(int w);

  scheduler_config cfg_;
  std::unique_ptr<scheduling_policy> policy_;
  std::vector<std::unique_ptr<worker_data>> workers_;
  std::vector<std::vector<int>> workers_by_node_;
  int num_numa_domains_ = 1;
  pin_plan plan_;
  std::atomic<std::uint64_t> pins_rejected_{0};

  dual_queue<task*, task*> low_queue_;
  stack_pool stacks_;

  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  // External submissions refused by admission control (note_external_rejected).
  std::atomic<std::uint64_t> external_rejected_{0};

  // Workers in the starving state (see starving_workers()). Own line: bumped
  // on starvation edges, read from the splittable hot loop on every poll.
  alignas(cache_line_size) std::atomic<int> starving_{0};
  // Creations and enqueues from threads that are not this manager's
  // workers (read-modify-writes; see worker_counters and worker_data::queued).
  worker_counters external_counters_;
  alignas(cache_line_size) std::atomic<std::int64_t> external_queued_{0};
  // Non-worker enqueues between their enqueue and the end of their
  // notify_work: stop() waits for zero, so no enqueuer signals park_cv_
  // after the manager is destroyed (DESIGN.md decision 7).
  std::atomic<int> external_in_flight_{0};

  alignas(cache_line_size) std::atomic<int> sleepers_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::uint64_t park_epoch_ = 0;  // guarded by park_mutex_; bumped per wakeup
};

// --- API available inside tasks -------------------------------------------

namespace this_task {

// The current task (nullptr when not running inside one).
task* current() noexcept;

// Cooperatively yields: ends the current thread-phase and re-queues the
// task at the back of its worker's pending queue. No-op outside a task.
void yield();

// Suspends the current task until someone calls thread_manager::wake on it.
// The caller must have arranged for that wake (sync primitives do). A wake
// that lands before this call, while the task is still active, is lost and
// the task sleeps forever: a task that publishes itself to a waker must use
// prepare_suspend(); publish; commit_suspend(); instead. See
// task::cancel_suspend for the full race-free protocol.
void suspend();

// Granular suspension for synchronization primitives; block_until
// (sync/wait_queue.hpp) states the protocol. Wakers observing the task
// after prepare_suspend interact correctly with it through
// thread_manager::wake.
void prepare_suspend();   // task::mark_suspending
void cancel_suspend();    // task::cancel_suspend
void commit_suspend();    // switch back to the worker; returns when woken

// Identifier helpers.
std::uint64_t id() noexcept;          // 0 outside a task
int worker_index() noexcept;          // -1 outside a worker

}  // namespace this_task

}  // namespace gran
