#include "threads/thread_manager.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>

#include "perf/observability.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "perf/watchdog.hpp"
#include "threads/runtime.hpp"
#include "topo/affinity.hpp"
#include "topo/steal_route.hpp"
#include "topo/topology.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gran {

namespace {

// Worker identity of the calling OS thread.
thread_local thread_manager* tl_manager = nullptr;
thread_local int tl_worker = -1;
thread_local task* tl_task = nullptr;

// ns from a liveness stamp to `now`; 0 for no stamp, or for one read ahead
// of `now` across a phase boundary.
double age_ns(std::uint64_t stamp, std::uint64_t now) {
  return stamp != 0 && now > stamp ? static_cast<double>(tsc_clock::to_ns(now - stamp))
                                   : 0.0;
}

}  // namespace

thread_manager::thread_manager(scheduler_config cfg)
    : cfg_(with_knobs(std::move(cfg), config::current())),
      low_queue_(cfg_.queue_ring_capacity),
      stacks_(cfg_.stack_size) {
  const steal_order order = steal_order_from_name(cfg_.steal_order);
  const topology& topo = topology::host();
  const std::vector<int> allowed = allowed_cpus();

  // Worker count: explicit config > GRAN_WORKERS > one per *available*
  // logical CPU. In a container the cgroup cpuset is often a strict subset
  // of the CPUs sysfs lists; spawning a worker per listed CPU would
  // oversubscribe the granted ones.
  int workers = cfg_.num_workers;
  if (workers <= 0) {
    int available = 0;
    for (const int cpu : allowed)
      if (topo.find_cpu(cpu) != nullptr) ++available;
    workers = available > 0 ? available : topo.num_cpus();
  }
  GRAN_ASSERT(workers >= 1);

  // CPU assignment plan: physical cores first, SMT siblings last, restricted
  // to the allowed cpuset (topo/pin_plan.hpp). pin_workers=false forces the
  // unpinned plan, which still yields the domain spread the policies need.
  plan_ = pin_plan::build(topo, allowed, workers,
                          cfg_.pin_workers ? pin_mode_from_name(cfg_.pin) : pin_mode::none);

  // Domain count: explicit config override (simulation ablations pretend a
  // multi-node machine) keeps the pre-plan even spread; otherwise the plan's
  // dense domains are authoritative.
  const bool domains_overridden = cfg_.numa_domains > 0;
  num_numa_domains_ = domains_overridden ? cfg_.numa_domains
                                         : std::max(1, plan_.num_domains);
  num_numa_domains_ = std::min(num_numa_domains_, workers);

  const int high_queues =
      cfg_.high_priority_queues > 0 ? std::min(cfg_.high_priority_queues, workers) : workers;

  // Domain from the plan, unless overridden: then spread workers evenly,
  // first domains first — matches how HPX fills sockets.
  std::vector<worker_assignment> layout = plan_.workers;
  for (int w = 0; w < workers; ++w) {
    int& domain = layout[static_cast<std::size_t>(w)].domain;
    domain = domains_overridden ? w * num_numa_domains_ / workers
                                : std::min(domain, num_numa_domains_ - 1);
  }

  workers_.reserve(static_cast<std::size_t>(workers));
  workers_by_node_.resize(static_cast<std::size_t>(num_numa_domains_));
  for (int w = 0; w < workers; ++w) {
    auto wd = std::make_unique<worker_data>(cfg_.queue_ring_capacity);
    wd->index = w;
    wd->place = layout[static_cast<std::size_t>(w)];
    wd->owns_high_queue = w < high_queues;
    wd->route = steal_route::build(layout, w, order);
    workers_by_node_[static_cast<std::size_t>(wd->place.domain)].push_back(w);
    workers_.push_back(std::move(wd));
  }

  // The knob table's observers (tracer, PMU plane, telemetry) start once per
  // process, before the ring handout: each worker caches its ring, so the
  // hot-path check is one relaxed load plus a predictable branch.
  perf::start_observers();
  if (perf::tracer::enabled())
    for (int w = 0; w < workers; ++w)
      workers_[static_cast<std::size_t>(w)]->trace = perf::tracer::instance().ring(w);

  policy_ = make_policy(cfg_.policy);
  policy_->init(*this);

  register_counters();
  if (default_manager() == nullptr) set_default_manager(this);

  running_.store(true, std::memory_order_release);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

thread_manager::~thread_manager() {
  stop();
  unregister_counters();
  if (default_manager() == this) set_default_manager(nullptr);
}

std::uint64_t thread_manager::spawn(task::body_fn body, task_priority priority,
                                    const char* description) {
  return spawn_task(-1, std::move(body), priority, description);
}

std::uint64_t thread_manager::spawn_on(int worker_hint, task::body_fn body,
                                       task_priority priority,
                                       const char* description) {
  const bool valid = worker_hint >= 0 && worker_hint < num_workers();
  return spawn_task(valid ? worker_hint : -1, std::move(body), priority, description);
}

std::uint64_t thread_manager::spawn_task(int target, task::body_fn body,
                                         task_priority priority,
                                         const char* description) {
  GRAN_ASSERT_MSG(running_.load(std::memory_order_acquire),
                  "spawn on a stopped thread_manager");
  auto* t = new task(std::move(body), priority, description);
  t->set_owner(this);
  const std::uint64_t id = t->id();
  // The spawner (for provenance and the cells) is the calling worker, not a
  // hint's target — the hint only picks the child's home queue.
  const int home = tl_manager == this ? tl_worker : -1;
  // Counted before the enqueue: whoever retires the task must find its
  // creation visible (DESIGN.md decision 12).
  note_created(home);
  // Provenance is recorded before the enqueue so the spawn timestamp can
  // never trail the child's first task_begin.
  record_spawn(home, id);
  note_queued(home, 1);
  if (home < 0) external_in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (target >= 0)
    policy_->enqueue_hinted(*this, target, t);
  else
    policy_->enqueue_new(*this, home, t);
  notify_work();
  if (home < 0) external_in_flight_.fetch_sub(1, std::memory_order_release);
  // Cooperation point: a spawning worker is responsive by definition, so a
  // message-passing policy can service steal requests that piled up while
  // the task body ran (tasking-2.0's check-for-requests-on-spawn idiom).
  if (home >= 0) policy_->cooperate(*this, home);
  return id;
}

void thread_manager::note_created(int w) noexcept {
  if (w >= 0)
    worker(w).counters.bump(counter_event::created);
  else
    external_counters_.cell(counter_event::created).fetch_add(1, std::memory_order_acq_rel);
}

void thread_manager::note_queued(int w, std::int64_t delta) noexcept {
  if (w >= 0)
    bump_owned(*worker(w).queued, delta);
  else
    external_queued_.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t thread_manager::tasks_alive() const noexcept {
  // Every retired cell first, then every created cell, all acquire and
  // with no baseline: a retirement seen here makes its task's creation (and
  // the creations of everything that task spawned) visible to the later
  // loads, so the sum cannot wrap and cannot read zero while a task is
  // alive.
  const auto sum = [this](counter_event e) {
    std::uint64_t n = 0;
    for (const auto& wd : workers_) n += wd->counters.cell(e).load(std::memory_order_acquire);
    return n;
  };
  const std::uint64_t retired = sum(counter_event::retired);
  const std::uint64_t created =
      external_counters_.cell(counter_event::created).load(std::memory_order_acquire) +
      sum(counter_event::created);
  GRAN_DEBUG_ASSERT(created >= retired);
  return created - retired;
}

std::int64_t thread_manager::queued_tasks() const noexcept {
  std::int64_t n = external_queued_.load(std::memory_order_relaxed);
  for (const auto& wd : workers_) n += wd->queued->load(std::memory_order_relaxed);
  return n;
}

void thread_manager::record_spawn(int spawner, std::uint64_t id) noexcept {
  if (spawner >= 0) {
    perf::trace_emit(worker(spawner).trace, perf::trace_kind::task_enqueue, spawner, id,
                     static_cast<std::uint32_t>(spawner));
  } else {
    if (perf::tracer::enabled())
      perf::tracer::instance().emit_external(perf::trace_kind::task_enqueue, id,
                                             perf::external_worker);
  }
}

void thread_manager::record_split(std::uint64_t parent_id,
                                  std::uint64_t split_point) noexcept {
  const int w = tl_manager == this ? tl_worker : -1;
  if (w < 0) return;  // splits only happen inside tasks, i.e. on workers
  worker_data& wd = worker(w);
  wd.counters.bump(counter_event::splits);
  const std::uint32_t point = split_point > 0xffffffffull
                                  ? 0xffffffffu
                                  : static_cast<std::uint32_t>(split_point);
  perf::trace_emit(wd.trace, perf::trace_kind::task_split, w, parent_id, point);
}

void thread_manager::record_split_denied() noexcept {
  const int w = tl_manager == this ? tl_worker : -1;
  if (w < 0) return;
  worker(w).counters.bump(counter_event::splits_denied);
}

int thread_manager::steal_distance(int thief, int victim) const noexcept {
  return gran::steal_distance(worker(thief).place, worker(victim).place);
}

int thread_manager::home_worker_for_block(std::uint64_t index,
                                          std::uint64_t total) const noexcept {
  const auto n = static_cast<std::uint64_t>(num_workers());
  if (total == 0) return static_cast<int>(index % n);
  if (index >= total) index = total - 1;
  // Block distribution over the domains (block b of N lives on domain
  // b*D/N), then round-robin among that domain's workers.
  const auto domains = static_cast<std::uint64_t>(num_numa_domains_);
  const auto d = static_cast<std::size_t>(index * domains / total);
  const std::vector<int>& ws = workers_by_node_[d];
  if (ws.empty()) return static_cast<int>(index % n);
  return ws[static_cast<std::size_t>(index % ws.size())];
}

thread_manager* thread_manager::current() noexcept { return tl_manager; }
task* thread_manager::current_task() noexcept { return tl_task; }
int thread_manager::current_worker() noexcept { return tl_worker; }

void thread_manager::wake(task* t) {
  GRAN_ASSERT(t != nullptr);
  if (t->wake()) schedule_ready(t);
}

void thread_manager::schedule_ready(task* t) {
  GRAN_DEBUG_ASSERT(t->state() == task_state::pending);
  const int home = tl_manager == this ? tl_worker : -1;
  note_queued(home, 1);
  if (home < 0) external_in_flight_.fetch_add(1, std::memory_order_relaxed);
  policy_->enqueue_ready(*this, home, t);
  notify_work();
  if (home < 0) external_in_flight_.fetch_sub(1, std::memory_order_release);
}

void thread_manager::convert(task* t) {
  GRAN_ASSERT_MSG(tl_manager == this, "convert outside this manager's workers");
  t->convert_to_pending(stacks_.acquire());
  worker(tl_worker).counters.bump(counter_event::converted);
}

void thread_manager::record_steal(int thief, int victim, std::uint64_t first_id,
                                  std::uint64_t n) noexcept {
  worker_data& me = worker(thief);
  const int distance = steal_distance(thief, victim);
  me.counters.bump(counter_event::stolen, n);
  if (distance == 2) me.counters.bump(counter_event::stolen_remote, n);
  perf::trace_emit(me.trace, perf::trace_kind::steal, thief, first_id,
                   perf::steal_arg2(victim, distance));
}

task* thread_manager::pop_low_priority(int w) {
  if (auto t = pending_probe(w, low_queue_.pop_pending())) return *t;
  if (auto d = staged_probe(w, low_queue_.pop_staged())) {
    convert(*d);
    return *d;
  }
  return nullptr;
}

void thread_manager::retire(int w, task* t) {
  stacks_.release(t->take_stack());
  delete t;
  // After the delete: wait_idle's caller may free what the body captured.
  worker(w).counters.bump(counter_event::retired);
}

void thread_manager::wait_idle() {
  GRAN_ASSERT_MSG(tl_manager != this, "wait_idle from a worker would deadlock");
  backoff bo;
  while (tasks_alive() != 0) bo.pause();
}

void thread_manager::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false, std::memory_order_acq_rel))
    return;  // already stopped
  notify_work(/*all=*/true);  // release parked workers so they observe stop
  for (auto& th : threads_)
    if (th.joinable()) th.join();
  threads_.clear();
  // A non-worker enqueuer may still be inside notify_work although its task
  // already ran and retired; the owner may destroy this manager (and its
  // park_cv_) as soon as stop() returns.
  while (external_in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();

  // GRAN_PRINT_COUNTERS=<prefix> dumps the counters at shutdown — the
  // equivalent of HPX's --hpx:print-counter post-processing interface.
  const std::string& prefix = config::text(config::print_counters);
  if (!prefix.empty()) {
    std::cerr << "[gran] counters at shutdown (" << prefix << "):\n";
    perf::dump_table(std::cerr, prefix == "all" ? "/" : prefix);
  }

  // Auto-export the trace once the workers are quiescent (ring snapshots
  // are only valid then). Sequential managers re-export cumulatively; the
  // last writer includes everything.
  if (perf::tracer::enabled()) {
    const std::string trace_path = perf::tracer::instance().export_path();
    if (!trace_path.empty()) perf::tracer::instance().export_chrome_json(trace_path);
  }
}

void thread_manager::worker_main(int w) {
  tl_manager = this;
  tl_worker = w;

  worker_data& me = worker(w);

  // Pin to the planned CPU (-1 = the plan left this worker unpinned). A
  // rejected pin (CPU went offline, cpuset shrank after planning) is not
  // silent: it perturbs every measurement taken on this worker.
  const int cpu = me.place.cpu;
  if (cpu >= 0 && !pin_current_thread(cpu)) {
    pins_rejected_.fetch_add(1, std::memory_order_relaxed);
    perf::trace_emit(me.trace, perf::trace_kind::pin_rejected, w,
                     static_cast<std::uint64_t>(cpu));
    GRAN_LOG_WARN("worker %d: kernel rejected pin to cpu %d; running unpinned",
                  w, cpu);
  }

  // Open this worker's counter group after pinning (perf_event_open
  // self-attaches to the calling thread). Null when the plane is off — the
  // run_phase hot path checks exactly that.
  if (perf::pmu_plane::instance().enabled())
    me.pmu = perf::pmu_plane::instance().create_reader();

  std::uint64_t stamp = tsc_clock::now();
  perf::trace_emit_at(me.trace, stamp, perf::trace_kind::worker_start, w);
  idle_backoff idler(cfg_.idle_spin_limit, cfg_.idle_yield_limit);

  const auto accumulate_func = [&] {
    const std::uint64_t now = tsc_clock::now();
    me.counters.bump(counter_event::func_ticks, now - stamp);
    stamp = now;
    // Heartbeat: reuses the tsc read above, so liveness costs one relaxed
    // store per scheduler round. Parked workers still beat every
    // idle_park_us.
    me.live->beat_ticks.store(now, std::memory_order_relaxed);
  };

  bool had_work = true;
  for (;;) {
    task* t = policy_->get_next(*this, w);
    accumulate_func();
    if (t != nullptr) {
      if (!had_work) {
        had_work = true;
        starving_.fetch_sub(1, std::memory_order_relaxed);
      }
      idler.reset();
      run_phase(w, t);
      accumulate_func();
      continue;
    }

    // One pending-miss trace event per starvation episode (the first
    // fruitless scheduler round after useful work), not per probe — the
    // pending-misses *counter* carries the raw frequency; the event marks
    // when starvation set in without flooding the ring. The same edge
    // maintains starving_, the split controller's instantaneous demand
    // signal.
    if (had_work) {
      had_work = false;
      starving_.fetch_add(1, std::memory_order_relaxed);
      perf::trace_emit(me.trace, perf::trace_kind::pending_miss, w);
    }

    // Nothing anywhere: shut down once the manager stopped and no task can
    // produce more work.
    if (!running_.load(std::memory_order_acquire) && tasks_alive() == 0) break;

    // Long starvation escalates spin -> yield -> park. Parked (or slept)
    // time still counts into Σt_func, which is what makes starvation
    // visible as idle-rate.
    if (idler.pause()) {
      if (cfg_.idle_park)
        park_idle(w);
      else
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    accumulate_func();
  }

  // The loop only exits from the starving branch; withdraw this worker's
  // contribution so starving_ drains to zero at shutdown.
  if (!had_work) starving_.fetch_sub(1, std::memory_order_relaxed);
  perf::trace_emit_at(me.trace, stamp, perf::trace_kind::worker_stop, w);

  tl_manager = nullptr;
  tl_worker = -1;
}

void thread_manager::notify_work(bool all) {
  // Publish-then-check: the enqueue's stores must be ordered before the
  // sleeper-count load (x86-TSO reorders store->load, hence the fence).
  // Pairs with the seq_cst sleeper registration in park_idle.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;  // fast path
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    ++park_epoch_;
  }
  if (all)
    park_cv_.notify_all();
  else
    park_cv_.notify_one();
}

bool thread_manager::park_idle(int w) {
  perf::trace_ring* const trace = worker(w).trace;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  bool parked = false;
  {
    std::unique_lock<std::mutex> lock(park_mutex_);
    // Re-check under the lock, after registering as a sleeper and fencing:
    // an enqueue whose count this read misses fenced after its push and
    // will see the registration, so its producer signals us. DESIGN.md
    // decision 7 has the argument, and the one case it leaves to the
    // idle_park_us timeout.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (running_.load(std::memory_order_acquire) && queued_tasks() <= 0) {
      const std::uint64_t observed = park_epoch_;
      parked = true;
      perf::trace_emit(trace, perf::trace_kind::park, w);
      park_cv_.wait_for(lock, std::chrono::microseconds(cfg_.idle_park_us),
                        [&] {
                          return park_epoch_ != observed ||
                                 !running_.load(std::memory_order_acquire);
                        });
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  if (parked) perf::trace_emit(trace, perf::trace_kind::unpark, w);
  return parked;
}

void thread_manager::run_phase(int w, task* t) {
  worker_data& me = worker(w);
  bump_owned(*me.queued, std::int64_t{-1});
  t->begin_phase(w);

  tl_task = t;
  const std::uint64_t t0 = tsc_clock::now();

  // Publish the in-flight phase for the stall watchdog: task id first, then
  // the start stamp that marks it valid (readers treat
  // phase_start_ticks != 0 as "task_id is valid").
  me.live->task_id.store(t->id(), std::memory_order_relaxed);
  me.live->phase_start_ticks.store(t0, std::memory_order_release);

  // The gap since the previous phase on this worker is that slot's
  // management overhead (scheduling, queue operations, idle/park time) —
  // the distribution behind Eq. 3's mean.
  const std::uint64_t prev_end =
      me.last_phase_end_ticks.load(std::memory_order_relaxed);
  if (prev_end != 0 && t0 > prev_end)
    me.hist_task_overhead.record(
        static_cast<std::uint64_t>(tsc_clock::to_ns(t0 - prev_end)));

  perf::trace_emit_at(me.trace, t0,
                      t->phases() == 0 ? perf::trace_kind::task_begin
                                       : perf::trace_kind::phase_begin,
                      w, t->id(), 0, t->description());

  // PMU begin hook: one batched counter read per phase. The delta since the
  // previous phase end on this lane is the scheduler gap in hardware units;
  // its task_pmu record rides directly after the begin event (same
  // timestamp) — the adjacency the analyzer pairs on.
  perf::pmu_sample pmu_begin;
  if (me.pmu != nullptr) {
    me.pmu->sample(pmu_begin);
    if (me.pmu_last_valid.load(std::memory_order_relaxed)) {
      const perf::pmu_sample gap = pmu_begin - me.pmu_last_end;
      me.counters.bump(counter_event::pmu_cycles_sched, gap.cycles);
      me.counters.bump(counter_event::pmu_instructions_sched, gap.instructions);
      me.counters.bump(counter_event::pmu_ctx_switches, gap.ctx_switches);
      perf::trace_emit_at(me.trace, t0, perf::trace_kind::task_pmu, w,
                          perf::pack_pmu_arg(gap.cycles, gap.instructions),
                          gap.llc_misses >= 0xffffffffull
                              ? 0xffffffffu
                              : static_cast<std::uint32_t>(gap.llc_misses));
    }
  }

  t->context().resume();
  const std::uint64_t t1 = tsc_clock::now();
  const std::uint64_t dt = t1 - t0;
  tl_task = nullptr;
  me.last_phase_end_ticks.store(t1, std::memory_order_relaxed);
  me.live->phase_start_ticks.store(0, std::memory_order_release);

  me.counters.bump(counter_event::exec_ticks, dt);
  me.counters.bump(counter_event::phases);
  t->count_phase();
  t->add_exec_ticks(dt);

  // PMU end hook, called right after each end-of-phase trace event so the
  // kernel-delta task_pmu record is lane-adjacent to it at t1. Also feeds
  // the always-on histograms and counter cells, and leaves the end sample
  // as the base for the next scheduler-gap delta.
  const auto pmu_end_emit = [&] {
    if (me.pmu == nullptr) return;
    perf::pmu_sample now;
    me.pmu->sample(now);
    const perf::pmu_sample d = now - pmu_begin;
    me.counters.bump(counter_event::pmu_cycles_task, d.cycles);
    me.counters.bump(counter_event::pmu_instructions_task, d.instructions);
    me.counters.bump(counter_event::pmu_llc_misses, d.llc_misses);
    me.counters.bump(counter_event::pmu_branch_misses, d.branch_misses);
    me.counters.bump(counter_event::pmu_stalled_backend, d.stalled_backend);
    me.counters.bump(counter_event::pmu_ctx_switches, d.ctx_switches);
    // IPC/instructions only when the instructions event is live (software
    // mode reads 0), LLC only on rungs that still carry the event — zeros
    // from a degraded reader would poison the distributions.
    if (d.instructions > 0) {
      me.hist_task_instructions.record(d.instructions);
      if (d.cycles > 0)
        me.hist_task_ipc.record(d.instructions * 1000 / d.cycles);
    }
    const perf::pmu_mode m = me.pmu->mode();
    if (m == perf::pmu_mode::full || m == perf::pmu_mode::reduced)
      me.hist_task_llc.record(d.llc_misses);
    perf::trace_emit_at(me.trace, t1, perf::trace_kind::task_pmu, w,
                        perf::pack_pmu_arg(d.cycles, d.instructions),
                        d.llc_misses >= 0xffffffffull
                            ? 0xffffffffu
                            : static_cast<std::uint32_t>(d.llc_misses));
    me.pmu_last_end = now;
    me.pmu_last_valid.store(true, std::memory_order_relaxed);
  };

  if (t->context().finished()) {
    perf::trace_emit_at(me.trace, t1, perf::trace_kind::task_end, w, t->id());
    pmu_end_emit();
    me.hist_task_duration.record(
        static_cast<std::uint64_t>(tsc_clock::to_ns(t->exec_ticks())));
    t->finish();
    retire(w, t);
    return;
  }
  if (t->consume_yield_request()) {
    perf::trace_emit_at(me.trace, t1, perf::trace_kind::phase_end, w, t->id(), 1);
    pmu_end_emit();
    t->requeue_after_yield();
    bump_owned(*me.queued, std::int64_t{1});
    policy_->enqueue_ready(*this, w, t);
    return;
  }
  perf::trace_emit_at(me.trace, t1, perf::trace_kind::phase_end, w, t->id(), 2);
  pmu_end_emit();
  if (!t->finalize_suspend()) {
    // A wake arrived while the task was switching away.
    bump_owned(*me.queued, std::int64_t{1});
    policy_->enqueue_ready(*this, w, t);
  }
}

thread_manager::totals thread_manager::counter_totals() const {
  std::array<std::uint64_t, worker_counters::size> n{};
  for (const auto& wd : workers_)
    for (std::size_t e = 0; e < n.size(); ++e)
      n[e] += wd->counters.read(static_cast<counter_event>(e));
  const auto at = [&n](counter_event e) { return n[static_cast<std::size_t>(e)]; };
  const double ns_per_tick = tsc_clock::ns_per_tick();
  const auto ns = [ns_per_tick](std::uint64_t ticks) {
    return static_cast<std::uint64_t>(static_cast<double>(ticks) * ns_per_tick);
  };

  totals sum;
  sum.tasks_executed = at(counter_event::retired);
  sum.phases_executed = at(counter_event::phases);
  sum.exec_ns = ns(at(counter_event::exec_ticks));
  sum.func_ns = ns(at(counter_event::func_ticks));
  sum.tasks_stolen = at(counter_event::stolen);
  sum.tasks_stolen_remote = at(counter_event::stolen_remote);
  sum.tasks_converted = at(counter_event::converted);
  sum.tasks_spawned = at(counter_event::created) + external_spawns();
  sum.tasks_split = at(counter_event::splits);
  sum.splits_denied = at(counter_event::splits_denied);
  sum.steal_req_sent = at(counter_event::steal_req_sent);
  sum.steal_req_forwarded = at(counter_event::steal_req_forwarded);
  sum.steal_req_declined = at(counter_event::steal_req_declined);
  sum.pmu_cycles_task = at(counter_event::pmu_cycles_task);
  sum.pmu_cycles_sched = at(counter_event::pmu_cycles_sched);
  sum.pmu_instructions_task = at(counter_event::pmu_instructions_task);
  sum.pmu_instructions_sched = at(counter_event::pmu_instructions_sched);
  sum.pmu_llc_misses = at(counter_event::pmu_llc_misses);
  sum.pmu_branch_misses = at(counter_event::pmu_branch_misses);
  sum.pmu_stalled_backend = at(counter_event::pmu_stalled_backend);
  sum.pmu_ctx_switches = at(counter_event::pmu_ctx_switches);
  sum.queues.pending_accesses = at(counter_event::pending_accesses);
  sum.queues.pending_misses = at(counter_event::pending_misses);
  sum.queues.staged_accesses = at(counter_event::staged_accesses);
  sum.queues.staged_misses = at(counter_event::staged_misses);
  return sum;
}

void thread_manager::reset_counters() {
  for (auto& wd : workers_) {
    wd->counters.rebase();
    wd->hist_task_duration.reset();
    wd->hist_task_overhead.reset();
    wd->hist_task_ipc.reset();
    wd->hist_task_llc.reset();
    wd->hist_task_instructions.reset();
    wd->last_phase_end_ticks.store(0, std::memory_order_relaxed);
    wd->pmu_last_valid.store(false, std::memory_order_relaxed);
  }
  external_counters_.rebase();
  external_rejected_.store(0, std::memory_order_relaxed);
}

void thread_manager::register_counters() {
  auto& reg = perf::registry::instance();
  reg.remove_prefix("/threads");

  const auto tot = [this] { return counter_totals(); };
  using perf::counter_kind;

  reg.add("/threads/count/cumulative", counter_kind::monotonic,
          "number of HPX-threads (tasks) executed to completion (nt)",
          [tot] { return static_cast<double>(tot().tasks_executed); });
  reg.add("/threads/count/cumulative-phases", counter_kind::monotonic,
          "number of thread phases (activations) executed",
          [tot] { return static_cast<double>(tot().phases_executed); });
  reg.add("/threads/time/cumulative", counter_kind::monotonic,
          "sum of task execution time (Σt_exec), ns",
          [tot] { return static_cast<double>(tot().exec_ns); });
  reg.add("/threads/time/overall", counter_kind::monotonic,
          "sum of worker-loop time (Σt_func), ns",
          [tot] { return static_cast<double>(tot().func_ns); });
  reg.add("/threads/time/cumulative-overhead", counter_kind::monotonic,
          "sum of thread-management time (Σt_func − Σt_exec), ns", [tot] {
            const auto s = tot();
            return static_cast<double>(s.func_ns - std::min(s.func_ns, s.exec_ns));
          });
  reg.add("/threads/time/average", counter_kind::gauge,
          "average task duration td = Σt_exec / nt, ns (Eq. 2)", [tot] {
            const auto s = tot();
            return s.tasks_executed
                       ? static_cast<double>(s.exec_ns) /
                             static_cast<double>(s.tasks_executed)
                       : 0.0;
          });
  reg.add("/threads/time/average-overhead", counter_kind::gauge,
          "average task overhead to = (Σt_func − Σt_exec) / nt, ns (Eq. 3)", [tot] {
            const auto s = tot();
            if (!s.tasks_executed) return 0.0;
            const double overhead =
                static_cast<double>(s.func_ns) - static_cast<double>(s.exec_ns);
            return std::max(0.0, overhead) / static_cast<double>(s.tasks_executed);
          });
  reg.add("/threads/time/average-phase", counter_kind::gauge,
          "average phase duration = Σt_exec / phases, ns", [tot] {
            const auto s = tot();
            return s.phases_executed
                       ? static_cast<double>(s.exec_ns) /
                             static_cast<double>(s.phases_executed)
                       : 0.0;
          });
  reg.add("/threads/time/average-phase-overhead", counter_kind::gauge,
          "average phase overhead = (Σt_func − Σt_exec) / phases, ns", [tot] {
            const auto s = tot();
            if (!s.phases_executed) return 0.0;
            const double overhead =
                static_cast<double>(s.func_ns) - static_cast<double>(s.exec_ns);
            return std::max(0.0, overhead) / static_cast<double>(s.phases_executed);
          });
  reg.add("/threads/idle-rate", counter_kind::rate,
          "(Σt_func − Σt_exec) / Σt_func (Eq. 1)", [tot] {
            const auto s = tot();
            if (!s.func_ns) return 0.0;
            const double overhead =
                static_cast<double>(s.func_ns) - static_cast<double>(s.exec_ns);
            return std::max(0.0, overhead) / static_cast<double>(s.func_ns);
          });
  reg.add("/threads/count/pending-accesses", counter_kind::monotonic,
          "scheduler look-ups into pending queues",
          [tot] { return static_cast<double>(tot().queues.pending_accesses); });
  reg.add("/threads/count/pending-misses", counter_kind::monotonic,
          "pending-queue look-ups that found no work",
          [tot] { return static_cast<double>(tot().queues.pending_misses); });
  reg.add("/threads/count/staged-accesses", counter_kind::monotonic,
          "scheduler look-ups into staged queues",
          [tot] { return static_cast<double>(tot().queues.staged_accesses); });
  reg.add("/threads/count/staged-misses", counter_kind::monotonic,
          "staged-queue look-ups that found no work",
          [tot] { return static_cast<double>(tot().queues.staged_misses); });
  reg.add("/threads/count/stolen", counter_kind::monotonic,
          "tasks obtained from another worker's queues",
          [tot] { return static_cast<double>(tot().tasks_stolen); });
  // Locality split of /threads/count/stolen. Writers bump `stolen` before
  // `stolen-remote`, and local is derived as the guarded difference, so
  // stolen-local + stolen-remote == stolen even against in-flight updates.
  reg.add("/threads/count/stolen-local", counter_kind::monotonic,
          "stolen tasks whose victim shares the thief's NUMA domain",
          [tot] {
            const auto s = tot();
            return static_cast<double>(
                s.tasks_stolen - std::min(s.tasks_stolen, s.tasks_stolen_remote));
          });
  reg.add("/threads/count/stolen-remote", counter_kind::monotonic,
          "stolen tasks whose victim lives in a different NUMA domain",
          [tot] { return static_cast<double>(tot().tasks_stolen_remote); });
  reg.add("/threads/count/pin-rejected", counter_kind::monotonic,
          "worker CPU pins the kernel rejected (lifetime total; not cleared "
          "by reset_counters)",
          [this] { return static_cast<double>(pins_rejected()); });
  reg.add("/threads/count/converted", counter_kind::monotonic,
          "staged->pending conversions",
          [tot] { return static_cast<double>(tot().tasks_converted); });
  reg.add("/threads/count/spawned", counter_kind::monotonic,
          "tasks created via spawn/spawn_on (worker + external threads); "
          "cross-checks the trace's task_enqueue event count",
          [tot] { return static_cast<double>(tot().tasks_spawned); });
  // The external-spawn lane's own counters: spawned already folds external
  // spawns into its total, but saturation analysis of a service ingress
  // needs the lane isolated (and rejected never reaches spawn at all).
  reg.add("/threads/count/external-spawns", counter_kind::monotonic,
          "spawn/spawn_on calls from non-worker threads (the external lane)",
          [this] { return static_cast<double>(external_spawns()); });
  reg.add("/threads/count/external-rejected", counter_kind::monotonic,
          "external submissions refused by admission control before spawn "
          "(service/service.hpp reject policy)",
          [this] { return static_cast<double>(external_rejected()); });
  reg.add("/threads/count/splits", counter_kind::monotonic,
          "lazy splittable-range splits (back half re-enqueued as a new task)",
          [tot] { return static_cast<double>(tot().tasks_split); });
  reg.add("/threads/count/split-denied", counter_kind::monotonic,
          "split demands denied because the remaining range was below "
          "2×GRAN_SPLIT_MIN",
          [tot] { return static_cast<double>(tot().splits_denied); });
  // Channel-steal request traffic (policy_channel_steal.hpp); zero under
  // the queue-based policies. sent == handoffs + declined at quiescence.
  reg.add("/threads/count/steal-req-sent", counter_kind::monotonic,
          "steal requests originated by idle workers (channel-steal)",
          [tot] { return static_cast<double>(tot().steal_req_sent); });
  reg.add("/threads/count/steal-req-forwarded", counter_kind::monotonic,
          "steal requests passed on by a victim with an empty deque "
          "(channel-steal)",
          [tot] { return static_cast<double>(tot().steal_req_forwarded); });
  reg.add("/threads/count/steal-req-declined", counter_kind::monotonic,
          "steal requests returned to the thief unserved after a full "
          "circuit (channel-steal)",
          [tot] { return static_cast<double>(tot().steal_req_declined); });
  reg.add("/threads/count/instantaneous/alive", counter_kind::gauge,
          "tasks spawned and not yet terminated",
          [this] { return static_cast<double>(tasks_alive()); });
  reg.add("/threads/count/instantaneous/pending", counter_kind::gauge,
          "tasks queued as pending in the dual queues (priority-local-fifo, "
          "static-fifo) and the low-priority queue; /instantaneous/queued "
          "counts every policy's queues",
          [this] {
            std::size_t n = low_priority_queue().pending_size_approx();
            for (int w = 0; w < num_workers(); ++w)
              n += worker(w).queue.pending_size_approx() +
                   worker(w).high_queue.pending_size_approx();
            return static_cast<double>(n);
          });
  reg.add("/threads/count/instantaneous/staged", counter_kind::gauge,
          "tasks queued as staged in the dual queues (priority-local-fifo, "
          "static-fifo) and the low-priority queue; /instantaneous/queued "
          "counts every policy's queues",
          [this] {
            std::size_t n = low_priority_queue().staged_size_approx();
            for (int w = 0; w < num_workers(); ++w)
              n += worker(w).queue.staged_size_approx() +
                   worker(w).high_queue.staged_size_approx();
            return static_cast<double>(n);
          });
  reg.add("/threads/count/trace-dropped", counter_kind::monotonic,
          "trace events overwritten by ring wraparound (0 unless tracing "
          "outran GRAN_TRACE_BUF)",
          [] { return static_cast<double>(perf::tracer::instance().total_dropped()); });
  reg.add("/threads/count/instantaneous/starving", counter_kind::gauge,
          "workers whose last scheduler round found no work",
          [this] { return static_cast<double>(starving_workers()); });
  reg.add("/threads/count/instantaneous/queued", counter_kind::gauge,
          "tasks enqueued and whose next phase has not begun, under every "
          "policy (clamped at 0)",
          [this] {
            return static_cast<double>(std::max<std::int64_t>(0, queued_tasks()));
          });

  // Stall-watchdog incident totals (perf/watchdog.hpp). Process-global so a
  // stall detected in one measurement region stays visible after the
  // telemetry session restarts; not cleared by reset_counters.
  reg.add("/threads/count/stall-stuck", counter_kind::monotonic,
          "watchdog incidents: a phase exceeded the stuck threshold", [] {
            return static_cast<double>(
                perf::stall_stats::instance().stuck.load(std::memory_order_relaxed));
          });
  reg.add("/threads/count/stall-starved", counter_kind::monotonic,
          "watchdog incidents: starving workers with queued work not flowing",
          [] {
            return static_cast<double>(perf::stall_stats::instance().starved.load(
                std::memory_order_relaxed));
          });
  reg.add("/threads/count/stall-flatline", counter_kind::monotonic,
          "watchdog incidents: tasks alive but nothing executing (suspected "
          "deadlock)",
          [] {
            return static_cast<double>(perf::stall_stats::instance().flatline.load(
                std::memory_order_relaxed));
          });
  reg.add("/threads/watchdog/heartbeat-age-max-ns", counter_kind::gauge,
          "age of the stalest worker heartbeat, ns", [this] {
            const std::uint64_t now = tsc_clock::now();
            double max_age = 0;
            for (const auto& wd : workers_)
              max_age = std::max(
                  max_age, age_ns(wd->live->beat_ticks.load(std::memory_order_relaxed), now));
            return max_age;
          });

  // PMU plane (perf/pmu.hpp): negotiated capability plus the cumulative
  // hardware-unit sums, split kernel-vs-scheduler like the wall-clock
  // decomposition. All zero while GRAN_PMU is off (mode reads 0 = off).
  reg.add("/threads/pmu/mode", counter_kind::gauge,
          "PMU capability rung: 0 off, 1 full, 2 reduced, 3 minimal, "
          "4 software-only",
          [] {
            return static_cast<double>(
                static_cast<int>(perf::pmu_plane::instance().mode()));
          });
  reg.add("/threads/pmu/events-unavailable", counter_kind::gauge,
          "hardware events the negotiated PMU mode cannot deliver (of 4 "
          "beyond cycles)",
          [] {
            return static_cast<double>(
                perf::pmu_plane::instance().events_unavailable());
          });
  reg.add("/threads/pmu/cycles-task", counter_kind::monotonic,
          "PMU cycles spent inside task phases (kernel work)",
          [tot] { return static_cast<double>(tot().pmu_cycles_task); });
  reg.add("/threads/pmu/cycles-sched", counter_kind::monotonic,
          "PMU cycles spent in inter-phase gaps (scheduler overhead)",
          [tot] { return static_cast<double>(tot().pmu_cycles_sched); });
  reg.add("/threads/pmu/instructions-task", counter_kind::monotonic,
          "instructions retired inside task phases",
          [tot] { return static_cast<double>(tot().pmu_instructions_task); });
  reg.add("/threads/pmu/instructions-sched", counter_kind::monotonic,
          "instructions retired in inter-phase gaps",
          [tot] { return static_cast<double>(tot().pmu_instructions_sched); });
  reg.add("/threads/pmu/llc-misses", counter_kind::monotonic,
          "last-level-cache misses inside task phases",
          [tot] { return static_cast<double>(tot().pmu_llc_misses); });
  reg.add("/threads/pmu/branch-misses", counter_kind::monotonic,
          "branch mispredictions inside task phases",
          [tot] { return static_cast<double>(tot().pmu_branch_misses); });
  reg.add("/threads/pmu/stalled-backend", counter_kind::monotonic,
          "backend-stalled cycles inside task phases",
          [tot] { return static_cast<double>(tot().pmu_stalled_backend); });
  reg.add("/threads/pmu/context-switches", counter_kind::monotonic,
          "context switches observed across phases and gaps",
          [tot] { return static_cast<double>(tot().pmu_ctx_switches); });

  // Distribution counters: log2-bucketed histograms of per-task values,
  // each with percentile/mean/count views (docs/COUNTERS.md). The spread
  // these report is exactly what the paper's scalar means (Eqs. 2/3) hide.
  // An aggregate merges every worker's histogram.
  const auto merged = [this](perf::log2_histogram worker_data::*hist) {
    return [this, hist] {
      perf::histogram_snapshot s;
      for (const auto& wd : workers_) s += ((*wd).*hist).snap();
      return s;
    };
  };
  reg.add_histogram("/threads/histogram/task-duration",
                    "task duration (total t_exec per completed task)", "ns",
                    merged(&worker_data::hist_task_duration));
  reg.add_histogram("/threads/histogram/task-overhead",
                    "per-slot overhead (non-exec gap between phases)", "ns",
                    merged(&worker_data::hist_task_overhead));
  reg.add_histogram("/threads/histogram/task-ipc", "per-phase instructions per cycle",
                    "milli-IPC", merged(&worker_data::hist_task_ipc));
  reg.add_histogram("/threads/histogram/task-llc-miss",
                    "per-phase last-level-cache misses", "misses",
                    merged(&worker_data::hist_task_llc));
  reg.add_histogram("/threads/histogram/task-instructions",
                    "per-phase instructions retired", "instructions",
                    merged(&worker_data::hist_task_instructions));

  // Per-worker instances of the headline counters. They read the cells the
  // aggregates sum, so every additive instance sums to its aggregate.
  struct instance_registration {
    const char* name;
    counter_event event;
    const char* what;
  };
  static constexpr instance_registration instances[] = {
      {"/count/cumulative", counter_event::retired, "tasks executed by this worker"},
      {"/count/cumulative-phases", counter_event::phases,
       "thread phases executed by this worker"},
      {"/time/cumulative", counter_event::exec_ticks, "Σt_exec of this worker, ns"},
      {"/time/overall", counter_event::func_ticks, "Σt_func of this worker, ns"},
      {"/count/pending-accesses", counter_event::pending_accesses,
       "pending-queue probes this worker made"},
      {"/count/pending-misses", counter_event::pending_misses,
       "pending-queue probes by this worker that found nothing"},
      {"/count/stolen", counter_event::stolen,
       "tasks this worker obtained from another worker's queues"},
      {"/count/stolen-remote", counter_event::stolen_remote,
       "tasks this worker stole from a different NUMA domain"},
  };
  for (int w = 0; w < num_workers(); ++w) {
    const std::string inst = "/threads{worker#" + std::to_string(w) + "}";
    const worker_data* wd = workers_[static_cast<std::size_t>(w)].get();
    for (const auto& c : instances) {
      const bool ticks =
          c.event == counter_event::exec_ticks || c.event == counter_event::func_ticks;
      reg.add(inst + c.name, counter_kind::monotonic, c.what, [wd, e = c.event, ticks] {
        const auto v = static_cast<double>(wd->counters.read(e));
        return ticks ? v * tsc_clock::ns_per_tick() : v;
      });
    }
    reg.add(inst + "/count/stolen-local", counter_kind::monotonic,
            "tasks this worker stole within its NUMA domain", [wd] {
              const auto r = wd->counters.read(counter_event::stolen_remote);
              const auto s = wd->counters.read(counter_event::stolen);
              return static_cast<double>(s - std::min(s, r));
            });
    reg.add_histogram(inst + "/histogram/task-duration", "task duration on this worker",
                      "ns", [wd] { return wd->hist_task_duration.snap(); });
    reg.add_histogram(inst + "/histogram/task-ipc", "per-phase IPC on this worker",
                      "milli-IPC", [wd] { return wd->hist_task_ipc.snap(); });
    // Liveness (worker_liveness): what the stall watchdog reads of this
    // worker through its telemetry window.
    reg.add(inst + "/watchdog/heartbeat-age-ns", counter_kind::gauge,
            "age of this worker's last heartbeat, ns", [wd] {
              return age_ns(wd->live->beat_ticks.load(std::memory_order_relaxed),
                            tsc_clock::now());
            });
    reg.add(inst + "/watchdog/running-task", counter_kind::gauge,
            "id of the task whose phase runs on this worker (0 = none)", [wd] {
              if (wd->live->phase_start_ticks.load(std::memory_order_acquire) == 0)
                return 0.0;
              return static_cast<double>(wd->live->task_id.load(std::memory_order_relaxed));
            });
    reg.add(inst + "/watchdog/running-ns", counter_kind::gauge,
            "age of the phase in flight on this worker, ns (0 = none)", [wd] {
              return age_ns(wd->live->phase_start_ticks.load(std::memory_order_acquire),
                            tsc_clock::now());
            });
  }
}

void thread_manager::unregister_counters() {
  perf::registry::instance().remove_prefix("/threads");
}

// --- this_task -------------------------------------------------------------

namespace this_task {

task* current() noexcept { return tl_task; }

void yield() {
  task* t = tl_task;
  if (t == nullptr) {
    std::this_thread::yield();
    return;
  }
  t->request_yield();
  t->mark_suspending();
  fiber::current()->suspend();
}

void prepare_suspend() {
  GRAN_ASSERT_MSG(tl_task != nullptr, "prepare_suspend outside a task");
  tl_task->mark_suspending();
}

void cancel_suspend() {
  GRAN_ASSERT_MSG(tl_task != nullptr, "cancel_suspend outside a task");
  tl_task->cancel_suspend();
}

void commit_suspend() {
  GRAN_ASSERT_MSG(tl_task != nullptr, "commit_suspend outside a task");
  fiber::current()->suspend();
}

void suspend() {
  prepare_suspend();
  commit_suspend();
}

std::uint64_t id() noexcept { return tl_task ? tl_task->id() : 0; }
int worker_index() noexcept { return tl_worker; }

}  // namespace this_task

}  // namespace gran
