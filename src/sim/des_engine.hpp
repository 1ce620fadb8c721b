// The discrete-event engine behind the simulator, generic over the
// workload's dependence structure (internal header — include from sim/*.cpp
// only).
//
// The engine owns everything the paper's scheduling behaviour emerges
// from: per-core dual staged/pending queues, the Priority Local-FIFO
// six-step NUMA-aware search (Fig. 1), the work-stealing and static-FIFO
// ablation policies, management-cost contention scaling, serial dataflow
// node construction by the main thread, idle-probe accounting and parking.
// A Workload supplies only the task graph and per-task execution cost:
//
//   std::uint64_t total_tasks() const;
//   // 0-based construction ordinal of task `id` (step-major order: the
//   // position at which the serial main thread builds its dataflow node).
//   std::uint64_t construction_ordinal(std::uint64_t id) const;
//   // Every task with no dependencies, in construction order.
//   template <typename F> void for_each_root(F&& f) const;       // f(id)
//   int fanin(std::uint64_t id) const;                           // > 0 unless root
//   template <typename F>
//   void for_each_dependent(std::uint64_t id, F&& f) const;      // f(dep_id)
//   // Pre-jitter execution cost with `active_streams` tasks running
//   // machine-wide, and the 1-core baseline variant.
//   double exec_ns(std::uint64_t id, int active_streams, int total_cores) const;
//   double exec_single_core_ns(std::uint64_t id) const;
//   std::size_t fanin_reserve_hint() const;
//
// Instantiations: the heat-ring stencil (sim/des.cpp) and any
// graph::graph_spec pattern (sim/graph_sim.cpp), the edge-free `trivial`
// one (the paper's micro benchmarks) included.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/metrics.hpp"
#include "sim/des.hpp"
#include "sim/machine_model.hpp"
#include "sim/split_sim.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gran::sim::detail {

using time_ns = std::int64_t;

// Task identity: (step, point) packed into 64 bits.
inline std::uint64_t task_id(std::uint64_t step, std::uint64_t part) {
  return (step << 32) | part;
}
inline std::uint32_t id_step(std::uint64_t id) { return static_cast<std::uint32_t>(id >> 32); }
inline std::uint32_t id_part(std::uint64_t id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

struct core_state {
  time_ns now = 0;
  int numa = 0;
  std::deque<std::uint64_t> staged;
  std::deque<std::uint64_t> pending;
  // Per-core queue instrumentation (aggregated into the measurement).
  std::uint64_t pending_accesses = 0;
  std::uint64_t pending_misses = 0;
  std::uint64_t staged_accesses = 0;
  std::uint64_t staged_misses = 0;
};

struct completion_event {
  time_ns at;
  int core;
  std::uint64_t task;
  bool operator>(const completion_event& o) const { return at > o.at; }
};

struct schedule_event {
  time_ns at;
  int core;
  bool operator>(const schedule_event& o) const { return at > o.at; }
};

// A task whose dependencies are met but whose dataflow node the (serial)
// main thread has not constructed yet; it becomes visible at `at`.
struct deferred_stage {
  time_ns at;
  int core;  // worker whose staged queue receives it
  std::uint64_t task;
  bool operator>(const deferred_stage& o) const { return at > o.at; }
};

template <typename Workload>
class des_engine {
 public:
  des_engine(const sim_config& cfg, const Workload& workload)
      : cfg_(cfg),
        w_(workload),
        num_cores_(std::max(1, std::min(cfg.cores, cfg.model.spec.cores))) {
    cores_.resize(static_cast<std::size_t>(num_cores_));
    const int domains =
        std::max(1, std::min(cfg.model.spec.numa_domains, num_cores_));
    for (int c = 0; c < num_cores_; ++c)
      cores_[static_cast<std::size_t>(c)].numa = c * domains / num_cores_;
    numa_members_.resize(static_cast<std::size_t>(domains));
    for (int c = 0; c < num_cores_; ++c) {
      numa_members_[static_cast<std::size_t>(cores_[static_cast<std::size_t>(c)].numa)]
          .push_back(c);
      all_cores_.push_back(c);
    }
    deps_.reserve(w_.fanin_reserve_hint());

    // Bake the shared-structure contention factor into the management
    // costs: base * (1 + contention_per_core * (cores - 1)).
    const double scale =
        1.0 + cfg_.model.contention_per_core * static_cast<double>(num_cores_ - 1);
    model_cost_.task_create_ns *= scale;
    model_cost_.task_convert_ns *= scale;
    model_cost_.queue_op_ns *= scale;
    model_cost_.task_switch_ns *= scale;
    model_cost_.dependency_ns *= scale;
  }

  sim_result run() {
    // Root tasks appear as the main thread constructs their dataflow nodes
    // (serially, step-major order), distributed round-robin — the external
    // spawner's placement in the native policy. The construction time is
    // the main thread's, not a worker's.
    w_.for_each_root([&](std::uint64_t id) {
      const std::uint64_t ordinal = w_.construction_ordinal(id);
      const auto target =
          static_cast<int>(ordinal % static_cast<std::uint64_t>(num_cores_));
      deferred_.push({creation_time(ordinal), target, id});
    });

    for (int c = 0; c < num_cores_; ++c) schedule_.push({0, c});

    const std::uint64_t total_tasks = w_.total_tasks();
    while (tasks_done_ < total_tasks) {
      // Advance whichever event comes first; work-producing events
      // (deferred stages, completions) break ties against scheduler wakes
      // so new work is visible to workers waking at the same instant.
      const time_ns t_def =
          deferred_.empty() ? std::numeric_limits<time_ns>::max() : deferred_.top().at;
      const time_ns t_cmp = completions_.empty() ? std::numeric_limits<time_ns>::max()
                                                 : completions_.top().at;
      const time_ns t_sch =
          schedule_.empty() ? std::numeric_limits<time_ns>::max() : schedule_.top().at;
      if (t_def <= t_cmp && t_def <= t_sch) {
        const deferred_stage ev = deferred_.top();
        deferred_.pop();
        on_deferred(ev);
      } else if (t_cmp <= t_sch) {
        const completion_event ev = completions_.top();
        completions_.pop();
        on_complete(ev);
      } else {
        GRAN_ASSERT_MSG(!schedule_.empty(), "simulation deadlock: no events");
        const schedule_event ev = schedule_.top();
        schedule_.pop();
        on_schedule(ev);
      }
    }

    sim_result result;
    result.makespan_s = static_cast<double>(makespan_) * 1e-9;
    result.tasks_stolen = stolen_;
    result.tasks_converted = converted_;
    result.edges_signaled = edges_signaled_;

    core::run_measurement& m = result.measurement;
    m.exec_time_s = result.makespan_s;
    m.cores = num_cores_;
    m.tasks = tasks_done_;
    m.phases = tasks_done_;  // simulated tasks never suspend: 1 phase each
    m.exec_ns = exec_ns_total_;
    m.func_ns = static_cast<double>(makespan_) * num_cores_;
    for (const core_state& c : cores_) {
      m.pending_accesses += c.pending_accesses;
      m.pending_misses += c.pending_misses;
      m.staged_accesses += c.staged_accesses;
      m.staged_misses += c.staged_misses;
    }
    return result;
  }

 private:
  // --- workload graph ------------------------------------------------------

  // Called when task `id` completes on `core` at its current time; stages
  // every dependent whose predecessors are now all complete.
  void signal_dependents(int core, std::uint64_t id) {
    core_state& cs = cores_[static_cast<std::size_t>(core)];
    w_.for_each_dependent(id, [&](std::uint64_t dep_id) {
      cs.now += model_cost_.dependency_ns;
      ++edges_signaled_;
      auto [it, inserted] = deps_.try_emplace(dep_id, w_.fanin(dep_id));
      if (--it->second == 0) {
        deps_.erase(it);
        // The last-arriving dependency stages the dependent locally
        // (mirroring the native dataflow continuation) — unless the main
        // thread has not constructed the dependent's node yet.
        const time_ns created = creation_time(w_.construction_ordinal(dep_id));
        if (created > cs.now) {
          deferred_.push({created, core, dep_id});
        } else {
          stage_task(core, dep_id);
          wake_parked(cs.now);
        }
      }
    });
  }

  // Virtual instant at which the main thread finishes constructing the
  // dataflow node with 0-based construction ordinal `ordinal`.
  time_ns creation_time(std::uint64_t ordinal) const {
    return static_cast<time_ns>(static_cast<double>(ordinal + 1) *
                                model_cost_.construct_node_ns);
  }

  // A deferred task's node is now constructed: make it visible. The
  // construction cost is the main thread's, so no worker is charged.
  void on_deferred(const deferred_stage& ev) {
    core_state& cs = cores_[static_cast<std::size_t>(ev.core)];
    if (cfg_.policy == sim_policy::work_stealing)
      cs.pending.push_back(ev.task);
    else
      cs.staged.push_back(ev.task);
    wake_parked(ev.at);
  }

  // Places a freshly created task according to the active policy, charging
  // the creating core.
  void stage_task(int core, std::uint64_t id) {
    core_state& cs = cores_[static_cast<std::size_t>(core)];
    cs.now += model_cost_.task_create_ns;
    if (cfg_.policy == sim_policy::work_stealing) {
      // No staged stage: the spawner pays the conversion immediately.
      cs.now += model_cost_.task_convert_ns;
      ++converted_;
      cs.pending.push_back(id);
    } else {
      cs.staged.push_back(id);
    }
  }

  // --- execution ------------------------------------------------------------

  double exec_ns_for(std::uint64_t id) const {
    double exec;
    if (num_cores_ == 1) {
      exec = w_.exec_single_core_ns(id);
    } else {
      exec = w_.exec_ns(id, active_ + 1, num_cores_);
    }
    // Deterministic +-jitter.
    const std::uint64_t h = mix64(id ^ cfg_.seed);
    const double u = mix64_to_unit(h);  // [0,1)
    return exec * (1.0 + cfg_.model.jitter * (2.0 * u - 1.0));
  }

  void start_task(int core, std::uint64_t id) {
    core_state& cs = cores_[static_cast<std::size_t>(core)];
    cs.now += model_cost_.task_switch_ns;
    const double exec = exec_ns_for(id);
    ++active_;
    exec_ns_total_ += exec;
    completions_.push(
        {cs.now + static_cast<time_ns>(std::llround(exec)), core, id});
  }

  void on_complete(const completion_event& ev) {
    core_state& cs = cores_[static_cast<std::size_t>(ev.core)];
    cs.now = std::max(cs.now, ev.at);
    --active_;
    ++tasks_done_;
    makespan_ = std::max(makespan_, ev.at);
    signal_dependents(ev.core, ev.task);
    schedule_.push({cs.now, ev.core});
  }

  // --- the Priority Local-FIFO search (Fig. 1), over virtual queues --------

  // Pops a runnable task for `core`, charging search costs to its clock.
  // Returns ~0ull when no work exists anywhere.
  static constexpr std::uint64_t k_no_task = ~std::uint64_t{0};

  std::uint64_t find_work(int core) {
    if (cfg_.policy == sim_policy::work_stealing) return find_work_ws(core);

    core_state& me = cores_[static_cast<std::size_t>(core)];
    const machine_model& mm = model_cost_;

    // 1. Local pending.
    ++me.pending_accesses;
    me.now += static_cast<time_ns>(mm.queue_op_ns);
    if (!me.pending.empty()) {
      const std::uint64_t id = me.pending.front();
      me.pending.pop_front();
      return id;
    }
    ++me.pending_misses;

    // 2. Local staged: convert -> own pending -> pop.
    ++me.staged_accesses;
    me.now += static_cast<time_ns>(mm.queue_op_ns);
    if (!me.staged.empty()) {
      const std::uint64_t id = me.staged.front();
      me.staged.pop_front();
      return convert_and_take(core, id, /*numa_cross=*/false);
    }
    ++me.staged_misses;

    if (cfg_.policy == sim_policy::static_fifo) return k_no_task;  // no stealing

    if (!cfg_.numa_aware_steal) {
      // Ablation: probe every victim in plain ring order, oblivious to the
      // domain layout (the per-victim NUMA penalty is still physical).
      if (std::uint64_t id = steal_staged(core, all_cores_); id != k_no_task) return id;
      return steal_pending(core, all_cores_);
    }

    // 3./4. Same NUMA domain: staged then pending.
    const auto& local = numa_members_[static_cast<std::size_t>(me.numa)];
    if (std::uint64_t id = steal_staged(core, local); id != k_no_task) return id;
    if (std::uint64_t id = steal_pending(core, local); id != k_no_task) return id;

    // 5./6. Remote domains.
    for (int d = 0; d < static_cast<int>(numa_members_.size()); ++d) {
      if (d == me.numa) continue;
      const auto& remote = numa_members_[static_cast<std::size_t>(d)];
      if (std::uint64_t id = steal_staged(core, remote); id != k_no_task) return id;
    }
    for (int d = 0; d < static_cast<int>(numa_members_.size()); ++d) {
      if (d == me.numa) continue;
      const auto& remote = numa_members_[static_cast<std::size_t>(d)];
      if (std::uint64_t id = steal_pending(core, remote); id != k_no_task) return id;
    }
    return k_no_task;
  }

  // Work-stealing-LIFO: owner pops at the back, thieves steal at the front,
  // plain ring victim order, no staged stage.
  std::uint64_t find_work_ws(int core) {
    core_state& me = cores_[static_cast<std::size_t>(core)];
    const machine_model& mm = model_cost_;

    ++me.pending_accesses;
    me.now += static_cast<time_ns>(mm.queue_op_ns);
    if (!me.pending.empty()) {
      const std::uint64_t id = me.pending.back();
      me.pending.pop_back();
      return id;
    }
    ++me.pending_misses;

    for (int k = 1; k < num_cores_; ++k) {
      const int v = (core + k) % num_cores_;
      core_state& victim = cores_[static_cast<std::size_t>(v)];
      const bool remote = victim.numa != me.numa;
      ++victim.pending_accesses;
      me.now +=
          static_cast<time_ns>(mm.steal_probe_ns + (remote ? mm.numa_penalty_ns : 0.0));
      if (!victim.pending.empty()) {
        const std::uint64_t id = victim.pending.front();
        victim.pending.pop_front();
        ++stolen_;
        return id;
      }
      ++victim.pending_misses;
    }
    return k_no_task;
  }

  std::uint64_t convert_and_take(int core, std::uint64_t id, bool numa_cross) {
    core_state& me = cores_[static_cast<std::size_t>(core)];
    const machine_model& mm = model_cost_;
    ++converted_;
    me.now += static_cast<time_ns>(mm.task_convert_ns +
                                   (numa_cross ? mm.numa_penalty_ns : 0.0));
    // Convert -> own pending queue -> pop (the native round trip, so the
    // pending-access counters keep HPX's semantics).
    me.pending.push_back(id);
    me.now += static_cast<time_ns>(mm.queue_op_ns);
    ++me.pending_accesses;
    me.now += static_cast<time_ns>(mm.queue_op_ns);
    const std::uint64_t got = me.pending.front();
    me.pending.pop_front();
    return got;
  }

  // Probes the staged queues of `members` in ring order after the thief's
  // own position. A hit is converted into the thief's pending queue.
  std::uint64_t steal_staged(int thief, const std::vector<int>& members) {
    core_state& me = cores_[static_cast<std::size_t>(thief)];
    const machine_model& mm = model_cost_;
    const std::size_t n = members.size();
    std::size_t start = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (members[i] == thief) {
        start = i + 1;
        break;
      }
    for (std::size_t k = 0; k < n; ++k) {
      const int v = members[(start + k) % n];
      if (v == thief) continue;
      core_state& victim = cores_[static_cast<std::size_t>(v)];
      const bool remote = victim.numa != me.numa;
      ++victim.staged_accesses;
      me.now +=
          static_cast<time_ns>(mm.steal_probe_ns + (remote ? mm.numa_penalty_ns : 0.0));
      if (!victim.staged.empty()) {
        const std::uint64_t id = victim.staged.front();
        victim.staged.pop_front();
        ++stolen_;
        return convert_and_take(thief, id, remote);
      }
      ++victim.staged_misses;
    }
    return k_no_task;
  }

  std::uint64_t steal_pending(int thief, const std::vector<int>& members) {
    core_state& me = cores_[static_cast<std::size_t>(thief)];
    const machine_model& mm = model_cost_;
    const std::size_t n = members.size();
    std::size_t start = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (members[i] == thief) {
        start = i + 1;
        break;
      }
    for (std::size_t k = 0; k < n; ++k) {
      const int v = members[(start + k) % n];
      if (v == thief) continue;
      core_state& victim = cores_[static_cast<std::size_t>(v)];
      const bool remote = victim.numa != me.numa;
      ++victim.pending_accesses;
      me.now +=
          static_cast<time_ns>(mm.steal_probe_ns + (remote ? mm.numa_penalty_ns : 0.0));
      if (!victim.pending.empty()) {
        const std::uint64_t id = victim.pending.front();
        victim.pending.pop_front();
        ++stolen_;
        return id;
      }
      ++victim.pending_misses;
    }
    return k_no_task;
  }

  void on_schedule(const schedule_event& ev) {
    core_state& me = cores_[static_cast<std::size_t>(ev.core)];
    me.now = std::max(me.now, ev.at);

    const std::uint64_t id = find_work(ev.core);
    if (id != k_no_task) {
      start_task(ev.core, id);
      return;  // re-scheduled by on_complete
    }

    // Nothing anywhere. Work can only appear when a running task completes
    // or the main thread constructs the next node; fast-forward to the
    // earlier of the two and account the probe rounds the real runtime
    // would have burned (they are what Figs. 9/10's right-hand rise is made
    // of).
    time_ns next_work = std::numeric_limits<time_ns>::max();
    if (!completions_.empty()) next_work = completions_.top().at;
    if (!deferred_.empty()) next_work = std::min(next_work, deferred_.top().at);
    if (next_work == std::numeric_limits<time_ns>::max()) {
      // Nothing running either: park until someone stages new work (or the
      // simulation ends — the main loop stops at the last completion).
      parked_.push_back(ev.core);
      return;
    }
    const time_ns wake =
        std::max(me.now + static_cast<time_ns>(cfg_.model.idle_probe_ns), next_work);
    account_idle_probes(ev.core, wake - me.now);
    me.now = wake;
    schedule_.push({me.now, ev.core});
  }

  // Re-arms every parked core at `at` (new work appeared).
  void wake_parked(time_ns at) {
    for (const int c : parked_)
      schedule_.push({std::max(cores_[static_cast<std::size_t>(c)].now, at), c});
    parked_.clear();
  }

  // One fruitless search = 1 own-pending + 1 own-staged probe plus a probe
  // of every other core's staged and pending queue. Attribute the skipped
  // rounds' counts arithmetically instead of iterating them.
  void account_idle_probes(int core, time_ns span) {
    // Backoff model: spin for up to idle_spin_rounds searches, then park
    // until new work wakes the worker (no further queue traffic).
    const auto probe = std::max<time_ns>(1, static_cast<time_ns>(cfg_.model.idle_probe_ns));
    const std::uint64_t rounds = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::max<int>(1, cfg_.model.idle_spin_rounds)),
        static_cast<std::uint64_t>(std::max<time_ns>(1, span / probe)));
    core_state& me = cores_[static_cast<std::size_t>(core)];
    const auto others = static_cast<std::uint64_t>(num_cores_ - 1);
    me.pending_accesses += rounds * (1 + others);
    me.pending_misses += rounds * (1 + others);
    if (cfg_.policy != sim_policy::work_stealing) {
      // Only the dual-queue policies probe staged queues while searching.
      me.staged_accesses += rounds * (1 + others);
      me.staged_misses += rounds * (1 + others);
    }
  }

  // --- state ----------------------------------------------------------------

  sim_config cfg_;
  const Workload& w_;
  const int num_cores_;
  // Cached copy of cost constants (hot loop reads; scaled by contention).
  machine_model model_cost_ = cfg_.model;

  std::vector<core_state> cores_;
  std::vector<std::vector<int>> numa_members_;
  std::vector<int> all_cores_;
  std::unordered_map<std::uint64_t, int> deps_;

  std::priority_queue<completion_event, std::vector<completion_event>,
                      std::greater<completion_event>>
      completions_;
  std::priority_queue<schedule_event, std::vector<schedule_event>,
                      std::greater<schedule_event>>
      schedule_;
  std::priority_queue<deferred_stage, std::vector<deferred_stage>,
                      std::greater<deferred_stage>>
      deferred_;

  std::vector<int> parked_;
  int active_ = 0;
  std::uint64_t tasks_done_ = 0;
  std::uint64_t stolen_ = 0;
  std::uint64_t converted_ = 0;
  std::uint64_t edges_signaled_ = 0;
  double exec_ns_total_ = 0.0;
  time_ns makespan_ = 0;
};

// --- lazy splitting mirror ---------------------------------------------------
//
// Simulated counterpart of the native closed-loop splitting executor
// (core/split_controller.hpp + algo/splittable.hpp), over the simplest
// workload that exhibits the paper's granularity U-curve: `items` uniform
// independent loop iterations on `cores` cores.
//
//   fixed mode (lazy = false): the loop is pre-chunked into items/chunk
//     tasks, created serially by the main thread (one task_create_ns each —
//     the native parallel_for spawn loop) and dealt round-robin. This is the
//     Fig. 3 grain sweep's subject: per-task management costs wall off fine
//     grains, tail imbalance walls off coarse ones.
//   lazy mode: one coarse block per core; an idle core that finds no queued
//     work picks the *running* task with the most remaining items and, when
//     at least 2×min_chunk remain, takes the back half — paying the steal
//     probe plus the full create/convert/switch path for the child, while
//     the victim pays the spawn (task_create_ns) and finishes early. Demand
//     with no splittable candidate counts as split-denied. This is the
//     simulator's version of the native controller, with one idealization:
//     demand here is exact (the sim knows precisely who is idle), whereas
//     the native side approximates it with the starving-worker count and the
//     sampled idle-rate gate between poll boundaries.
//
// Per-task imbalance (the `imbalance` dial, same convention as
// graph::kernel_spec) scales each task's per-item cost deterministically so
// lazy splitting has hot blocks to fix. The checksum is a wrapping sum of a
// per-item hash — commutative, so any split layout (or the native executor)
// over the same [0, items) range produces the same value.

class lazy_split_engine {
 public:
  explicit lazy_split_engine(const split_sim_config& cfg)
      : cfg_(cfg), num_cores_(std::max(1, cfg.cores)) {
    // Same contention scaling as des_engine: shared-structure management
    // costs grow with the core count.
    const double scale =
        1.0 + cfg_.model.contention_per_core * static_cast<double>(num_cores_ - 1);
    create_ns_ = cfg_.model.task_create_ns * scale;
    convert_ns_ = cfg_.model.task_convert_ns * scale;
    queue_ns_ = cfg_.model.queue_op_ns * scale;
    switch_ns_ = cfg_.model.task_switch_ns * scale;
    steal_ns_ = cfg_.model.steal_probe_ns;
    const int domains =
        std::max(1, std::min(cfg_.model.spec.numa_domains, num_cores_));
    cores_.resize(static_cast<std::size_t>(num_cores_));
    for (int c = 0; c < num_cores_; ++c)
      cores_[static_cast<std::size_t>(c)].numa = c * domains / num_cores_;
  }

  split_sim_result run() {
    seed_tasks();
    for (int c = 0; c < num_cores_; ++c) push_event(0, event_kind::wake, c);

    while (!events_.empty()) {
      const event ev = events_.top();
      events_.pop();
      switch (ev.kind) {
        case event_kind::arrival:
          on_arrival(ev);
          break;
        case event_kind::completion:
          on_completion(ev);
          break;
        case event_kind::wake:
          on_wake(ev);
          break;
      }
    }
    GRAN_ASSERT_MSG(items_executed_ == cfg_.items,
                    "split sim lost or duplicated items");

    split_sim_result r;
    r.makespan_s = static_cast<double>(makespan_) * 1e-9;
    r.tasks = tasks_done_;
    r.splits = splits_;
    r.split_denied = split_denied_;
    r.steals = steals_;
    r.items_executed = items_executed_;
    r.checksum = checksum_;
    r.exec_ns = exec_ns_total_;
    r.func_ns = static_cast<double>(makespan_) * num_cores_;
    r.idle_rate =
        r.func_ns > 0.0 ? std::max(0.0, r.func_ns - r.exec_ns) / r.func_ns : 0.0;
    return r;
  }

 private:
  enum class event_kind : int { arrival = 0, completion = 1, wake = 2 };

  struct event {
    time_ns at = 0;
    event_kind kind = event_kind::wake;
    int core = 0;
    std::uint64_t gen = 0;  // completion validity (bumped when a split
                            // shortens the running range)
    std::uint64_t lo = 0, hi = 0;  // arrival payload
    // Work-producing events (arrivals, completions) beat wakes at the same
    // instant, matching des_engine's tie-breaking.
    bool operator>(const event& o) const {
      if (at != o.at) return at > o.at;
      return static_cast<int>(kind) > static_cast<int>(o.kind);
    }
  };

  struct running_task {
    bool active = false;
    std::uint64_t lo = 0, hi = 0;
    time_ns exec_start = 0;   // when item `lo` began executing
    double item_ns = 0.0;     // this task's per-item cost (imbalance applied)
    std::uint64_t gen = 0;
  };

  struct split_core_state {
    time_ns now = 0;
    int numa = 0;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> ready;
    running_task run;
  };

  void push_event(time_ns at, event_kind kind, int core, std::uint64_t gen = 0,
                  std::uint64_t lo = 0, std::uint64_t hi = 0) {
    events_.push({at, kind, core, gen, lo, hi});
  }

  // Deterministic per-task item cost: task ordinal `ord` runs its items at
  // item_ns * (1 + imbalance * u), u in [-1, 1). Split-off children inherit
  // the parent's cost (they execute the same items).
  double task_item_ns(std::uint64_t ord) const {
    if (cfg_.imbalance == 0.0) return std::max(1e-3, cfg_.item_ns);
    const double u = 2.0 * mix64_to_unit(mix64(cfg_.seed ^ (ord * 0x9e37u))) - 1.0;
    return std::max(1e-3, cfg_.item_ns * (1.0 + cfg_.imbalance * u));
  }

  // The main thread spawns every initial task serially — chunk k exists
  // only after k+1 create costs, the native parallel_for spawn loop's
  // supply cap at fine grains.
  void seed_tasks() {
    const std::uint64_t n = cfg_.items;
    if (n == 0) return;
    std::uint64_t blocks;
    std::uint64_t chunk;
    if (cfg_.lazy) {
      blocks = cfg_.initial_tasks != 0
                   ? cfg_.initial_tasks
                   : static_cast<std::uint64_t>(num_cores_);
      blocks = std::max<std::uint64_t>(1, std::min(blocks, n));
      chunk = 0;  // even block distribution below
    } else {
      chunk = cfg_.chunk != 0 ? cfg_.chunk
                              : std::max<std::uint64_t>(
                                    1, n / static_cast<std::uint64_t>(num_cores_));
      blocks = (n + chunk - 1) / chunk;
    }
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t lo = cfg_.lazy ? n * b / blocks : b * chunk;
      const std::uint64_t hi = cfg_.lazy ? n * (b + 1) / blocks
                                         : std::min(n, lo + chunk);
      if (lo >= hi) continue;
      const auto at = static_cast<time_ns>(static_cast<double>(b + 1) * create_ns_);
      push_event(at, event_kind::arrival,
                 static_cast<int>(b % static_cast<std::uint64_t>(num_cores_)),
                 /*gen=*/0, lo, hi);
    }
  }

  void on_arrival(const event& ev) {
    cores_[static_cast<std::size_t>(ev.core)].ready.emplace_back(ev.lo, ev.hi);
    wake_parked(ev.at);
  }

  void on_completion(const event& ev) {
    split_core_state& me = cores_[static_cast<std::size_t>(ev.core)];
    if (!me.run.active || ev.gen != me.run.gen) return;  // superseded by a split
    me.now = std::max(me.now, ev.at);
    makespan_ = std::max(makespan_, me.now);
    account_range(me.run.lo, me.run.hi, me.run.item_ns);
    me.run.active = false;
    ++tasks_done_;
    find_work(ev.core);
  }

  void on_wake(const event& ev) {
    split_core_state& me = cores_[static_cast<std::size_t>(ev.core)];
    me.now = std::max(me.now, ev.at);
    if (me.run.active) return;  // already got work through an earlier event
    find_work(ev.core);
  }

  void account_range(std::uint64_t lo, std::uint64_t hi, double per_item) {
    items_executed_ += hi - lo;
    exec_ns_total_ += static_cast<double>(hi - lo) * per_item;
    if (cfg_.hash_items)
      for (std::uint64_t i = lo; i < hi; ++i)
        checksum_ += split_item_hash(cfg_.seed, i);
  }

  void start_range(int core, std::uint64_t lo, std::uint64_t hi, double per_item,
                   double setup_ns) {
    split_core_state& me = cores_[static_cast<std::size_t>(core)];
    me.now += static_cast<time_ns>(setup_ns);
    me.run.active = true;
    me.run.lo = lo;
    me.run.hi = hi;
    me.run.item_ns = per_item;
    me.run.exec_start = me.now;
    ++me.run.gen;
    const double exec = static_cast<double>(hi - lo) * per_item;
    push_event(me.now + static_cast<time_ns>(exec), event_kind::completion, core,
               me.run.gen);
  }

  // Items of `rt` already executed at instant `t` (never beyond its range).
  static std::uint64_t items_done_at(const running_task& rt, time_ns t) {
    if (t <= rt.exec_start) return 0;
    const auto done = static_cast<std::uint64_t>(
        static_cast<double>(t - rt.exec_start) / rt.item_ns);
    return std::min(done, rt.hi - rt.lo);
  }

  void find_work(int core) {
    split_core_state& me = cores_[static_cast<std::size_t>(core)];

    // 1. Own ready queue (pop + convert + switch: the task was created
    // staged by the serial spawner).
    me.now += static_cast<time_ns>(queue_ns_);
    if (!me.ready.empty()) {
      const auto [lo, hi] = me.ready.front();
      me.ready.pop_front();
      start_range(core, lo, hi, task_item_ns(next_task_ord_++),
                  convert_ns_ + switch_ns_);
      return;
    }

    // 2. Steal a queued range, ring order, NUMA penalty when crossing.
    for (int k = 1; k < num_cores_; ++k) {
      const int v = (core + k) % num_cores_;
      split_core_state& victim = cores_[static_cast<std::size_t>(v)];
      const bool remote = victim.numa != me.numa;
      me.now += static_cast<time_ns>(steal_ns_ +
                                     (remote ? cfg_.model.numa_penalty_ns : 0.0));
      if (!victim.ready.empty()) {
        const auto [lo, hi] = victim.ready.front();
        victim.ready.pop_front();
        ++steals_;
        start_range(core, lo, hi, task_item_ns(next_task_ord_++),
                    convert_ns_ + switch_ns_);
        return;
      }
    }

    // 3. Lazy mode: split the running task with the most remaining items.
    if (cfg_.lazy && try_split_into(core)) return;

    // Nothing available: wait for the next work-producing event. When none
    // can occur the core leaves the simulation (the loop drains).
    park(core);
  }

  bool try_split_into(int thief) {
    split_core_state& me = cores_[static_cast<std::size_t>(thief)];
    int best = -1;
    std::uint64_t best_remaining = 0;
    bool any_running = false;
    for (int v = 0; v < num_cores_; ++v) {
      if (v == thief) continue;
      const running_task& rt = cores_[static_cast<std::size_t>(v)].run;
      if (!rt.active) continue;
      any_running = true;
      const std::uint64_t done = items_done_at(rt, me.now);
      const std::uint64_t remaining = rt.hi - rt.lo - done;
      if (remaining >= 2 * std::max<std::uint64_t>(1, cfg_.min_chunk) &&
          remaining > best_remaining) {
        best = v;
        best_remaining = remaining;
      }
    }
    // The victim scan rides on the steal probes already charged in step 2.
    if (best < 0) {
      if (any_running) ++split_denied_;
      return false;
    }

    split_core_state& victim = cores_[static_cast<std::size_t>(best)];
    running_task& rt = victim.run;
    const std::uint64_t done = items_done_at(rt, me.now);
    const std::uint64_t cursor = rt.lo + done;
    // Keep the front of the remainder with the victim (round up, as the
    // native splitter does), give the thief the back half.
    const std::uint64_t mid = cursor + (rt.hi - cursor + 1) / 2;
    const std::uint64_t child_hi = rt.hi;
    ++splits_;

    // Victim: finishes early at its shortened range; it also pays the spawn
    // of the child (the native record_split + spawn_on path).
    rt.hi = mid;
    ++rt.gen;
    const double kept =
        static_cast<double>(rt.hi - rt.lo) * rt.item_ns + create_ns_;
    push_event(rt.exec_start + static_cast<time_ns>(kept), event_kind::completion,
               best, rt.gen);

    // Thief: convert + switch for the freshly created child; the child
    // executes the parent's items at the parent's per-item cost.
    start_range(thief, mid, child_hi, rt.item_ns, convert_ns_ + switch_ns_);
    return true;
  }

  void park(int core) {
    parked_.push_back(core);
  }

  void wake_parked(time_ns at) {
    for (const int c : parked_) {
      const time_ns t = std::max(cores_[static_cast<std::size_t>(c)].now, at);
      push_event(std::max(t, at + static_cast<time_ns>(cfg_.model.idle_probe_ns)),
                 event_kind::wake, c);
    }
    parked_.clear();
  }

  split_sim_config cfg_;
  const int num_cores_;
  double create_ns_ = 0, convert_ns_ = 0, queue_ns_ = 0, switch_ns_ = 0,
         steal_ns_ = 0;

  std::vector<split_core_state> cores_;
  std::priority_queue<event, std::vector<event>, std::greater<event>> events_;
  std::vector<int> parked_;

  std::uint64_t next_task_ord_ = 0;
  std::uint64_t tasks_done_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t split_denied_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t items_executed_ = 0;
  std::uint64_t checksum_ = 0;
  double exec_ns_total_ = 0.0;
  time_ns makespan_ = 0;
};

}  // namespace gran::sim::detail
