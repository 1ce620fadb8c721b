#include "perf/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace gran::perf {

namespace {

// A closed phase slice on some worker, used both for per-task exec totals
// and for provenance lookup (which task was running on worker w at time t).
struct phase_interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t task = 0;
};

// Raw per-task accumulation in ticks, converted to ns at the end.
struct task_state {
  std::uint64_t id = 0;
  const char* name = nullptr;
  std::vector<phase_interval> phases;  // closed slices, in begin order
  std::uint64_t exec_ticks = 0;
  std::uint64_t suspend_ticks = 0;
  bool has_enqueue = false;
  std::uint64_t enqueue_ticks = 0;
  std::uint16_t spawn_worker = 0;
  bool has_begin = false;
  std::uint64_t first_begin = 0;
  std::uint16_t first_worker = 0;
  bool has_end = false;           // at least one closed phase
  std::uint64_t last_end = 0;
  bool complete = false;          // task_end retained
  bool has_steal = false;
  std::uint64_t steal_ticks = 0;  // steal observed before the first run
  bool has_graph = false;
  std::uint32_t graph_step = 0;
  std::uint32_t graph_point = 0;
  bool split_child = false;        // spawned as the back half of a split
  std::uint64_t split_point = 0;   // first index of the inherited range
  // Hardware-counter sums from task_pmu records (kernel vs scheduler-gap).
  bool has_pmu = false;
  std::uint64_t pmu_cycles = 0;
  std::uint64_t pmu_instructions = 0;
  std::uint64_t pmu_llc = 0;
  std::uint64_t pmu_sched_cycles = 0;
  std::uint64_t pmu_sched_instructions = 0;
  std::uint64_t pmu_sched_llc = 0;
  // Critical-path DP state.
  bool has_parent = false;
  std::uint64_t parent_id = 0;
  double start_len = 0;  // exec-weighted chain length up to this task's spawn
  double end_len = 0;    // start_len + own exec
  bool dp_done = false;
  bool on_critical_path = false;
};

// Per-worker reconstruction state while scanning the merged stream.
struct worker_state {
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t last = 0;
  // worker_start/worker_stop pairs, the first and last Σt_func stamps of
  // each worker loop run on this lane (one per manager). `unpaired` marks a
  // start or a stop whose partner is missing (wrapped ring, live capture).
  bool started = false;
  bool unpaired = false;
  std::uint64_t start = 0;
  std::uint64_t loop_pairs = 0;
  std::uint64_t loop_ticks = 0;
  std::uint64_t busy_ticks = 0;
  std::uint64_t parked_ticks = 0;
  bool parked = false;
  std::uint64_t park_begin = 0;
  std::uint64_t completed = 0;
  std::uint64_t spawned = 0;
  std::uint64_t steals = 0;
  std::uint64_t dropped = 0;
  bool open = false;  // a phase is running
  std::uint64_t open_begin = 0;
  std::uint64_t open_task = 0;
  // A task_split was seen and its child's task_enqueue has not arrived yet.
  // The runner emits the pair back-to-back on the parent's lane
  // (thread_manager::record_split immediately precedes the spawn), so the
  // next enqueue on this lane is the split child.
  bool split_pending = false;
  std::uint64_t split_parent = 0;
  std::uint64_t split_point = 0;
  std::uint64_t splits = 0;
  // A phase just ended and its kernel task_pmu record has not arrived yet.
  // run_phase emits the pair back-to-back at the same timestamp on one
  // lane, so like split_pending this adjacency survives wraparound: a
  // stale flag is simply overwritten by the next end event, and the
  // open-phase branch takes precedence after a begin.
  bool pmu_pending = false;
  std::uint64_t pmu_last_task = 0;
  std::vector<phase_interval> done;  // closed phases, naturally begin-sorted
};

// Sum of `t`'s executed ticks that happened strictly before `cut` — the
// share of a parent's work a spawned child can inherit on the chain.
double exec_before(const task_state& t, std::uint64_t cut) {
  double total = 0;
  for (const auto& p : t.phases) {
    if (p.begin >= cut) break;
    total += static_cast<double>(std::min(p.end, cut) - p.begin);
  }
  return total;
}

// The task whose closed phase on this worker covers `ticks`, if any.
// `done` is begin-sorted with disjoint intervals (phases on one worker are
// sequential), so one binary search suffices.
const phase_interval* covering_phase(const std::vector<phase_interval>& done,
                                     std::uint64_t ticks) {
  auto it = std::upper_bound(
      done.begin(), done.end(), ticks,
      [](std::uint64_t t, const phase_interval& p) { return t < p.begin; });
  if (it == done.begin()) return nullptr;
  --it;
  return ticks <= it->end ? &*it : nullptr;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Time-weighted sweep over +1/-1 level changes: returns {avg, max} of the
// level across [t0, t1]. `deltas` need not be sorted on entry.
struct sweep_stats {
  double avg = 0;
  std::uint64_t max = 0;
};
sweep_stats sweep_levels(std::vector<std::pair<std::uint64_t, int>>& deltas,
                         std::uint64_t t0, std::uint64_t t1) {
  sweep_stats out;
  if (deltas.empty() || t1 <= t0) return out;
  // At equal timestamps apply -1 before +1 so back-to-back phases on one
  // worker don't read as a level-2 spike.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first : a.second < b.second;
            });
  double area = 0;
  long level = 0;
  std::uint64_t prev = t0;
  for (const auto& [ticks, delta] : deltas) {
    const std::uint64_t t = std::clamp(ticks, t0, t1);
    area += static_cast<double>(level) * static_cast<double>(t - prev);
    prev = t;
    level += delta;
    if (level > 0) out.max = std::max(out.max, static_cast<std::uint64_t>(level));
  }
  area += static_cast<double>(level) * static_cast<double>(t1 - prev);
  out.avg = area / static_cast<double>(t1 - t0);
  return out;
}

}  // namespace

analysis_result analyze_trace(const trace_dump& dump, const analysis_options& opt) {
  analysis_result r;
  r.ns_per_tick = dump.ns_per_tick;

  // Merge all lanes into one time-ordered stream. Lanes are individually
  // ordered but mutually arbitrary; stable sort keeps each lane's internal
  // order for tied timestamps, which the begin/end pairing relies on.
  std::vector<trace_event> ev;
  ev.reserve(static_cast<std::size_t>(dump.total_events()));
  std::map<std::uint16_t, worker_state> ws;  // ordered for stable report rows
  for (const auto& lane : dump.lanes) {
    ws[lane.worker].dropped += lane.dropped;
    ev.insert(ev.end(), lane.events.begin(), lane.events.end());
  }
  r.total_events = ev.size();
  r.total_dropped = dump.total_dropped();
  if (ev.empty()) {
    r.error = "trace contains no events (was tracing enabled before the "
              "thread manager was constructed?)";
    return r;
  }
  std::stable_sort(ev.begin(), ev.end(),
                   [](const trace_event& a, const trace_event& b) {
                     return a.ticks < b.ticks;
                   });
  const std::uint64_t wall_begin = ev.front().ticks;
  const std::uint64_t wall_end = ev.back().ticks;

  std::vector<task_state> tasks;
  std::unordered_map<std::uint64_t, std::size_t> task_index;
  const auto task_of = [&](std::uint64_t id) -> task_state& {
    auto [it, fresh] = task_index.emplace(id, tasks.size());
    if (fresh) {
      tasks.emplace_back();
      tasks.back().id = id;
    }
    return tasks[it->second];
  };

  for (const auto& e : ev) {
    auto& w = ws[e.worker];
    w.first = std::min(w.first, e.ticks);
    w.last = std::max(w.last, e.ticks);
    switch (e.kind) {
      case trace_kind::task_begin:
      case trace_kind::phase_begin: {
        auto& t = task_of(e.arg);
        if (!t.has_begin) {
          t.has_begin = true;
          t.first_begin = e.ticks;
          t.first_worker = e.worker;
        }
        if (e.name != nullptr) t.name = e.name;
        if (t.has_end && e.ticks > t.last_end)
          t.suspend_ticks += e.ticks - t.last_end;
        w.open = true;
        w.open_begin = e.ticks;
        w.open_task = e.arg;
        break;
      }
      case trace_kind::task_end:
      case trace_kind::phase_end: {
        // Wraparound can orphan an end whose begin was overwritten; pair
        // only when the open phase matches this task.
        if (w.open && w.open_task == e.arg && e.ticks >= w.open_begin) {
          auto& t = task_of(e.arg);
          t.phases.push_back({w.open_begin, e.ticks, e.arg});
          t.exec_ticks += e.ticks - w.open_begin;
          t.has_end = true;
          t.last_end = e.ticks;
          w.busy_ticks += e.ticks - w.open_begin;
          w.done.push_back({w.open_begin, e.ticks, e.arg});
        }
        w.open = false;
        // The kernel-delta task_pmu record (if the plane was on) follows
        // this event immediately on the lane.
        w.pmu_pending = true;
        w.pmu_last_task = e.arg;
        if (e.kind == trace_kind::task_end) {
          task_of(e.arg).complete = true;
          ++w.completed;
        }
        break;
      }
      case trace_kind::task_enqueue: {
        auto& t = task_of(e.arg);
        if (!t.has_enqueue) {
          t.has_enqueue = true;
          t.enqueue_ticks = e.ticks;
          t.spawn_worker = static_cast<std::uint16_t>(e.arg2);
        }
        if (w.split_pending) {
          // Direct provenance: the task_split event names the parent, so the
          // edge does not depend on the parent's phase events surviving ring
          // wraparound.
          t.split_child = true;
          t.split_point = w.split_point;
          t.has_parent = true;
          t.parent_id = w.split_parent;
          w.split_pending = false;
        }
        ++w.spawned;
        break;
      }
      case trace_kind::task_split: {
        w.split_pending = true;
        w.split_parent = e.arg;
        w.split_point = e.arg2;
        ++w.splits;
        break;
      }
      case trace_kind::steal: {
        ++w.steals;
        auto& t = task_of(e.arg);
        if (!t.has_begin) {  // steal before the first run: wait-path latency
          t.has_steal = true;
          t.steal_ticks = e.ticks;
        }
        break;
      }
      case trace_kind::park:
        w.parked = true;
        w.park_begin = e.ticks;
        break;
      case trace_kind::unpark:
        if (w.parked && e.ticks >= w.park_begin)
          w.parked_ticks += e.ticks - w.park_begin;
        w.parked = false;
        break;
      case trace_kind::graph_node: {
        auto& t = task_of(e.arg);
        t.has_graph = true;
        t.graph_step = graph_node_step(e.arg2);
        t.graph_point = graph_node_point(e.arg2);
        break;
      }
      case trace_kind::task_pmu: {
        // Lane-adjacent pairing: while a phase is open the record is the
        // scheduler-gap delta emitted right after the begin event; otherwise
        // it is the kernel delta following the end event flagged above.
        if (w.open) {
          auto& t = task_of(w.open_task);
          t.has_pmu = true;
          t.pmu_sched_cycles += pmu_arg_cycles(e.arg);
          t.pmu_sched_instructions += pmu_arg_instructions(e.arg);
          t.pmu_sched_llc += e.arg2;
        } else if (w.pmu_pending) {
          auto& t = task_of(w.pmu_last_task);
          t.has_pmu = true;
          t.pmu_cycles += pmu_arg_cycles(e.arg);
          t.pmu_instructions += pmu_arg_instructions(e.arg);
          t.pmu_llc += e.arg2;
          w.pmu_pending = false;
        }
        break;
      }
      case trace_kind::worker_start:
        if (w.started) w.unpaired = true;
        w.started = true;
        w.start = e.ticks;
        break;
      case trace_kind::worker_stop:
        if (w.started && e.ticks >= w.start) {
          w.loop_ticks += e.ticks - w.start;
          ++w.loop_pairs;
        } else {
          w.unpaired = true;
        }
        w.started = false;
        break;
      case trace_kind::pending_miss:
      case trace_kind::pin_rejected:
      case trace_kind::steal_request:
      case trace_kind::steal_handoff:
        // Channel-steal request traffic is summarized by the steal-req-*
        // counters; per-event accounting adds nothing to Eq. 1–3.
        break;
    }
  }

  const double npt = r.ns_per_tick;
  r.wall_ns = static_cast<double>(wall_end - wall_begin) * npt;

  // Per-worker timelines and the trace-side Eq. 1–3 inputs. A lane's func
  // span is the sum of its worker_start..worker_stop pairs, the stamps that
  // bound each worker loop's Σt_func; a lane whose pairs are incomplete (a
  // live capture, a wrapped ring) or absent (an older dump) falls back to
  // its first..last event. The external lane only carries provenance from
  // non-worker threads — it is not a scheduler loop, so it contributes
  // nothing to func.
  for (const auto& [widx, w] : ws) {
    if (widx == external_worker) continue;
    worker_timeline wt;
    wt.worker = widx;
    if (w.loop_pairs > 0 && !w.unpaired && !w.started)
      wt.span_ns = static_cast<double>(w.loop_ticks) * npt;
    else if (w.first <= w.last)
      wt.span_ns = static_cast<double>(w.last - w.first) * npt;
    wt.busy_ns = static_cast<double>(w.busy_ticks) * npt;
    wt.parked_ns = static_cast<double>(w.parked_ticks) * npt;
    wt.tasks_completed = w.completed;
    wt.tasks_spawned = w.spawned;
    wt.steals = w.steals;
    wt.splits = w.splits;
    wt.dropped = w.dropped;
    r.func_ns += wt.span_ns;
    r.exec_ns += wt.busy_ns;
    r.tasks_completed += w.completed;
    r.workers.push_back(wt);
  }
  r.num_workers = static_cast<int>(r.workers.size());
  if (r.func_ns > 0) r.idle_rate = (r.func_ns - r.exec_ns) / r.func_ns;
  if (r.tasks_completed > 0) {
    r.task_duration_ns = r.exec_ns / static_cast<double>(r.tasks_completed);
    r.task_overhead_ns =
        (r.func_ns - r.exec_ns) / static_cast<double>(r.tasks_completed);
  }

  // Provenance: the parent of a spawned task is whichever task's phase on
  // the spawning worker covered the enqueue instant. Dataflow continuations
  // fire from the worker that completed the last input, so this recovers
  // the DAG edge that actually gated the spawn.
  for (auto& t : tasks) {
    if (t.split_child) continue;  // already bound by its task_split event
    if (!t.has_enqueue || t.spawn_worker == external_worker) continue;
    const auto it = ws.find(t.spawn_worker);
    if (it == ws.end()) continue;
    const phase_interval* p = covering_phase(it->second.done, t.enqueue_ticks);
    if (p != nullptr && p->task != t.id) {
      t.has_parent = true;
      t.parent_id = p->task;
    }
  }

  // Critical path: longest exec-weighted chain through spawn edges, where a
  // parent contributes only work finished before the spawn. Processing in
  // first_begin order guarantees each parent's DP state exists before any
  // child reads it (parent was running at the enqueue, so its first begin
  // precedes the child's).
  std::vector<std::size_t> order;
  order.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (tasks[i].has_begin) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].first_begin < tasks[b].first_begin;
  });
  double best_len = 0;
  std::size_t best_task = tasks.size();
  for (const std::size_t i : order) {
    auto& t = tasks[i];
    t.start_len = 0;
    if (t.has_parent) {
      const auto pit = task_index.find(t.parent_id);
      if (pit != task_index.end() && tasks[pit->second].dp_done)
        t.start_len = tasks[pit->second].start_len +
                      exec_before(tasks[pit->second], t.enqueue_ticks);
    }
    t.end_len = t.start_len + static_cast<double>(t.exec_ticks);
    t.dp_done = true;
    if (t.end_len > best_len || best_task == tasks.size()) {
      best_len = t.end_len;
      best_task = i;
    }
  }
  if (best_task != tasks.size()) {
    r.critical_path_ns = best_len * npt;
    if (r.wall_ns > 0) r.critical_path_frac = r.critical_path_ns / r.wall_ns;
    // Walk parent pointers back to the root, then reverse.
    std::size_t cur = best_task;
    while (true) {
      tasks[cur].on_critical_path = true;
      r.critical_chain.push_back(tasks[cur].id);
      if (!tasks[cur].has_parent) break;
      const auto pit = task_index.find(tasks[cur].parent_id);
      if (pit == task_index.end() || pit->second == cur) break;
      cur = pit->second;
    }
    std::reverse(r.critical_chain.begin(), r.critical_chain.end());
  }

  // Wait attribution (Eq. 5 per task). Any wraparound loss makes the
  // enqueue/begin pairing untrustworthy — refuse rather than under-report.
  std::uint64_t enqueues = 0;
  for (const auto& t : tasks)
    if (t.has_enqueue) ++enqueues;
  if (r.total_dropped > 0 && !opt.force_wait_attribution) {
    r.waits_error =
        "refused: " + std::to_string(r.total_dropped) +
        " events lost to ring wraparound, so spawn->run pairs may be "
        "incomplete and waits would be under-reported; raise GRAN_TRACE_BUF "
        "(or force with --force-waits to explore anyway)";
  } else if (enqueues == 0) {
    r.waits_error = "refused: trace has no task_enqueue events";
  } else {
    r.waits_valid = true;
    std::vector<double> waits;
    double queue_sum = 0, steal_sum = 0;
    for (auto& t : tasks) {
      if (!t.has_enqueue || !t.has_begin || t.first_begin < t.enqueue_ticks)
        continue;
      const double wait = static_cast<double>(t.first_begin - t.enqueue_ticks) * npt;
      waits.push_back(wait);
      const bool stolen = t.has_steal && t.steal_ticks >= t.enqueue_ticks &&
                          t.steal_ticks <= t.first_begin;
      if (stolen) {
        ++r.stolen_waits;
        queue_sum += static_cast<double>(t.steal_ticks - t.enqueue_ticks) * npt;
        steal_sum += static_cast<double>(t.first_begin - t.steal_ticks) * npt;
      } else {
        queue_sum += wait;
      }
    }
    r.waits_counted = waits.size();
    if (!waits.empty()) {
      double sum = 0;
      for (const double w : waits) sum += w;
      r.wait_mean_ns = sum / static_cast<double>(waits.size());
      std::sort(waits.begin(), waits.end());
      r.wait_p95_ns = percentile(waits, 0.95);
      r.wait_max_ns = waits.back();
      r.queue_wait_mean_ns = queue_sum / static_cast<double>(waits.size());
      if (r.stolen_waits > 0)
        r.steal_latency_mean_ns = steal_sum / static_cast<double>(r.stolen_waits);
    }
  }

  // Reconstructed timelines: running-phase concurrency and runnable backlog
  // (spawned but not yet first-run).
  {
    std::vector<std::pair<std::uint64_t, int>> deltas;
    for (const auto& t : tasks)
      for (const auto& p : t.phases) {
        deltas.emplace_back(p.begin, +1);
        deltas.emplace_back(p.end, -1);
      }
    const auto s = sweep_levels(deltas, wall_begin, wall_end);
    r.avg_concurrency = s.avg;
    r.max_concurrency = s.max;
  }
  {
    std::vector<std::pair<std::uint64_t, int>> deltas;
    for (const auto& t : tasks) {
      if (!t.has_enqueue || !t.has_begin || t.first_begin < t.enqueue_ticks)
        continue;
      deltas.emplace_back(t.enqueue_ticks, +1);
      deltas.emplace_back(t.first_begin, -1);
    }
    const auto s = sweep_levels(deltas, wall_begin, wall_end);
    r.avg_runnable = s.avg;
    r.max_runnable = s.max;
  }

  // Publish per-task records, converted to ns.
  r.tasks.reserve(tasks.size());
  for (const auto& t : tasks) {
    task_record out;
    out.id = t.id;
    out.name = t.name;
    out.first_worker = t.first_worker;
    out.spawn_worker = t.spawn_worker;
    out.has_enqueue = t.has_enqueue;
    out.complete = t.complete;
    out.enqueue_ticks = t.enqueue_ticks;
    out.first_begin_ticks = t.first_begin;
    out.last_end_ticks = t.last_end;
    if (t.has_enqueue && t.has_begin && t.first_begin >= t.enqueue_ticks) {
      out.wait_ns = static_cast<double>(t.first_begin - t.enqueue_ticks) * npt;
      const bool stolen = t.has_steal && t.steal_ticks >= t.enqueue_ticks &&
                          t.steal_ticks <= t.first_begin;
      out.stolen = stolen;
      if (stolen) {
        out.queue_wait_ns =
            static_cast<double>(t.steal_ticks - t.enqueue_ticks) * npt;
        out.steal_latency_ns =
            static_cast<double>(t.first_begin - t.steal_ticks) * npt;
      } else {
        out.queue_wait_ns = out.wait_ns;
      }
    }
    out.exec_ns = static_cast<double>(t.exec_ticks) * npt;
    out.suspend_ns = static_cast<double>(t.suspend_ticks) * npt;
    out.phases = static_cast<int>(t.phases.size());
    out.has_parent = t.has_parent;
    out.parent_id = t.parent_id;
    out.split_child = t.split_child;
    out.split_point = t.split_point;
    if (t.split_child) ++r.tasks_from_splits;
    out.has_graph_node = t.has_graph;
    out.graph_step = t.graph_step;
    out.graph_point = t.graph_point;
    out.on_critical_path = t.on_critical_path;
    out.has_pmu = t.has_pmu;
    out.pmu_cycles = t.pmu_cycles;
    out.pmu_instructions = t.pmu_instructions;
    out.pmu_llc_misses = t.pmu_llc;
    out.pmu_sched_cycles = t.pmu_sched_cycles;
    out.pmu_sched_instructions = t.pmu_sched_instructions;
    out.pmu_sched_llc_misses = t.pmu_sched_llc;
    r.tasks.push_back(out);
  }

  // Per-grain-bin microarchitectural table: bucket PMU-attributed tasks by
  // log2 of their exec time and aggregate the hardware deltas. A capture
  // with zero instructions everywhere is a software-only (rdtsc) run — the
  // table still carries cycles and the stolen fraction, clearly labeled by
  // write_report.
  {
    struct bin_acc {
      std::uint64_t tasks = 0;
      std::uint64_t stolen = 0;
      double kc = 0, sc = 0, ki = 0, si = 0, llc = 0;
      std::vector<double> ipc;
    };
    std::map<int, bin_acc> bins;
    for (const auto& t : r.tasks) {
      if (!t.has_pmu || t.exec_ns <= 0) continue;
      ++r.pmu_tasks;
      if (t.pmu_instructions > 0) r.has_pmu = true;  // provisional, see below
      int bucket = 0;
      for (double g = t.exec_ns; g >= 2; g /= 2) ++bucket;
      auto& b = bins[bucket];
      ++b.tasks;
      if (t.stolen) ++b.stolen;
      b.kc += static_cast<double>(t.pmu_cycles);
      b.sc += static_cast<double>(t.pmu_sched_cycles);
      b.ki += static_cast<double>(t.pmu_instructions);
      b.si += static_cast<double>(t.pmu_sched_instructions);
      b.llc += static_cast<double>(t.pmu_llc_misses);
      if (t.pmu_cycles > 0 && t.pmu_instructions > 0)
        b.ipc.push_back(static_cast<double>(t.pmu_instructions) /
                        static_cast<double>(t.pmu_cycles));
    }
    r.pmu_software_only = r.pmu_tasks > 0 && !r.has_pmu;
    r.has_pmu = r.pmu_tasks > 0;
    for (auto& [bucket, b] : bins) {
      analysis_result::pmu_bin_row row;
      row.bucket = bucket;
      row.grain_lo_ns = bucket == 0 ? 0 : std::pow(2.0, bucket);
      row.grain_hi_ns = std::pow(2.0, bucket + 1);
      row.tasks = b.tasks;
      const double n = static_cast<double>(b.tasks);
      std::sort(b.ipc.begin(), b.ipc.end());
      row.median_ipc = percentile(b.ipc, 0.5);
      row.kernel_cycles = b.kc / n;
      row.sched_cycles = b.sc / n;
      row.kernel_instructions = b.ki / n;
      row.sched_instructions = b.si / n;
      row.llc_misses = b.llc / n;
      row.stolen_frac = static_cast<double>(b.stolen) / n;
      r.pmu_bins.push_back(row);
    }
  }

  r.ok = true;
  return r;
}

namespace {

double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }

void write_csv_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    if (*s == '"') os << "\"\"";
    os << *s;
  }
  os << '"';
}

}  // namespace

void write_report(std::ostream& os, const analysis_result& r,
                  const analysis_options& opt) {
  const auto flags = os.flags();
  const auto prec = os.precision();
  os << std::fixed;
  if (!r.ok) {
    os << "trace analysis failed: " << r.error << "\n";
    os.flags(flags);
    os.precision(prec);
    return;
  }

  os << "== gran trace analysis ==\n";
  os << "events:       " << r.total_events << " retained";
  if (r.total_dropped > 0) os << ", " << r.total_dropped << " DROPPED";
  os << "\n";
  os << std::setprecision(3);
  os << "wall:         " << ms(r.wall_ns) << " ms across " << r.num_workers
     << " workers\n";
  std::uint64_t observed = r.tasks.size();
  os << "tasks:        " << observed << " observed, " << r.tasks_completed
     << " completed\n";
  os << "eq1 idle-rate:      " << std::setprecision(4) << r.idle_rate
     << "   (exec " << std::setprecision(3) << ms(r.exec_ns) << " ms / func "
     << ms(r.func_ns) << " ms)\n";
  os << "eq2 task-duration:  " << us(r.task_duration_ns) << " us\n";
  os << "eq3 task-overhead:  " << us(r.task_overhead_ns) << " us\n";
  os << "concurrency:        avg " << std::setprecision(2) << r.avg_concurrency
     << ", max " << r.max_concurrency << "\n";
  os << "runnable backlog:   avg " << r.avg_runnable << ", max "
     << r.max_runnable << "\n";

  os << std::setprecision(3);
  os << "critical path: " << ms(r.critical_path_ns) << " ms ("
     << std::setprecision(1) << r.critical_path_frac * 100 << "% of wall, "
     << r.critical_chain.size() << " tasks)\n";
  // Show the chain tail (the deepest tasks dominate the picture).
  if (!r.critical_chain.empty()) {
    std::unordered_map<std::uint64_t, const task_record*> by_id;
    for (const auto& t : r.tasks) by_id.emplace(t.id, &t);
    const std::size_t n = r.critical_chain.size();
    const std::size_t show = std::min<std::size_t>(n, static_cast<std::size_t>(
                                                          std::max(opt.top_n, 1)));
    os << std::setprecision(2);
    for (std::size_t i = n - show; i < n; ++i) {
      const auto it = by_id.find(r.critical_chain[i]);
      if (it == by_id.end()) continue;
      const auto& t = *it->second;
      os << "  [" << i << "] task " << t.id << " '"
         << (t.name != nullptr ? t.name : "?") << "' exec " << us(t.exec_ns)
         << " us, wait " << us(t.wait_ns) << " us, worker " << t.first_worker;
      if (t.has_graph_node)
        os << ", node (" << t.graph_step << "," << t.graph_point << ")";
      os << "\n";
    }
  }

  os << "wait attribution (per-task eq5):";
  if (!r.waits_valid) {
    os << " " << r.waits_error << "\n";
  } else {
    os << "\n  " << r.waits_counted << " waits: mean " << us(r.wait_mean_ns)
       << " us, p95 " << us(r.wait_p95_ns) << " us, max " << us(r.wait_max_ns)
       << " us\n";
    os << "  queue-wait mean " << us(r.queue_wait_mean_ns) << " us; "
       << r.stolen_waits << " stolen (steal-latency mean "
       << us(r.steal_latency_mean_ns) << " us)\n";
    // Top waiters: the individual tasks Eq. 5 averages away.
    std::vector<const task_record*> waiters;
    for (const auto& t : r.tasks)
      if (t.has_enqueue && t.wait_ns > 0) waiters.push_back(&t);
    std::sort(waiters.begin(), waiters.end(),
              [](const task_record* a, const task_record* b) {
                return a->wait_ns > b->wait_ns;
              });
    const std::size_t show =
        std::min(waiters.size(),
                 static_cast<std::size_t>(std::max(opt.top_n, 1)));
    for (std::size_t i = 0; i < show; ++i) {
      const auto& t = *waiters[i];
      os << "  top-wait task " << t.id << " '"
         << (t.name != nullptr ? t.name : "?") << "': wait " << us(t.wait_ns)
         << " us (queue " << us(t.queue_wait_ns) << ", steal "
         << us(t.steal_latency_ns) << "), exec " << us(t.exec_ns) << " us"
         << (t.stolen ? ", stolen" : "") << "\n";
    }
  }

  os << "per-worker:\n";
  os << "  w     span_ms   busy_ms parked_ms  util%  done spawn steal  drop\n";
  for (const auto& w : r.workers) {
    os << "  " << std::left << std::setw(4) << w.worker << std::right
       << std::setprecision(3) << std::setw(10) << ms(w.span_ns)
       << std::setw(10) << ms(w.busy_ns) << std::setw(10) << ms(w.parked_ns)
       << std::setprecision(1) << std::setw(7)
       << (w.span_ns > 0 ? 100.0 * w.busy_ns / w.span_ns : 0.0)
       << std::setw(6) << w.tasks_completed << std::setw(6) << w.tasks_spawned
       << std::setw(6) << w.steals << std::setw(6) << w.dropped << "\n";
  }

  // Per-grain-bin microarchitectural table (task_pmu events). Reading the
  // U-curve: left wall = sched instr/task holds roughly constant while
  // kernel instr/task shrinks with grain; right wall = llc/task climbing
  // with stolen% in the fine bins. A software-only capture keeps the same
  // table (cycles are rdtsc deltas) with the instruction-derived columns
  // reading zero.
  if (r.has_pmu) {
    if (r.pmu_software_only)
      os << "pmu attribution (software-only mode: rdtsc + rusage; "
            "instruction/LLC columns unavailable): "
         << r.pmu_tasks << " tasks\n";
    else
      os << "pmu attribution (hardware counters): " << r.pmu_tasks
         << " tasks\n";
    os << "  grain_us            tasks med_ipc   kcyc/task   scyc/task"
          "  kinstr/task  sinstr/task    llc/task stolen%\n";
    for (const auto& b : r.pmu_bins) {
      std::ostringstream range;
      range << std::fixed << std::setprecision(1) << "[" << std::setw(7)
            << us(b.grain_lo_ns) << "," << std::setw(7) << us(b.grain_hi_ns)
            << ")";
      os << "  " << std::left << std::setw(18) << range.str() << std::right
         << std::setw(7) << b.tasks << std::setprecision(2) << std::setw(8)
         << b.median_ipc << std::setprecision(0) << std::setw(12)
         << b.kernel_cycles << std::setw(12) << b.sched_cycles << std::setw(13)
         << b.kernel_instructions << std::setw(13) << b.sched_instructions
         << std::setw(12) << b.llc_misses << std::setprecision(1)
         << std::setw(7) << b.stolen_frac * 100 << "\n";
    }
  }
  os.flags(flags);
  os.precision(prec);
}

void write_task_csv(std::ostream& os, const analysis_result& r) {
  os << "task_id,name,spawn_worker,first_worker,phases,complete,"
        "enqueue_ticks,first_begin_ticks,wait_ns,queue_wait_ns,"
        "steal_latency_ns,exec_ns,suspend_ns,stolen,parent_id,"
        "graph_step,graph_point,on_critical_path,"
        "pmu_cycles,pmu_instructions,pmu_llc_misses,"
        "pmu_sched_cycles,pmu_sched_instructions,pmu_sched_llc_misses\n";
  const auto flags = os.flags();
  os << std::fixed << std::setprecision(1);
  for (const auto& t : r.tasks) {
    os << t.id << ',';
    write_csv_escaped(os, t.name != nullptr ? t.name : "");
    os << ',';
    if (t.has_enqueue && t.spawn_worker == external_worker)
      os << "external";
    else if (t.has_enqueue)
      os << t.spawn_worker;
    os << ',' << t.first_worker << ',' << t.phases << ','
       << (t.complete ? 1 : 0) << ',' << t.enqueue_ticks << ','
       << t.first_begin_ticks << ',' << t.wait_ns << ',' << t.queue_wait_ns
       << ',' << t.steal_latency_ns << ',' << t.exec_ns << ',' << t.suspend_ns
       << ',' << (t.stolen ? 1 : 0) << ',';
    if (t.has_parent) os << t.parent_id;
    os << ',';
    if (t.has_graph_node) os << t.graph_step;
    os << ',';
    if (t.has_graph_node) os << t.graph_point;
    os << ',' << (t.on_critical_path ? 1 : 0);
    if (t.has_pmu)
      os << ',' << t.pmu_cycles << ',' << t.pmu_instructions << ','
         << t.pmu_llc_misses << ',' << t.pmu_sched_cycles << ','
         << t.pmu_sched_instructions << ',' << t.pmu_sched_llc_misses;
    else
      os << ",,,,,,";
    os << "\n";
  }
  os.flags(flags);
}

}  // namespace gran::perf
