// Offline trace analysis: turns a retained trace (perf::trace_dump) into
// per-task and per-worker evidence for the paper's aggregate equations.
//
//  * Per-task lifetime decomposition — spawn→first-run wait (Eq. 5's tw
//    attributed to individual tasks), executed time, suspend/resume gaps —
//    built from task_enqueue provenance plus the phase events.
//  * Critical-path extraction through the spawn DAG: the longest
//    exec-weighted chain where a parent contributes only the work it had
//    completed before spawning the child. Chain segments therefore occupy
//    disjoint wall-clock intervals, so the reported length is ≤ wall time
//    by construction (tests assert both bounds).
//  * Reconstructed timelines — concurrency, runnable-queue depth, per-worker
//    busy/parked spans — and Eq. 1–3 recomputed purely from events so they
//    can be cross-checked against the live counters.
//
// The analyzer consumes only trace_dump (never live rings), so it runs
// identically on an in-process capture and a binary file loaded from disk,
// and gran_perf stays independent of the scheduler libraries.
//
// Honesty rule: when any worker lane lost events to ring wraparound the
// spawn→begin pairing is untrustworthy (an enqueue may survive while the
// matching begin was overwritten, or vice versa), so wait attribution is
// refused with an explanation instead of silently under-reporting
// (analysis_options::force_wait_attribution overrides for exploration).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "perf/trace.hpp"

namespace gran::perf {

struct analysis_options {
  int top_n = 10;                      // chain / top-waiter rows in the report
  bool force_wait_attribution = false; // compute waits despite dropped events
};

// One task's reconstructed lifetime. Durations are in ns (converted with the
// dump's ns_per_tick); `name` points into the dump's interned string table,
// so the dump must outlive the analysis_result.
struct task_record {
  std::uint64_t id = 0;
  const char* name = nullptr;
  std::uint16_t first_worker = 0;      // worker that ran the first phase
  std::uint16_t spawn_worker = 0;      // external_worker for non-worker spawns
  bool has_enqueue = false;            // a task_enqueue event was retained
  bool complete = false;               // a task_end event was retained
  std::uint64_t enqueue_ticks = 0;
  std::uint64_t first_begin_ticks = 0;
  std::uint64_t last_end_ticks = 0;
  double wait_ns = 0;                  // enqueue -> first phase begin
  double exec_ns = 0;                  // sum of phase slices
  double suspend_ns = 0;               // gaps between consecutive phases
  int phases = 0;
  bool stolen = false;                 // steal event observed before first run
  double queue_wait_ns = 0;            // enqueue -> steal (or full wait)
  double steal_latency_ns = 0;         // steal -> first begin (0 if not stolen)
  bool has_parent = false;             // provenance resolved to a spawner task
  std::uint64_t parent_id = 0;
  bool split_child = false;            // spawned as a lazy split's back half;
                                       // parent_id comes from the task_split
                                       // event, not phase coverage
  std::uint64_t split_point = 0;       // first index of the inherited range
  bool has_graph_node = false;         // graph_node provenance was retained
  std::uint32_t graph_step = 0;
  std::uint32_t graph_point = 0;
  bool on_critical_path = false;
  // Hardware-counter attribution (task_pmu events, perf/pmu.hpp). The
  // kernel triple sums per-phase deltas; the sched triple sums the
  // scheduler gaps preceding this task's phases. In software-only captures
  // instructions and llc stay 0 while cycles still carries rdtsc deltas.
  bool has_pmu = false;
  std::uint64_t pmu_cycles = 0;        // kernel (phase-body) cycles
  std::uint64_t pmu_instructions = 0;
  std::uint64_t pmu_llc_misses = 0;
  std::uint64_t pmu_sched_cycles = 0;  // scheduler-gap cycles
  std::uint64_t pmu_sched_instructions = 0;
  std::uint64_t pmu_sched_llc_misses = 0;
};

// One worker's reconstructed timeline.
struct worker_timeline {
  std::uint16_t worker = 0;
  double span_ns = 0;    // worker_start -> worker_stop (else first -> last event)
  double busy_ns = 0;    // sum of phase slices
  double parked_ns = 0;  // sum of park->unpark intervals
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_spawned = 0;  // task_enqueue events on this lane
  std::uint64_t steals = 0;
  std::uint64_t splits = 0;   // task_split events on this lane
  std::uint64_t dropped = 0;  // ring-wraparound losses on this lane
};

struct analysis_result {
  bool ok = false;
  std::string error;  // set when !ok (e.g. empty trace)

  double ns_per_tick = 1.0;
  double wall_ns = 0;  // first event -> last event across all lanes
  int num_workers = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_dropped = 0;

  std::vector<task_record> tasks;       // every task with at least one event
  std::vector<worker_timeline> workers;

  // Eq. 1–3 recomputed from events alone (func := Σ per-worker lane spans,
  // exec := Σ phase slices, nt := completed tasks).
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_from_splits = 0;  // tasks bound to a parent via task_split
  double exec_ns = 0;
  double func_ns = 0;
  double idle_rate = 0;      // Eq. 1: (func - exec) / func
  double task_duration_ns = 0;  // Eq. 2: exec / nt
  double task_overhead_ns = 0;  // Eq. 3: (func - exec) / nt

  // Wait attribution (Eq. 5 per task). Refused when events were dropped.
  bool waits_valid = false;
  std::string waits_error;   // why attribution was refused
  std::uint64_t waits_counted = 0;
  double wait_mean_ns = 0;
  double wait_p95_ns = 0;
  double wait_max_ns = 0;
  std::uint64_t stolen_waits = 0;       // waits that crossed a steal
  double queue_wait_mean_ns = 0;        // time sitting in the spawner's queue
  double steal_latency_mean_ns = 0;     // steal -> first run, stolen tasks only

  // Critical path (spawn-DAG longest exec-weighted chain).
  double critical_path_ns = 0;
  double critical_path_frac = 0;        // of wall_ns
  std::vector<std::uint64_t> critical_chain;  // task ids, root first

  // Reconstructed timelines.
  double avg_concurrency = 0;           // time-weighted running phases
  std::uint64_t max_concurrency = 0;
  double avg_runnable = 0;              // time-weighted spawned-not-yet-run
  std::uint64_t max_runnable = 0;

  // Per-grain-bin microarchitectural table (task_pmu events). Tasks are
  // bucketed by log2 of their exec time; each bin aggregates the hardware
  // deltas so the report can show the U-curve's walls in hardware units:
  // scheduler instructions/task flat while kernel work shrinks with grain
  // (left wall), LLC misses/task rising with the stolen fraction at fine
  // grain (right wall).
  bool has_pmu = false;                 // any task carried task_pmu records
  bool pmu_software_only = false;       // no instructions anywhere: rdtsc mode
  std::uint64_t pmu_tasks = 0;          // tasks with PMU attribution
  struct pmu_bin_row {
    int bucket = 0;                     // log2(exec_ns) bin index
    double grain_lo_ns = 0;             // bin range [lo, hi)
    double grain_hi_ns = 0;
    std::uint64_t tasks = 0;
    double median_ipc = 0;              // of per-task kernel IPC; 0 in sw mode
    double kernel_cycles = 0;           // per task
    double sched_cycles = 0;            // per task
    double kernel_instructions = 0;     // per task; 0 in software mode
    double sched_instructions = 0;      // per task; 0 in software mode
    double llc_misses = 0;              // per task; 0 in software/minimal mode
    double stolen_frac = 0;             // fraction of the bin's tasks stolen
  };
  std::vector<pmu_bin_row> pmu_bins;
};

// Pure function of the dump: merges all lanes by timestamp (lanes may be
// mutually out of order) and reconstructs the above.
analysis_result analyze_trace(const trace_dump& dump,
                              const analysis_options& opt = {});

// Human-readable report. The critical-path line is stable
// ("critical path: <X> ms (<Y>% of wall, <K> tasks)") — CI greps for it.
void write_report(std::ostream& os, const analysis_result& r,
                  const analysis_options& opt = {});

// Per-task CSV (one row per task, header included).
void write_task_csv(std::ostream& os, const analysis_result& r);

}  // namespace gran::perf
