// The paper's metric methodology (§II-A) — the primary contribution.
//
// From raw event counts of one measured run, compute:
//   idle-rate            Ir = (Σt_func − Σt_exec) / Σt_func            (Eq. 1)
//   task duration        td = Σt_exec / nt                              (Eq. 2)
//   task overhead        to = (Σt_func − Σt_exec) / nt                  (Eq. 3)
//   TM overhead per core To = to · nt / nc                              (Eq. 4)
//   wait time per task   tw = td − td1   (td1: same run on one core)    (Eq. 5)
//   wait time per core   Tw = (td − td1) · nt / nc                      (Eq. 6)
// Wait time may legitimately be negative for very coarse grains (caching
// effects make the 1-core duration larger, §II-A).
#pragma once

#include <cstdint>

namespace gran::core {

// Raw measurements of one experiment run (one granularity × core count).
// Produced by a core::backend: the native runtime fills it from the
// /threads/* performance counters, the simulator from its event counts.
struct run_measurement {
  double exec_time_s = 0.0;   // wall/virtual time of the measured section
  std::uint64_t tasks = 0;    // nt — HPX-threads executed
  std::uint64_t phases = 0;   // thread phases (≥ tasks)
  double exec_ns = 0.0;       // Σ t_exec
  double func_ns = 0.0;       // Σ t_func (⊇ exec)
  std::uint64_t pending_accesses = 0;
  std::uint64_t pending_misses = 0;
  std::uint64_t staged_accesses = 0;
  std::uint64_t staged_misses = 0;
  int cores = 1;              // nc
};

// Derived metrics. Durations in nanoseconds; aggregate costs in seconds to
// compare directly against exec_time_s (the paper's Figs. 7, 8 plot them on
// one axis).
struct metrics {
  double idle_rate = 0.0;           // Eq. 1, in [0, 1]
  double task_duration_ns = 0.0;    // Eq. 2
  double task_overhead_ns = 0.0;    // Eq. 3
  double tm_overhead_s = 0.0;       // Eq. 4 (To)
  double wait_per_task_ns = 0.0;    // Eq. 5 (tw) — needs the 1-core baseline
  double wait_time_s = 0.0;         // Eq. 6 (Tw)
  double tm_plus_wait_s = 0.0;      // To + Tw, the combined cost of §IV-D
};

// `td1_ns` is the task duration of the same configuration measured on one
// core (Eq. 5's baseline). Pass 0 to skip the wait-time metrics (they are
// then reported as 0 — e.g. for the 1-core run itself, where tw ≡ 0).
metrics compute_metrics(const run_measurement& run, double td1_ns);

// Sample averaging (the paper computes metrics from the *average* of the
// event counts over repeated samples, §II), done by the sweep driver.
void accumulate_measurement(run_measurement& acc, const run_measurement& m);
run_measurement average_measurement(run_measurement acc, int samples);

}  // namespace gran::core
