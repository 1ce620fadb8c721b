// Per-worker hardware-counter attribution (the PMU plane): a
// perf_event_open-based counter-group reader sampled at the run_phase
// begin/end hooks, so every task slice gets microarchitectural deltas —
// cycles, instructions, LLC misses, branch misses, backend stalls, context
// switches — split into kernel (task body) vs scheduler (inter-phase gap)
// shares by the same decomposition that backs Eq. 3.
//
// Why: every other observability signal is wall-clock-derived. The U-curve's
// two walls have distinct *hardware* signatures — per-task management
// overhead is an instructions-per-task floor (left wall), while starvation
// and steal-driven locality loss show up as LLC misses per task (right
// wall) — and only counter deltas can tell them apart.
//
// Degradation ladder (never aborts the run):
//   full     cycles + instructions + LLC-misses + branch-misses +
//            stalled-cycles-backend (one grouped fd set, one batched read)
//            and a software context-switches event
//   reduced  cycles + instructions + LLC-misses (wide groups often exceed
//            the PMU's programmable-counter budget, or an event is denied)
//   minimal  cycles + instructions
//   software rdtsc for cycles, getrusage(RUSAGE_THREAD) for context
//            switches; instructions/LLC/branch/stall deltas read as 0
// perf_event_paranoid, seccomp, missing PMU (containers, VMs) all land on a
// lower rung; the negotiated mode and the number of unavailable events are
// recorded once in /threads/pmu/{mode,events-unavailable} and the
// telemetry stream's interval.pmu section. The plane is OFF by default
// (GRAN_PMU=1 / --pmu turns it on), so the disabled hot path is a single
// null-pointer branch in run_phase (every untraced perfbench run pays it;
// scripts/ab.py compares it).
//
// Readers are per worker thread: perf_event_open self-attaches to the
// calling thread (pid=0), so create_reader() must run on the thread that
// will sample. RAII closes the fds; sampling is one read() of the group
// leader (PERF_FORMAT_GROUP) plus one of the context-switch fd.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace gran::perf {

// Negotiated capability rung. Numerically higher = more degraded; the plane
// reports the worst rung any reader landed on, so mixed-capability workers
// (cgroup changes mid-run) never overstate what the data contains.
enum class pmu_mode : int {
  off = 0,       // plane disabled (default)
  full = 1,      // all five hardware events + software context-switches
  reduced = 2,   // cycles + instructions + LLC-misses
  minimal = 3,   // cycles + instructions
  software = 4,  // rdtsc + getrusage only
};

const char* pmu_mode_name(pmu_mode m) noexcept;

// Hardware events from the full set that a mode cannot deliver (the value
// recorded in /threads/pmu/events-unavailable).
int pmu_events_unavailable(pmu_mode m) noexcept;

// One cumulative reading; deltas via operator-. In software mode
// instructions/llc/branch/stalled stay 0 and cycles comes from rdtsc.
struct pmu_sample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_backend = 0;
  std::uint64_t ctx_switches = 0;

  pmu_sample operator-(const pmu_sample& base) const noexcept {
    const auto sub = [](std::uint64_t a, std::uint64_t b) {
      return a > b ? a - b : 0;
    };
    pmu_sample d;
    d.cycles = sub(cycles, base.cycles);
    d.instructions = sub(instructions, base.instructions);
    d.llc_misses = sub(llc_misses, base.llc_misses);
    d.branch_misses = sub(branch_misses, base.branch_misses);
    d.stalled_backend = sub(stalled_backend, base.stalled_backend);
    d.ctx_switches = sub(ctx_switches, base.ctx_switches);
    return d;
  }
};

// Injectable perf_event_open for the degradation-ladder tests: the shim sees
// (type, config, group_fd) and returns a real fd, or -1 with errno set to
// simulate a denial. nullptr restores the real syscall. Not thread-safe
// against concurrent reader creation — set it before workers start.
using pmu_open_fn = int (*)(std::uint32_t type, std::uint64_t config,
                            int group_fd);
void set_pmu_open_for_test(pmu_open_fn fn);

// Per-thread counter-group reader. Construct via pmu_plane::create_reader()
// on the thread that will call sample().
class pmu_reader {
 public:
  ~pmu_reader();
  pmu_reader(const pmu_reader&) = delete;
  pmu_reader& operator=(const pmu_reader&) = delete;

  pmu_mode mode() const noexcept { return mode_; }

  // Cumulative counts since construction (multiplexing-scaled). A failing
  // read() permanently degrades this reader to software mode instead of
  // erroring — the sample is always usable.
  void sample(pmu_sample& out) noexcept;

 private:
  friend class pmu_plane;
  explicit pmu_reader(pmu_mode start);

  void open_group(pmu_mode level);
  void close_fds() noexcept;

  pmu_mode mode_ = pmu_mode::software;
  int group_fd_ = -1;   // leader (cycles); members read via PERF_FORMAT_GROUP
  int member_fds_[4] = {-1, -1, -1, -1};  // events die with their fd
  int group_events_ = 0;
  int ctx_fd_ = -1;     // software context-switches event; -1 = use rusage
};

// Process-global configuration and mode negotiation. Workers ask it for a
// reader at startup; the first probe establishes the rung and later readers
// start there (re-probing higher rungs per worker would spam EPERM).
class pmu_plane {
 public:
  static pmu_plane& instance();

  // "1"/"on"/"hw"/"auto" enable with hardware probing; "sw"/"software"
  // force the software-only rung (CI exercises the fallback path this way);
  // ""/"0"/"off" disable. Must run before the thread manager is built —
  // workers decide at startup whether to carry a reader.
  void configure(const std::string& spec);
  // True once configure() ran: perf::start_observers then leaves GRAN_PMU
  // unapplied, so the code's choice wins.
  bool configured() const noexcept { return configured_.load(std::memory_order_relaxed); }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Builds a reader for the calling thread; nullptr when the plane is off.
  // Thread-safe; prints one warning per process when the negotiated rung is
  // below full.
  std::unique_ptr<pmu_reader> create_reader();

  // Worst rung among the readers created so far (off when none exists yet
  // and the plane is disabled; the configured start rung otherwise).
  pmu_mode mode() const noexcept;
  int events_unavailable() const noexcept {
    return pmu_events_unavailable(mode());
  }

  // Tests: drop negotiation state so the next create_reader re-probes.
  void reset_for_test();

 private:
  pmu_plane() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> force_software_{false};
  std::atomic<int> negotiated_{0};  // 0 = unprobed; else pmu_mode value
  std::atomic<bool> warned_{false};
  std::atomic<bool> configured_{false};
};

}  // namespace gran::perf
