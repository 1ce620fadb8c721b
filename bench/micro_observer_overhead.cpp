// Cost of the observers — tracer (perf/trace.hpp), telemetry plane
// (perf/telemetry.hpp), PMU plane (perf/pmu.hpp) — and of the timer reads
// the paper's §II note is about. Takes no flags: every size below is fixed,
// so two runs on one host compare.
//
// Per-call rows, ns per call on one thread:
//   * rdtsc read and steady_clock read (§II: timer invocation overhead);
//   * counter query (/threads/idle-rate through the registry);
//   * trace emit with tracing disabled (the branch every hot path pays) and
//     enabled (TSC read, slot store, release publish).
//
// End-to-end rows: 21 rounds, each one off / trace / telemetry / PMU-software
// run of spin tasks on one worker per allowed CPU. The arm order rotates
// every round, so host drift lands on every arm. An arm's overhead in a
// round is the round's off tasks/s over the arm's tasks/s, minus one; each
// row gives the median and IQR over rounds. The tracer rings are allocated
// once, before the rounds: rings allocated per run charge their page faults
// to the trace arm (17-32% instead of ~1% on a 4-CPU VM).
//
// Gates, on the median; any breach exits 1:
//   trace      <= 10%  the enabled budget in docs/TRACING.md
//   telemetry  <=  2%  the budget in docs/TELEMETRY.md, at its 100 ms window
//   pmu-sw     <= 30%  the software-rung budget in docs/PMU.md
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <latch>
#include <string>

#include "perf/counters.hpp"
#include "perf/pmu.hpp"
#include "perf/telemetry.hpp"
#include "perf/trace.hpp"
#include "threads/thread_manager.hpp"
#include "topo/affinity.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

constexpr int kRounds = 21;
// ~1-2 us tasks, where per-task observer cost shows first. A run lasts about
// a second, ten 100 ms telemetry windows: 4x shorter runs doubled the
// round-to-round spread of the overhead on a shared 4-CPU VM.
constexpr std::uint64_t kTasks = 400'000;
constexpr std::uint64_t kSpin = 2'000;

enum arm { off, trace, telemetry, pmu_sw, arm_count };
struct arm_spec {
  const char* name;
  double budget_pct;
};
constexpr std::array<arm_spec, arm_count> kArms = {
    {{"off", 0}, {"trace", 10}, {"telemetry", 2}, {"pmu-sw", 30}}};

volatile double g_sink = 0;
volatile std::uint64_t g_sink_u = 0;

void spin_task(std::uint64_t iters) {
  double x = 1.000000119;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.000000119 + 1e-9;
  g_sink = x;
}

template <class Op>
double per_call_ns(std::uint64_t calls, Op op) {
  stopwatch clock;
  for (std::uint64_t i = 0; i < calls; ++i) op(i);
  return clock.elapsed_s() * 1e9 / static_cast<double>(calls);
}

scheduler_config pool(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  return cfg;
}

// Tasks per second of one fresh manager running kTasks spin tasks, spawned
// from a root task (the workers' own spawn path). The main thread sleeps on
// a latch meanwhile, so each pinned worker has its CPU to itself. The
// observers are configured before the manager is built, as workers pick up
// their trace ring and PMU reader at start.
double run_throughput(int workers) {
  thread_manager tm(pool(workers));
  std::latch done(static_cast<std::ptrdiff_t>(kTasks));
  stopwatch clock;
  tm.spawn([&tm, &done] {
    for (std::uint64_t i = 0; i < kTasks; ++i)
      tm.spawn([&done] {
        spin_task(kSpin);
        done.count_down();
      }, task_priority::normal, "spin");
  });
  done.wait();
  const double tps = static_cast<double>(kTasks) / clock.elapsed_s();
  tm.wait_idle();
  return tps;
}

double run_arm(int a, int workers, std::uint64_t& windows) {
  auto& tracer = perf::tracer::instance();
  auto& pmu = perf::pmu_plane::instance();
  double tps = 0;
  switch (a) {
    case trace:
      tracer.enable();
      tps = run_throughput(workers);
      tracer.disable();
      break;
    case telemetry: {
      perf::telemetry_options to;
      to.jsonl_out = "/dev/null";
      to.install_signal_handler = false;
      perf::telemetry_session session(std::move(to));
      tps = run_throughput(workers);
      session.stop();
      windows += session.windows_exported();
      break;
    }
    case pmu_sw:
      pmu.configure("software");
      tps = run_throughput(workers);
      pmu.configure("off");
      break;
    default:
      tps = run_throughput(workers);
  }
  return tps;
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::cerr << "micro_observer_overhead takes no flags\n";
    return 2;
  }
  const int workers = std::max<int>(1, static_cast<int>(allowed_cpus().size()));
  auto& tracer = perf::tracer::instance();
  perf::pmu_plane::instance().configure("off");

  // --- per-call rows
  table_writer calls({"per call", "ns"});
  calls.add_row({"rdtsc read", format_number(per_call_ns(20'000'000, [](std::uint64_t) {
                   g_sink_u = tsc_clock::now();
                 }), 2)});
  calls.add_row({"steady_clock read", format_number(per_call_ns(5'000'000, [](std::uint64_t) {
                   g_sink_u = static_cast<std::uint64_t>(
                       std::chrono::steady_clock::now().time_since_epoch().count());
                 }), 2)});
  {
    thread_manager tm(pool(workers));  // registers the /threads counters
    auto& reg = perf::registry::instance();
    calls.add_row({"counter query", format_number(per_call_ns(200'000, [&reg](std::uint64_t) {
                     if (auto v = reg.query("/threads/idle-rate")) g_sink = v->value;
                   }), 1)});
  }
  perf::trace_ring ring(1 << 16);
  const auto emit = [&ring](std::uint64_t i) {
    perf::trace_emit(&ring, perf::trace_kind::task_begin, 0, i, 0, "bench");
  };
  tracer.disable();
  calls.add_row({"trace emit, disabled", format_number(per_call_ns(20'000'000, emit), 2)});
  tracer.enable();
  calls.add_row({"trace emit, enabled", format_number(per_call_ns(20'000'000, emit), 2)});

  // --- end-to-end rounds. ring(w) allocates worker w's ring now; managers
  // built while tracing is on reuse it.
  for (int w = 0; w < workers; ++w) tracer.ring(w);
  tracer.disable();
  std::array<sample_stats, arm_count> tps, overhead_pct;
  std::uint64_t windows = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::array<double, arm_count> round_tps{};
    for (int k = 0; k < arm_count; ++k) {
      const int a = (r + k) % arm_count;
      round_tps[a] = run_arm(a, workers, windows);
      tps[a].add(round_tps[a]);
    }
    for (int a = trace; a < arm_count; ++a)
      overhead_pct[a].add((round_tps[off] / round_tps[a] - 1.0) * 100.0);
  }
  tracer.clear();

  std::cout << "Observer overhead: " << workers << " workers, " << kTasks << " tasks x "
            << kSpin << " spin iters, " << kRounds << " rotated rounds, "
            << windows << " telemetry windows\n";
  calls.print(std::cout);
  table_writer e2e({"arm", "tasks/s median", "overhead median", "overhead IQR",
                    "budget", "gate"});
  int rc = 0;
  for (int a = off; a < arm_count; ++a) {
    const std::string kt = format_number(tps[a].median() / 1e3, 1) + " k";
    if (a == off) {
      e2e.add_row({kArms[a].name, kt, "-", "-", "-", "-"});
      continue;
    }
    const double med = overhead_pct[a].median();
    const bool pass = med <= kArms[a].budget_pct;
    if (!pass) rc = 1;
    e2e.add_row({kArms[a].name, kt, format_number(med, 2) + " %",
                 format_number(overhead_pct[a].percentile(25), 2) + " .. " +
                     format_number(overhead_pct[a].percentile(75), 2) + " %",
                 format_number(kArms[a].budget_pct, 0) + " %", pass ? "PASS" : "FAIL"});
  }
  e2e.print(std::cout);
  std::cout << (rc == 0 ? "OK: every observer within its budget\n"
                        : "FAIL: an observer exceeds its budget\n");
  return rc;
}
