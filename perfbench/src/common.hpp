// Shared plumbing of the benchmark sections: the run context, metric and
// check accumulation, and the explicit runtime configuration every section
// uses (nothing is taken from the environment).
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "sync/latch.hpp"
#include "threads/config.hpp"
#include "threads/thread_manager.hpp"

namespace perfbench {

// The two input mixes (the benchmark's workloads). Every run executes all
// three sections (stencil_sweep, lazy_loop, service_poisson) on one mix.
enum class mix { balanced, skewed };

struct run_context {
  mix inputs = mix::balanced;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;  // N: CPUs this process may run on
};

struct metric {
  double value = 0.0;
  std::string unit;
};

// What one section (or the whole run) reports: named metrics, operation
// counts, correctness mismatches with their reasons, and free-form details
// that go into the run record (configuration, per-grain tables).
struct report {
  std::map<std::string, metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  std::vector<std::pair<std::string, std::string>> details;  // key -> JSON text

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = metric{value, unit};
  }
  // Records one operation; a false `ok` counts it failed and keeps `why`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      mismatches.push_back(why);
    }
  }
  void merge(const report& other);
};

// The scheduler configuration every section runs with: policy, pinning and
// idle behaviour spelled out, so GRAN_* defaults cannot leak in.
gran::scheduler_config pool_config(int workers);
std::string config_json(const gran::scheduler_config& cfg);

// Runs `fn` as a task on `tm` and blocks the calling (non-worker) thread
// until it returns: the benchmark drives the runtime from inside a task, as
// hpx_main does, so no section has more runnable threads than workers.
template <typename F>
void run_in_task(gran::thread_manager& tm, F&& fn) {
  gran::latch done(1);
  std::exception_ptr error;
  tm.spawn(
      [&] {
        try {
          fn();
        } catch (...) {
          error = std::current_exception();
        }
        done.count_down();
      },
      gran::task_priority::normal, "perfbench-root");
  done.wait();
  if (error) std::rethrow_exception(error);
}

// Busy-waits `ns` of wall time on the calling thread.
inline void spin_for_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

// Elapsed-time budget: a section runs repetitions until its slice is spent.
class budget {
 public:
  explicit budget(double seconds) : end_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool spent() const noexcept { return now_ns() >= end_; }

 private:
  std::int64_t end_;
};

// Sections. Each appends its metrics (end-to-end or per-layer, depending on
// ctx.trace) and checks to `out`, measuring for about `slice_s` seconds; the
// traced stencil section and the layer probes run fixed amounts of work.
void stencil_section(const run_context& ctx, double slice_s, report& out);
void lazy_section(const run_context& ctx, double slice_s, report& out);
void service_section(const run_context& ctx, double slice_s, report& out);
void layer_probes(const run_context& ctx, report& out);

// One set-up pass (timed as setup_s): builds every section's inputs, with
// the service's arrival stream over `service_horizon_s`, and starts and
// stops the pools the sections run on. Returns its wall time in seconds.
double setup_once(const run_context& ctx, double service_horizon_s);

}  // namespace perfbench
