#include "sim/service_sim.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace gran::sim {

namespace {

struct pending_request {
  double admit_t_s = 0;         // sojourn clock starts here (as in native:
                                // block-policy wait is client-side)
  std::uint64_t grain_ns = 0;
  std::uint64_t seq = 0;
};

struct completion {
  double t_s = 0;
  double admit_t_s = 0;
  bool operator>(const completion& o) const { return t_s > o.t_s; }
};

}  // namespace

service_sim_result run_service_sim(const service_sim_config& cfg) {
  service_sim_result res;
  const int cores = std::max(1, cfg.cores);
  const std::int64_t bound = std::max<std::int64_t>(1, cfg.backlog_bound);

  const std::vector<service::arrival_event> arrivals =
      service::generate_arrivals(cfg.arrival, cfg.duration_s);
  res.generated = arrivals.size();
  res.offered_per_s =
      cfg.duration_s > 0 ? static_cast<double>(res.generated) / cfg.duration_s : 0;

  // Per-task management cost, contention-scaled the same way des_engine
  // scales shared-structure events (this is what bends the U-curve's left
  // wall upward as cores grow).
  const double contention =
      1.0 + cfg.model.contention_per_core * static_cast<double>(cores - 1);
  const double overhead_ns = (cfg.model.task_create_ns + cfg.model.task_convert_ns +
                              2.0 * cfg.model.queue_op_ns + cfg.model.task_switch_ns) *
                             contention;

  perf::log2_histogram sojourn_hist;
  std::deque<pending_request> pending;   // admitted, waiting for a core
  std::deque<service::arrival_event> gate;  // block policy: waiting admission
  std::priority_queue<completion, std::vector<completion>, std::greater<completion>>
      running;
  int free_cores = cores;

  std::uint64_t accepted = 0, completed = 0;
  const auto backlog = [&] {
    return static_cast<std::int64_t>(accepted) - static_cast<std::int64_t>(completed) -
           static_cast<std::int64_t>(res.shed);
  };

  const auto start_if_possible = [&](double now) {
    while (free_cores > 0 && !pending.empty()) {
      const pending_request r = pending.front();
      pending.pop_front();
      --free_cores;
      // Deterministic grain jitter keyed on the request's stream position.
      const double u = mix64_to_unit(mix64_combine(cfg.arrival.seed, mix64(r.seq)));
      const double jitter = 1.0 + cfg.model.jitter * (2.0 * u - 1.0);
      const double service_ns =
          overhead_ns + static_cast<double>(r.grain_ns) * std::max(0.0, jitter);
      running.push(completion{now + service_ns * 1e-9, r.admit_t_s});
    }
  };

  const auto admit = [&](const service::arrival_event& ev, double now) {
    ++accepted;
    res.backlog_peak = std::max(res.backlog_peak, backlog());
    pending.push_back(pending_request{now, ev.grain_ns, ev.seq});
    start_if_possible(now);
  };

  const auto on_arrival = [&](const service::arrival_event& ev) {
    if (backlog() < bound) {
      admit(ev, ev.t_s);
      return;
    }
    switch (cfg.policy) {
      case service::admission_policy::reject:
        ++res.rejected;
        return;
      case service::admission_policy::shed_oldest:
        // Mirror of the native semantics: drop the oldest still-queued
        // request if any; admit regardless (empty queue = bounded
        // overshoot, everything is already running).
        if (!pending.empty()) {
          pending.pop_front();
          ++res.shed;
        }
        admit(ev, ev.t_s);
        return;
      case service::admission_policy::block:
        gate.push_back(ev);
        return;
    }
  };

  const auto on_completion = [&](const completion& c) {
    ++completed;
    ++free_cores;
    const double sojourn_ns = std::max(0.0, (c.t_s - c.admit_t_s) * 1e9);
    sojourn_hist.record(static_cast<std::uint64_t>(sojourn_ns));
    res.makespan_s = std::max(res.makespan_s, c.t_s);
    // Completions make room: blocked submitters are admitted in FIFO order,
    // their sojourn clock starting now (as in native, where submit() stamps
    // after the backpressure wait).
    while (!gate.empty() && backlog() < bound) {
      const service::arrival_event ev = gate.front();
      gate.pop_front();
      admit(ev, c.t_s);
    }
    start_if_possible(c.t_s);
  };

  // Merge the two time-ordered event streams; arrivals win ties so a
  // same-instant completion cannot free capacity for a request that had not
  // arrived yet.
  std::size_t next_arrival = 0;
  while (next_arrival < arrivals.size() || !running.empty()) {
    const bool have_arrival = next_arrival < arrivals.size();
    const bool have_completion = !running.empty();
    if (have_arrival &&
        (!have_completion || arrivals[next_arrival].t_s <= running.top().t_s)) {
      on_arrival(arrivals[next_arrival++]);
    } else if (have_completion) {
      const completion c = running.top();
      running.pop();
      on_completion(c);
    }
  }

  res.accepted = accepted;
  res.completed = completed;
  res.sojourn = sojourn_hist.snap();
  res.achieved_per_s =
      res.makespan_s > 0 ? static_cast<double>(completed) / res.makespan_s : 0;
  return res;
}

}  // namespace gran::sim
