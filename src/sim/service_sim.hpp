// Discrete-event mirror of the task-service ingress (service/service.hpp):
// the same arrival process (service/arrival.hpp — same seed, same
// generator, hence the *identical* (time, grain) request stream), the same
// admission policies over the same backlog signal, run against the
// machine_model's task-management costs instead of a live thread pool.
//
// What the mirror is for:
//   * native-vs-sim accepted-count identity *by construction*: under the
//     block policy every generated request is eventually admitted, so
//     accepted == generated on both sides for any seed
//     (tests/service_test.cpp asserts this);
//   * the sojourn-vs-grain U-curve at fixed offered load without host
//     noise: per-request overhead is paid per task, so fine grains drown in
//     management cost (left wall) while coarse grains queue behind long
//     service times (right wall) — the paper's Fig. 3 shape restated as
//     latency under continuous arrival;
//   * capacity planning: offered loads beyond the simulated saturation
//     point show exactly which policy degrades how (reject keeps backlog
//     bounded, block pushes the wait into the clients, shed keeps
//     freshness).
//
// Requests are served FIFO on `cores` simulated cores. Each request costs
// one task's management overhead (create + convert + two queue ops +
// switch, contention-scaled exactly like des_engine) plus its grain;
// deterministic jitter from the model applies to the grain.
#pragma once

#include <cstdint>

#include "perf/histogram.hpp"
#include "service/arrival.hpp"
#include "service/service.hpp"
#include "sim/machine_model.hpp"

namespace gran::sim {

struct service_sim_config {
  machine_model model;
  int cores = 4;
  service::arrival_config arrival;
  double duration_s = 1.0;  // arrival horizon; the sim drains to completion
  service::admission_policy policy = service::admission_policy::block;
  std::int64_t backlog_bound = 4096;
};

struct service_sim_result {
  std::uint64_t generated = 0;  // arrivals in [0, duration_s)
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::int64_t backlog_peak = 0;
  double makespan_s = 0;        // last completion time
  double offered_per_s = 0;     // generated / duration
  double achieved_per_s = 0;    // completed / makespan
  perf::histogram_snapshot sojourn;  // full distribution (log2 buckets)
};

service_sim_result run_service_sim(const service_sim_config& cfg);

}  // namespace gran::sim
