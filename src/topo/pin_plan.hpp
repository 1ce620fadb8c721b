// Per-worker CPU assignment plan — computed once at thread_manager
// construction, before any worker starts.
//
// The old scheme pinned worker w to logical CPU `w % num_cpus`, which is
// wrong twice over: on SMT hosts whose sysfs numbering interleaves siblings
// it packs two workers onto one physical core while other cores sit empty,
// and in containers it pins to CPUs outside the cgroup cpuset so the pin is
// rejected and the worker silently runs unpinned. The plan fixes both:
//
//   * candidates are the intersection of the discovered topology with the
//     actually-available cpuset (sched_getaffinity);
//   * `compact` fills physical cores first (one worker per core, NUMA node
//     by node) and only then returns for SMT siblings;
//   * `scatter` round-robins across NUMA domains (bandwidth-spreading),
//     still physical-cores-first within each domain;
//   * `none` leaves every worker unpinned.
//
// Alongside the CPU, each worker gets a dense locality *domain* (NUMA node)
// and a dense physical-core id; the scheduling policies derive their
// SMT-sibling / same-domain / remote victim tiers from these.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace gran {

enum class pin_mode : int { compact, scatter, none };

const char* pin_mode_name(pin_mode m) noexcept;
// Throws std::invalid_argument on unknown names.
pin_mode pin_mode_from_name(const std::string& name);

struct worker_assignment {
  int cpu = -1;     // logical CPU (OS index) to pin to; -1 = run unpinned
  int domain = 0;   // dense NUMA/locality domain id (always valid)
  int core = -1;    // dense physical-core id; SMT siblings share it; -1 = unknown
};

struct pin_plan {
  pin_mode mode = pin_mode::none;
  std::vector<worker_assignment> workers;
  int num_domains = 1;  // distinct domains among workers (≥ 1)
  int num_cores = 0;    // distinct physical cores among pinned workers

  // True when at least one worker has a CPU assignment.
  bool pinned() const noexcept;

  // Builds the plan for `num_workers` workers. `allowed_cpus` restricts the
  // candidate set (empty = no restriction, use the whole topology; CPUs
  // unknown to the topology are ignored). When mode == none, or there are
  // more workers than candidate CPUs (oversubscription — doubling workers
  // up on CPUs only creates noise), every worker stays unpinned and domains
  // fall back to an even spread over the topology's NUMA nodes.
  static pin_plan build(const topology& topo, const std::vector<int>& allowed_cpus,
                        int num_workers, pin_mode mode);
};

}  // namespace gran
