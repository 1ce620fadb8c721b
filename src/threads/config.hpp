// Thread-manager configuration. Mirrors the knobs the paper describes: the
// thread manager "is parameterized with the number of resources it can use,
// the number of OS threads mapped to its allocated resources, and its
// resource allocation policy (NUMA awareness)".
//
// A field left at 0 or empty takes the knob table's value (util/config.hpp:
// CLI flag > environment > default); a field the code sets wins.
#pragma once

#include <cstddef>
#include <string>

#include "util/config.hpp"

namespace gran {

struct scheduler_config {
  // Worker OS threads. 0 = GRAN_WORKERS, whose 0 means one per allowed CPU.
  int num_workers = 0;

  // Overrides the number of NUMA domains the workers are spread over.
  // 0 = derive from the host topology.
  int numa_domains = 0;

  // Scheduling policy: "priority-local-fifo" (the paper's), "static-fifo"
  // (no stealing), "work-stealing-lifo" (Cilk-style ablation), or
  // "channel-steal" (message-passing steal requests over SPSC channels).
  // Empty = GRAN_POLICY.
  std::string policy;

  // Number of high-priority dual queues (owned by the first N workers).
  // 0 = one per worker.
  int high_priority_queues = 0;

  // Pin workers to CPUs according to the topology-aware assignment plan
  // (topo/pin_plan.hpp): physical cores first, SMT siblings last, restricted
  // to the allowed cpuset. The plan leaves every worker unpinned when there
  // are more workers than allowed CPUs (oversubscribed test runs).
  bool pin_workers = true;

  // Pinning layout: "compact" (fill a NUMA domain's cores before the next),
  // "scatter" (round-robin cores across domains), or "none". Empty =
  // GRAN_PIN.
  std::string pin;

  // Victim-selection order for the work-stealing policy: "hier" (SMT
  // sibling -> same NUMA domain -> remote domains, rotating start per tier)
  // or "flat" (the old fixed (w+k) % n ring — kept as the ablation
  // baseline). Empty = GRAN_STEAL_ORDER.
  std::string steal_order;

  // Channel-steal batching: "one" (single task per request), "half" (victim
  // sends half its deque), or "adaptive" (steal-one until a refill produces
  // no follow-on spawns, then escalate to steal-half; reset on spawn).
  // Empty = GRAN_STEAL_BATCH. Ignored by the other policies.
  std::string steal_batch;

  // Capacity of each queue's lock-free ring before spilling to the
  // mutex-protected overflow stage.
  std::size_t queue_ring_capacity = 4096;

  // Spins before an idle worker starts OS-yielding.
  unsigned idle_spin_limit = 64;
  // Consecutive fruitless probes before an idle worker parks (or, with
  // idle_park = false, falls back to a fixed 50 µs sleep). Each fruitless
  // round waits at least idle_backoff::step_ns (1.5 µs), so a starved
  // worker parks after about 0.4 ms.
  unsigned idle_yield_limit = 256;

  // Event-based idle parking: starved workers block on a condition variable
  // and are woken by the next enqueue, instead of polling on a fixed sleep.
  // Cuts wakeup latency at fine grain and idle-spin waste at coarse grain.
  bool idle_park = true;
  // Upper bound on one parked wait, µs — a safety net so a worker re-probes
  // even if every wakeup were lost; not the normal wakeup path.
  unsigned idle_park_us = 2000;

  // Fiber stack size in bytes; 0 = GRAN_STACK_SIZE.
  std::size_t stack_size = 0;
};

// `cfg` with every unset knob field filled from `knobs`. The thread manager
// runs on the result, so config() names the policy actually running.
inline scheduler_config with_knobs(scheduler_config cfg, const config::settings& knobs) {
  if (cfg.num_workers <= 0) cfg.num_workers = static_cast<int>(knobs.integer(config::workers));
  if (cfg.policy.empty()) cfg.policy = knobs.text(config::policy);
  if (cfg.pin.empty()) cfg.pin = knobs.text(config::pin);
  if (cfg.steal_order.empty()) cfg.steal_order = knobs.text(config::steal_order);
  if (cfg.steal_batch.empty()) cfg.steal_batch = knobs.text(config::steal_batch);
  if (cfg.stack_size == 0)
    cfg.stack_size = static_cast<std::size_t>(knobs.integer(config::stack_size));
  return cfg;
}

}  // namespace gran
