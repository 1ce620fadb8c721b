// Task-service ingress: sustained external load with admission control and
// latency SLOs.
//
// Every other entry point into the runtime is batch-shaped; `task_service`
// turns a thread_manager into a *server*: outside (non-worker) threads
// submit requests at high rate, and the service keeps the runtime's
// runnable backlog bounded while tracking each request's sojourn time.
//
//   client threads ──submit()──► shard rings (MPSC, Vyukov bounded)
//                                     │ one drainer task per armed shard
//                                     ▼
//                               thread_manager::spawn (worker-local)
//                                     │
//                                     ▼            submit ─► first-run ─► done
//                               request body runs;  queue-wait  sojourn
//                               histograms record    histogram  histogram
//
// Why a sharded ingress instead of calling tm.spawn from the clients?
// A spawn from a non-worker thread takes the external lane: round-robin
// placement into a per-worker inbox plus a possible park/wake handshake per
// task. Under sustained submission from several clients that serializes on
// shared queue tails. Here clients only push a pointer into one of
// `shards` bounded MPSC rings (one CAS + one store) and workers pull whole
// batches out: the expensive part of ingestion — task construction,
// enqueueing, wakeups — happens *on* a worker, where spawn is local and
// cheap. Each shard has at most one drainer task in flight (the
// `drainer_armed` flag); a submitter that finds the flag clear spawns one.
// The drainer pops in batches, spawns a runtime task per request, yields
// between batches so it cannot monopolize its worker, and on an empty ring
// disarms and re-checks (the disarm/re-check handshake makes lost wakeups
// impossible: the producer's push is an acquire-visible ring write and the
// arm is an RMW, so either the drainer re-check sees the item or the
// producer's exchange sees the disarm).
//
// Admission control bounds the *runnable backlog* — requests accepted but
// not yet completed (the same signal the stall watchdog estimates as
// spawned-minus-completed). When backlog ≥ backlog_bound, submit() applies
// one of three policies:
//   * block      — the submitting thread waits until completions make room
//                  (backpressure; the default);
//   * reject     — submit returns submit_status::rejected immediately and
//                  the drop is counted (/service/count/rejected and
//                  /threads/count/external-rejected);
//   * shed_oldest— the oldest *still-queued* request of the submitter's
//                  shard is dropped to make room for the new one (bounded
//                  staleness: under overload you serve the freshest work).
//                  When the shard ring is already empty (everything was
//                  handed to the runtime), the request is admitted anyway —
//                  backlog can overshoot by at most the in-flight window.
//
// Sojourn tracking is always on (same budget class as the task-duration
// histogram): submit() stamps the request, the first phase records
// queue-wait (submit → first run), completion records sojourn (submit →
// done) into /service/histogram/{queue-wait,sojourn}, which the window
// aggregator and both exporters surface as interval p50/p95/p99.
//
// Knobs (service_config::from_env): GRAN_SERVICE_SHARDS,
// GRAN_SERVICE_SHARD_CAP, GRAN_SERVICE_BACKLOG, GRAN_SERVICE_POLICY,
// GRAN_SERVICE_BATCH. See docs/SERVICE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perf/histogram.hpp"
#include "queues/mpmc_bounded.hpp"
#include "threads/task.hpp"
#include "util/cacheline.hpp"

namespace gran {

class thread_manager;

namespace service {

enum class admission_policy { block, reject, shed_oldest };

const char* to_string(admission_policy p) noexcept;
// Parses "block" / "reject" / "shed-oldest" (also "shed", "shed_oldest").
// Falls back to `def` on unknown text.
admission_policy policy_from_string(const std::string& text,
                                    admission_policy def = admission_policy::block);

enum class submit_status {
  accepted,   // the request is in; it will run
  rejected,   // admission bound hit under the reject policy
  shutdown,   // the service is stopping; nothing was enqueued
};

struct service_config {
  int shards = 0;                  // 0 = one per worker
  std::size_t shard_capacity = 1024;  // ring slots per shard (rounded up to 2^k)
  std::int64_t backlog_bound = 4096;  // admission bound on accepted − completed
  admission_policy policy = admission_policy::block;
  int drain_batch = 64;            // requests a drainer spawns before yielding
  bool register_counters = true;   // /service/... registry + histogram sources

  // Environment overlay: GRAN_SERVICE_SHARDS, GRAN_SERVICE_SHARD_CAP,
  // GRAN_SERVICE_BACKLOG, GRAN_SERVICE_POLICY, GRAN_SERVICE_BATCH.
  static service_config from_env(service_config base);
  static service_config from_env() { return from_env(service_config{}); }
};

class task_service {
 public:
  // The manager must outlive the service; the destructor quiesces (waits
  // for every accepted request to complete), so destroy the service while
  // the manager still runs.
  explicit task_service(thread_manager& tm, service_config cfg = {});
  ~task_service();

  task_service(const task_service&) = delete;
  task_service& operator=(const task_service&) = delete;

  // Submits one request from any thread. Applies the admission policy;
  // stamps the submit timestamp at admission (block-policy wait is
  // client-side backpressure, not part of the request's sojourn).
  submit_status submit(task::body_fn body);

  // Requests accepted and not yet completed (includes shard-queued and
  // running requests). The admission-control signal.
  std::int64_t backlog() const noexcept;

  // Blocks the calling (non-worker) thread until the backlog is zero.
  void quiesce();

  // Stops accepting: subsequent submits (and submitters blocked on
  // backpressure) return submit_status::shutdown. Idempotent; the
  // destructor calls it after quiescing.
  void shutdown();

  struct stats {
    std::uint64_t submitted = 0;   // submit() calls
    std::uint64_t accepted = 0;    // admitted into a shard ring
    std::uint64_t rejected = 0;    // reject policy drops
    std::uint64_t shed = 0;        // shed_oldest policy drops
    std::uint64_t completed = 0;   // request bodies finished
    std::int64_t backlog = 0;      // accepted − completed − shed
    std::int64_t backlog_peak = 0; // max backlog observed at admission
  };
  stats snapshot() const noexcept;

  // Cumulative distribution views (always on, ~2 ns per record).
  perf::histogram_snapshot sojourn_snapshot() const { return hist_sojourn_.snap(); }
  perf::histogram_snapshot queue_wait_snapshot() const {
    return hist_queue_wait_.snap();
  }

  const service_config& config() const noexcept { return cfg_; }
  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }

 private:
  struct request;
  struct shard;

  submit_status admit(int shard_index);
  void dispatch(request* r);       // worker-side: wrap a request in a task
  void drain(int shard_index);     // drainer task body
  void arm_drainer(shard& s, int shard_index);
  void note_completed() noexcept;
  void register_perf_counters();
  void unregister_perf_counters();

  thread_manager& tm_;
  service_config cfg_;
  std::vector<std::unique_ptr<shard>> shards_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_shard_{0};  // round-robin submit placement

  // Admission accounting. accepted/completed/shed are the backlog inputs;
  // each on its own line — accepted is bumped by clients, completed by
  // workers.
  alignas(cache_line_size) std::atomic<std::uint64_t> submitted_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> accepted_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::int64_t> backlog_peak_{0};

  // Block-policy backpressure: submitters park here; completions that see
  // waiters notify. waiters_ is read with a seq_cst fence against the
  // completed_ bump (Dekker, same idiom as the manager's idle parking).
  alignas(cache_line_size) std::atomic<int> waiters_{0};
  std::mutex block_mutex_;
  std::condition_variable block_cv_;

  // Drainer and request tasks spawned and not yet returned. Each task's
  // last action is a release decrement; the destructor waits for zero.
  alignas(cache_line_size) std::atomic<std::uint64_t> live_tasks_{0};

  perf::log2_histogram hist_sojourn_;
  perf::log2_histogram hist_queue_wait_;
  bool counters_registered_ = false;
};

}  // namespace service
}  // namespace gran
