#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "perf/counters.hpp"
#include "threads/thread_manager.hpp"
#include "util/timer.hpp"

namespace gran::service {

const char* to_string(admission_policy p) noexcept {
  switch (p) {
    case admission_policy::block: return "block";
    case admission_policy::reject: return "reject";
    case admission_policy::shed_oldest: return "shed-oldest";
  }
  return "?";
}

admission_policy policy_from_string(const std::string& text, admission_policy def) {
  if (text == "block") return admission_policy::block;
  if (text == "reject") return admission_policy::reject;
  if (text == "shed-oldest" || text == "shed_oldest" || text == "shed")
    return admission_policy::shed_oldest;
  return def;
}

struct task_service::request {
  task::body_fn body;
  std::uint64_t submit_ticks = 0;  // stamped at admission (tsc_clock)
};

struct task_service::shard {
  explicit shard(std::size_t capacity) : ring(capacity) {}
  mpmc_bounded<request*> ring;
  // True while a drainer task owns this shard. Producers arm it after
  // pushing (a seq_cst fence in between); the drainer disarms on empty and
  // re-checks through the mirrored fence — Dekker, no lost wakeups.
  alignas(cache_line_size) std::atomic<bool> drainer_armed{false};
};

task_service::task_service(thread_manager& tm, service_config cfg)
    : tm_(tm), cfg_(cfg) {
  if (cfg_.shards <= 0) cfg_.shards = std::max(1, tm_.num_workers());
  if (cfg_.shard_capacity < 2) cfg_.shard_capacity = 2;
  if (cfg_.backlog_bound < 1) cfg_.backlog_bound = 1;
  if (cfg_.drain_batch < 1) cfg_.drain_batch = 1;
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<shard>(cfg_.shard_capacity));
  if (cfg_.register_counters) register_perf_counters();
}

task_service::~task_service() {
  quiesce();
  shutdown();
  // quiesce() waits for completions, not for the tasks that made them: a
  // drainer can still be inside drain() and a request task inside
  // note_completed(). Both touch this object until their last decrement.
  while (live_tasks_.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  if (counters_registered_) unregister_perf_counters();
}

std::int64_t task_service::backlog() const noexcept {
  // Read completions first: a stale (low) completed_ only over-estimates
  // the backlog, which errs toward admitting less, never more.
  const auto completed = completed_.load(std::memory_order_acquire);
  const auto shed = shed_.load(std::memory_order_relaxed);
  const auto accepted = accepted_.load(std::memory_order_relaxed);
  return static_cast<std::int64_t>(accepted) -
         static_cast<std::int64_t>(completed) - static_cast<std::int64_t>(shed);
}

task_service::stats task_service::snapshot() const noexcept {
  stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.backlog = backlog();
  s.backlog_peak = backlog_peak_.load(std::memory_order_relaxed);
  return s;
}

submit_status task_service::admit(int shard_index) {
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return submit_status::shutdown;
    if (backlog() < cfg_.backlog_bound) return submit_status::accepted;
    switch (cfg_.policy) {
      case admission_policy::reject:
        rejected_.fetch_add(1, std::memory_order_relaxed);
        tm_.note_external_rejected();
        return submit_status::rejected;
      case admission_policy::shed_oldest: {
        // Drop the oldest still-queued request of this shard. An empty ring
        // means everything was already handed to the runtime — nothing
        // sheddable, so admit anyway (bounded overshoot, see header).
        if (auto victim = shards_[static_cast<std::size_t>(shard_index)]->ring.pop()) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          delete *victim;
        }
        return submit_status::accepted;
      }
      case admission_policy::block: {
        std::unique_lock<std::mutex> lock(block_mutex_);
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        block_cv_.wait(lock, [this] {
          return stopping_.load(std::memory_order_acquire) ||
                 backlog() < cfg_.backlog_bound;
        });
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        break;  // re-run the admission check
      }
    }
  }
}

submit_status task_service::submit(task::body_fn body) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int si = static_cast<int>(next_shard_.fetch_add(1, std::memory_order_relaxed) %
                                  static_cast<std::uint64_t>(shards_.size()));
  const submit_status admission = admit(si);
  if (admission != submit_status::accepted) return admission;

  shard& s = *shards_[static_cast<std::size_t>(si)];
  auto* r = new request{std::move(body), tsc_clock::now()};
  accepted_.fetch_add(1, std::memory_order_relaxed);

  while (!s.ring.push(r)) {
    // Ring full: the admission bound normally prevents this, but a small
    // ring (or many shards behind one bound) can still fill. Resolve it
    // with the same policy semantics as the bound itself.
    switch (cfg_.policy) {
      case admission_policy::reject:
        accepted_.fetch_sub(1, std::memory_order_relaxed);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        tm_.note_external_rejected();
        delete r;
        return submit_status::rejected;
      case admission_policy::shed_oldest:
        if (auto victim = s.ring.pop()) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          delete *victim;
        }
        break;
      case admission_policy::block:
        if (stopping_.load(std::memory_order_acquire)) {
          accepted_.fetch_sub(1, std::memory_order_relaxed);
          delete r;
          return submit_status::shutdown;
        }
        // Make sure a consumer exists, then let it make room.
        arm_drainer(s, si);
        std::this_thread::yield();
        break;
    }
  }

  // Publish-then-arm (the producer half of the Dekker pair): the fence
  // orders the ring push against the armed read, so either this exchange
  // spawns a drainer or the active drainer's post-disarm re-check sees the
  // item.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  arm_drainer(s, si);

  const std::int64_t b = backlog();
  std::int64_t peak = backlog_peak_.load(std::memory_order_relaxed);
  while (b > peak &&
         !backlog_peak_.compare_exchange_weak(peak, b, std::memory_order_relaxed)) {
  }
  return submit_status::accepted;
}

void task_service::arm_drainer(shard& s, int shard_index) {
  if (s.drainer_armed.exchange(true, std::memory_order_seq_cst)) return;
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  tm_.spawn(
      [this, shard_index] {
        drain(shard_index);
        live_tasks_.fetch_sub(1, std::memory_order_release);
      },
      task_priority::normal, "service-drain");
}

void task_service::drain(int shard_index) {
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  for (;;) {
    int n = 0;
    while (n < cfg_.drain_batch) {
      auto r = s.ring.pop();
      if (!r) break;
      dispatch(*r);
      ++n;
    }
    if (n == cfg_.drain_batch) {
      // Full batch: there may be more. Yield so this worker can also run
      // the tasks being spawned, then continue draining.
      this_task::yield();
      continue;
    }
    // Ring observed empty: disarm, then re-check through the fence (the
    // consumer half of the Dekker pair — see submit()).
    s.drainer_armed.store(false, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (s.ring.empty_approx()) return;
    if (s.drainer_armed.exchange(true, std::memory_order_seq_cst))
      return;  // a producer re-armed and spawned its own drainer
    // Re-armed ourselves; keep draining (covers producers caught mid-push).
  }
}

void task_service::dispatch(request* r) {
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  tm_.spawn(
      [this, r] {
        const std::uint64_t first = tsc_clock::now();
        hist_queue_wait_.record(first > r->submit_ticks
                                    ? static_cast<std::uint64_t>(
                                          tsc_clock::to_ns(first - r->submit_ticks))
                                    : 0);
        r->body();
        const std::uint64_t done = tsc_clock::now();
        hist_sojourn_.record(done > r->submit_ticks
                                 ? static_cast<std::uint64_t>(
                                       tsc_clock::to_ns(done - r->submit_ticks))
                                 : 0);
        delete r;
        note_completed();
        live_tasks_.fetch_sub(1, std::memory_order_release);
      },
      task_priority::normal, "service-request");
}

void task_service::note_completed() noexcept {
  completed_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker against admit(): the waiter registers (seq_cst RMW) before
  // re-reading the backlog; we bump completions before reading waiters —
  // one of the two must observe the other.
  if (waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(block_mutex_);
    block_cv_.notify_all();
  }
}

void task_service::quiesce() {
  while (backlog() > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

void task_service::shutdown() {
  stopping_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(block_mutex_);
  block_cv_.notify_all();
}

void task_service::register_perf_counters() {
  auto& reg = perf::registry::instance();
  using perf::counter_kind;
  reg.remove_prefix("/service");

  reg.add("/service/count/submitted", counter_kind::monotonic,
          "submit() calls (accepted + rejected + still-negotiating)",
          [this] { return static_cast<double>(submitted_.load(std::memory_order_relaxed)); });
  reg.add("/service/count/accepted", counter_kind::monotonic,
          "requests admitted into a shard ring",
          [this] { return static_cast<double>(accepted_.load(std::memory_order_relaxed)); });
  reg.add("/service/count/rejected", counter_kind::monotonic,
          "requests dropped by the reject admission policy",
          [this] { return static_cast<double>(rejected_.load(std::memory_order_relaxed)); });
  reg.add("/service/count/shed", counter_kind::monotonic,
          "queued requests dropped by the shed-oldest admission policy",
          [this] { return static_cast<double>(shed_.load(std::memory_order_relaxed)); });
  reg.add("/service/count/completed", counter_kind::monotonic,
          "request bodies run to completion",
          [this] { return static_cast<double>(completed_.load(std::memory_order_relaxed)); });
  reg.add("/service/backlog", counter_kind::gauge,
          "requests accepted and not yet completed (admission signal)",
          [this] { return static_cast<double>(std::max<std::int64_t>(0, backlog())); });
  reg.add("/service/backlog-peak", counter_kind::gauge,
          "maximum backlog observed at admission since construction",
          [this] {
            return static_cast<double>(backlog_peak_.load(std::memory_order_relaxed));
          });

  reg.add_histogram("/service/histogram/sojourn", "request sojourn (submit -> completion)",
                    "ns", [this] { return hist_sojourn_.snap(); });
  reg.add_histogram("/service/histogram/queue-wait",
                    "request queue wait (submit -> first run)", "ns",
                    [this] { return hist_queue_wait_.snap(); });
  counters_registered_ = true;
}

void task_service::unregister_perf_counters() {
  perf::registry::instance().remove_prefix("/service");
  counters_registered_ = false;
}

}  // namespace gran::service
