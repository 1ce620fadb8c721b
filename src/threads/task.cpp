#include "threads/task.hpp"

#include <exception>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/magazine_cache.hpp"

// The poisoning macros are no-ops unless the build uses AddressSanitizer.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace gran {

namespace {

void free_task_storage(void* p, void*) { ::operator delete(p); }

// Recycled task objects: 32 per magazine, 32 full magazines in the depot.
// Constant-initialized, so it outlives every manager and task.
constinit magazine_cache g_task_storage(32, 32, &free_task_storage, nullptr);

// Ids come from per-thread ranges, one shared fetch_add per k_id_range ids.
// They are unique, not ordered across threads; 0 means "no task".
constexpr std::uint64_t k_id_range = 256;
std::atomic<std::uint64_t> g_next_id_range{1};
constinit thread_local std::uint64_t tl_next_id = 0;
constinit thread_local std::uint64_t tl_id_end = 0;

std::uint64_t next_task_id() noexcept {
  if (tl_next_id == tl_id_end) {
    tl_next_id = g_next_id_range.fetch_add(k_id_range, std::memory_order_relaxed);
    tl_id_end = tl_next_id + k_id_range;
  }
  return tl_next_id++;
}

}  // namespace

void* task::operator new(std::size_t size) {
  if (size == sizeof(task))
    if (void* p = g_task_storage.pop()) {
      ASAN_UNPOISON_MEMORY_REGION(p, size);
      return p;
    }
  return ::operator new(size);
}

void task::operator delete(void* p, std::size_t size) noexcept {
  if (size != sizeof(task)) {
    ::operator delete(p);
    return;
  }
  // A use after delete of a recycled task still faults under ASan.
  ASAN_POISON_MEMORY_REGION(p, size);
  g_task_storage.push(p);
}

const char* to_string(task_state s) noexcept {
  switch (s) {
    case task_state::staged: return "staged";
    case task_state::pending: return "pending";
    case task_state::active: return "active";
    case task_state::suspending: return "suspending";
    case task_state::wake_requested: return "wake_requested";
    case task_state::suspended: return "suspended";
    case task_state::terminated: return "terminated";
  }
  return "?";
}

task::task(body_fn body, task_priority priority, const char* description)
    : body_(std::move(body)),
      id_(next_task_id()),
      priority_(priority),
      description_(description) {
  GRAN_ASSERT_MSG(static_cast<bool>(body_), "task requires a body");
}

task::~task() {
  const task_state s = state();
  GRAN_ASSERT_MSG(s == task_state::terminated || s == task_state::staged,
                  "task destroyed while runnable");
}

void task::convert_to_pending(fiber_stack stack) {
  GRAN_ASSERT(state() == task_state::staged);
  GRAN_ASSERT(!fib_);
  fib_.emplace(std::move(stack), [this] {
    // An exception escaping a raw task has nowhere to go (async() wraps user
    // callables so their exceptions travel through the future instead);
    // terminate with a diagnosable message rather than unwinding into the
    // scheduler.
    try {
      body_();
    } catch (const std::exception& e) {
      GRAN_LOG_ERROR("uncaught exception in task %llu (%s): %s",
                     static_cast<unsigned long long>(id_), description_, e.what());
      std::terminate();
    } catch (...) {
      GRAN_LOG_ERROR("uncaught exception in task %llu (%s)",
                     static_cast<unsigned long long>(id_), description_);
      std::terminate();
    }
  });
  state_.store(task_state::pending, std::memory_order_release);
}

void task::begin_phase(int worker_index) {
  const task_state prev = state_.exchange(task_state::active, std::memory_order_acq_rel);
  GRAN_ASSERT_MSG(prev == task_state::pending, "begin_phase on non-pending task");
  last_worker_ = worker_index;
}

void task::mark_suspending() {
  const task_state prev =
      state_.exchange(task_state::suspending, std::memory_order_acq_rel);
  GRAN_ASSERT_MSG(prev == task_state::active, "mark_suspending on non-active task");
}

bool task::finalize_suspend() {
  task_state expected = task_state::suspending;
  if (state_.compare_exchange_strong(expected, task_state::suspended,
                                     std::memory_order_acq_rel)) {
    return true;  // parked; a future wake() will re-queue it
  }
  // A waker beat us to it: absorb the request and hand the task back.
  GRAN_ASSERT_MSG(expected == task_state::wake_requested,
                  "unexpected state while finalizing suspend");
  state_.store(task_state::pending, std::memory_order_release);
  return false;
}

void task::cancel_suspend() {
  const task_state prev = state_.exchange(task_state::active, std::memory_order_acq_rel);
  GRAN_ASSERT_MSG(prev == task_state::suspending || prev == task_state::wake_requested,
                  "cancel_suspend in unexpected state");
}

bool task::wake() {
  for (;;) {
    task_state s = state_.load(std::memory_order_acquire);
    switch (s) {
      case task_state::suspended: {
        if (state_.compare_exchange_weak(s, task_state::pending,
                                         std::memory_order_acq_rel))
          return true;  // caller enqueues
        break;
      }
      case task_state::suspending: {
        if (state_.compare_exchange_weak(s, task_state::wake_requested,
                                         std::memory_order_acq_rel))
          return false;  // the suspending worker re-queues
        break;
      }
      // Already runnable / running / finished: the waiter's predicate loop
      // re-checks, so a lost spurious wake is harmless.
      case task_state::pending:
      case task_state::active:
      case task_state::wake_requested:
      case task_state::terminated:
        return false;
      case task_state::staged:
        GRAN_ASSERT_MSG(false, "wake of a staged task");
    }
  }
}

void task::requeue_after_yield() {
  // After a cooperative yield the task announced suspension; it may already
  // carry a wake request (benign). Either way it becomes pending again.
  const task_state prev = state_.exchange(task_state::pending, std::memory_order_acq_rel);
  GRAN_ASSERT_MSG(prev == task_state::suspending || prev == task_state::wake_requested,
                  "requeue_after_yield in unexpected state");
}

void task::finish() {
  const task_state prev =
      state_.exchange(task_state::terminated, std::memory_order_acq_rel);
  GRAN_ASSERT_MSG(prev == task_state::active, "finish on non-active task");
}

fiber_stack task::take_stack() {
  GRAN_ASSERT(state() == task_state::terminated && fib_);
  return fib_->take_stack();
}

}  // namespace gran
