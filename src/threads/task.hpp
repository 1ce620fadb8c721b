// The HPX-thread ("task") descriptor and its state machine.
//
// Paper §I-B: "The five HPX-thread states are staged, pending, active,
// suspended, and terminated." A task is created as a cheap *description*
// (staged — no stack, no context), transformed into a runnable object with a
// context (pending), executes cooperatively (active), may suspend itself on
// synchronization (suspended) and is re-queued as pending when its wait is
// satisfied, and finally terminates.
//
// Two internal transition states make the suspend/wake handshake race-free:
//   * suspending      — the task announced it will suspend but is still on
//                        its worker's stack; it must not be resumed yet.
//   * wake_requested  — a waker arrived during `suspending`; the worker
//                        re-queues the task instead of parking it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "fiber/fiber.hpp"
#include "threads/priority.hpp"
#include "util/unique_function.hpp"

namespace gran {

class thread_manager;

enum class task_state : std::uint8_t {
  staged,
  pending,
  active,
  suspending,
  wake_requested,
  suspended,
  terminated,
};

const char* to_string(task_state s) noexcept;

class task {
 public:
  // Move-only: task bodies may capture unique_ptr and friends.
  using body_fn = unique_function<void()>;

  task(body_fn body, task_priority priority = task_priority::normal,
       const char* description = "<unnamed>");
  ~task();

  task(const task&) = delete;
  task& operator=(const task&) = delete;

  // One object per task, with its fiber inside: task objects come from a
  // process-wide magazine_cache (util/magazine_cache.hpp), so a spawn takes
  // no lock and no heap allocation in steady state.
  static void* operator new(std::size_t size);
  static void operator delete(void* p, std::size_t size) noexcept;

  std::uint64_t id() const noexcept { return id_; }
  task_priority priority() const noexcept { return priority_; }
  const char* description() const noexcept { return description_; }
  task_state state() const noexcept { return state_.load(std::memory_order_acquire); }

  // --- transitions (asserted; each is performed by exactly one thread) ---

  // staged -> pending, attaching an execution context. Called by the worker
  // that converts the description (possibly after moving it across domains).
  void convert_to_pending(fiber_stack stack);

  // pending -> active, performed by the executing worker.
  void begin_phase(int worker_index);

  // Announces suspension from inside the task (active -> suspending).
  void mark_suspending();

  // Worker-side completion of a suspension after the context switch back:
  // suspending -> suspended. Returns false if a waker already requested a
  // wake-up (wake_requested -> pending performed here), in which case the
  // caller must re-queue the task.
  bool finalize_suspend();

  // Aborts an announced suspension without ever leaving the worker: the
  // waiting condition turned out to be already satisfied (suspending |
  // wake_requested -> active). The wait protocol is therefore:
  //   mark_suspending(); register as waiter; re-check condition;
  //   satisfied ? cancel_suspend() : context-switch away.
  void cancel_suspend();

  // Waker side: make a suspended/suspending task runnable again.
  // Returns true if the caller must enqueue the task (it won the
  // suspended -> pending transition); false if the wake was absorbed by the
  // suspending worker or the task was not asleep.
  bool wake();

  // active -> pending without any waiting (cooperative yield). Performed by
  // the worker after the context switch back when yield_requested() is set.
  void requeue_after_yield();

  // active -> terminated; body returned.
  void finish();

  // --- execution plumbing -----------------------------------------------

  bool has_context() const noexcept { return fib_.has_value(); }
  fiber& context() noexcept { return *fib_; }
  // Reclaims the stack of a terminated task for pooling.
  fiber_stack take_stack();

  int last_worker() const noexcept { return last_worker_; }

  // Manager that owns and schedules this task (set at spawn). Lets any
  // thread — worker or external — route a wake-up correctly.
  thread_manager* owner() const noexcept { return owner_; }
  void set_owner(thread_manager* tm) noexcept { owner_ = tm; }

  void request_yield() noexcept { yield_requested_ = true; }
  bool consume_yield_request() noexcept {
    const bool y = yield_requested_;
    yield_requested_ = false;
    return y;
  }

  // Number of completed thread-phases (activations).
  std::uint32_t phases() const noexcept { return phases_; }
  void count_phase() noexcept { ++phases_; }

  // Accumulated execution time over all phases (TSC ticks). Only touched by
  // the worker currently running the task; feeds the task-duration
  // histogram when the task terminates.
  std::uint64_t exec_ticks() const noexcept { return exec_ticks_; }
  void add_exec_ticks(std::uint64_t dt) noexcept { exec_ticks_ += dt; }

 private:
  body_fn body_;
  std::optional<fiber> fib_;
  std::atomic<task_state> state_{task_state::staged};
  const std::uint64_t id_;
  task_priority priority_;
  const char* description_;
  thread_manager* owner_ = nullptr;
  int last_worker_ = -1;
  bool yield_requested_ = false;
  std::uint32_t phases_ = 0;
  std::uint64_t exec_ticks_ = 0;
};

}  // namespace gran
