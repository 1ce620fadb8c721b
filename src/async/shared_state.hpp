// Shared state behind future/promise.
//
// Holds exactly one of {nothing, value, exception}; supports cooperative
// waiting (tasks suspend, external threads park) and attached continuation
// records (run by the fulfilling thread, in registration order). Records are
// what dataflow/when_all/then use to turn data dependencies into the
// runtime-generated execution tree the paper describes (§I-C).
//
// The records form an intrusive lock-free stack (DESIGN.md decision 11):
// attaching one is a release CAS onto `head_`; becoming ready stores the
// outcome, exchanges in the ready mark (acq_rel) and runs the records it
// took; an attach that loads the mark (acquire) runs its record inline. A
// state destroyed before it became ready hands each record the `dropped`
// call, which releases what the record holds and runs no user code.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>  // std::future_error / future_errc
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "sync/spinlock.hpp"
#include "sync/timer_service.hpp"
#include "sync/wait_queue.hpp"
#include "util/assert.hpp"

namespace gran::detail {

template <typename T>
struct state_storage {
  using type = T;
};
template <>
struct state_storage<void> {
  using type = std::monostate;
};

// One entry of a state's continuation stack. The owner embeds it (a
// dataflow edge) or allocates it with its payload (future::on_ready).
// `run` is called exactly once: ready == true once the state is ready,
// ready == false when the state dies without becoming ready. It may free
// the record.
struct continuation {
  continuation* next = nullptr;
  void (*run)(continuation* self, bool ready) = nullptr;
};

// Stands in `head_` once the state is ready; never run.
inline continuation ready_mark;

// A heap record that carries a callable: runs it once ready, frees itself
// either way (future::on_ready).
template <typename Fn>
struct callable_record final : continuation {
  template <typename F>
  explicit callable_record(F&& f) : fn(std::forward<F>(f)) {
    run = [](continuation* c, bool ready) {
      std::unique_ptr<callable_record> self(static_cast<callable_record*>(c));
      if (ready) self->fn();
    };
  }
  Fn fn;
};

template <typename T>
class shared_state {
 public:
  using storage_t = typename state_storage<T>::type;

  shared_state() = default;
  shared_state(const shared_state&) = delete;
  shared_state& operator=(const shared_state&) = delete;

  ~shared_state() {
    continuation* head = head_.load(std::memory_order_acquire);
    if (head != &ready_mark) run_records(head, /*ready=*/false);
  }

  bool is_ready() const noexcept {
    return head_.load(std::memory_order_acquire) == &ready_mark;
  }

  // --- producer side ------------------------------------------------------

  template <typename... Args>
  void set_value(Args&&... args) {
    claim();
    try {
      value_.emplace(std::forward<Args>(args)...);
    } catch (...) {
      claimed_.store(false, std::memory_order_relaxed);
      throw;
    }
    publish();
  }

  void set_exception(std::exception_ptr error) {
    GRAN_ASSERT(error != nullptr);
    claim();
    error_ = std::move(error);
    publish();
  }

  // --- consumer side ------------------------------------------------------

  void wait() const {
    if (!is_ready()) block_until(guard_, waiters_, [this] { return is_ready(); });
  }

  // Timed wait: blocks until ready or `deadline`. Returns true when the
  // state is ready (possibly having become ready exactly at wake-up).
  bool wait_until(timer_service::clock::time_point deadline) const {
    if (is_ready()) return true;
    task* const t = thread_manager::current_task();
    if (t == nullptr) {
      // External thread: a timed park, with stale-entry cleanup on timeout.
      for (;;) {
        external_waiter w;
        guard_.lock();
        if (is_ready()) {
          guard_.unlock();
          return true;
        }
        if (timer_service::clock::now() >= deadline) {
          guard_.unlock();
          return false;
        }
        waiters_.add_external(&w);
        guard_.unlock();
        if (w.wait_until(deadline)) return true;
        guard_.lock();
        const bool removed = waiters_.remove_external(&w);
        guard_.unlock();
        // Not removed => a notifier popped us concurrently; it will (or
        // already did) call notify(), making the slot safe to destroy only
        // after that delivery: absorb it.
        if (!removed) w.wait();
        if (is_ready()) return true;
      }
    }
    // Task path: park with a cancellable timer wake racing the notifier.
    for (;;) {
      this_task::prepare_suspend();
      guard_.lock();
      if (is_ready()) {
        guard_.unlock();
        this_task::cancel_suspend();
        return true;
      }
      if (timer_service::clock::now() >= deadline) {
        guard_.unlock();
        this_task::cancel_suspend();
        return false;
      }
      waiters_.add_task(t);
      guard_.unlock();
      const wake_ticket ticket = timer_service::global().schedule_wake(t, deadline);
      this_task::commit_suspend();
      // Either the notifier or the timer woke us. Retire the timer claim
      // (waiting out an in-flight delivery) and drop any stale waiter entry
      // before looping.
      wake_ticket_cancel(ticket);
      guard_.lock();
      waiters_.remove(t);
      guard_.unlock();
      if (is_ready()) return true;
      if (timer_service::clock::now() >= deadline) return false;
    }
  }

  // Blocks, then returns the stored value or rethrows the stored exception.
  const storage_t& get() const {
    wait();
    if (error_) std::rethrow_exception(error_);
    return *value_;
  }

  bool has_exception() const noexcept {
    return is_ready() && error_ != nullptr;
  }
  std::exception_ptr exception() const noexcept {
    return is_ready() ? error_ : nullptr;
  }

  // Runs `c` once the state is ready: pushed onto the stack, or run inline
  // in the calling thread when the state already is. `c->run` must not block.
  void attach(continuation* c) {
    continuation* head = head_.load(std::memory_order_acquire);
    do {
      if (head == &ready_mark) {
        c->run(c, /*ready=*/true);
        return;
      }
      c->next = head;
    } while (!head_.compare_exchange_weak(head, c, std::memory_order_release,
                                          std::memory_order_acquire));
  }

 private:
  void claim() {
    if (claimed_.exchange(true, std::memory_order_relaxed))
      throw std::future_error(std::future_errc::promise_already_satisfied);
  }

  // The outcome is stored; make it visible, wake the waiters, then run the
  // records. The caller holds a reference, so the state outlives all three.
  void publish() {
    continuation* head = head_.exchange(&ready_mark, std::memory_order_acq_rel);
    // A waiter enqueues under guard_ only after seeing the state not ready,
    // so every waiter that missed the exchange is in the queue by the time
    // this lock is taken.
    guard_.lock();
    waiters_.notify_all();
    guard_.unlock();
    run_records(head, /*ready=*/true);
  }

  // The stack is newest-first; reverse it so records run in the order they
  // were attached. `next` is read before `run`, which may free the record.
  static void run_records(continuation* head, bool ready) {
    continuation* ordered = nullptr;
    while (head != nullptr) {
      continuation* const next = head->next;
      head->next = ordered;
      ordered = head;
      head = next;
    }
    while (ordered != nullptr) {
      continuation* const next = ordered->next;
      ordered->run(ordered, ready);
      ordered = next;
    }
  }

  std::atomic<continuation*> head_{nullptr};
  std::atomic<bool> claimed_{false};
  mutable spinlock guard_;  // guards waiters_ only
  mutable wait_queue waiters_;
  std::optional<storage_t> value_;
  std::exception_ptr error_;
};

// Edge records a node over a vector of inputs keeps inline: stencil1d and
// fft nodes (fan-in <= 3) need no second allocation.
inline constexpr std::size_t k_inline_edges = 4;

// A state that waits on a set of input states through one edge record per
// input and fires once all of them are ready: the when_all and dataflow
// nodes. `Node` derives from it and supplies fire(); the first `Inline`
// edge records live inside the node, wider fan-in takes one array.
//
// Lifetime: start() makes the node own itself (`self_`) until its last
// edge resolves. The constructing call counts as one more edge, dropped
// after every edge is attached, so the node cannot fire while start() is
// still walking its inputs. An input state that dies without becoming ready
// resolves its edge as dropped: the node then never fires, and only lets go
// of itself.
template <typename U, typename Node, std::size_t Inline>
class join_node : public shared_state<U> {
 public:
  explicit join_node(std::size_t inputs)
      : pending_(inputs + 1),
        spill_(inputs > Inline ? std::make_unique<edge[]>(inputs) : nullptr) {
    GRAN_ASSERT(inputs < k_dropped - 1);
  }

  // `attach_inputs(attach)` calls attach(state) once per input state, in
  // input order; `self` must own this node.
  template <typename AttachInputs>
  void start(std::shared_ptr<Node> self, AttachInputs&& attach_inputs) {
    self_ = std::move(self);
    std::size_t i = 0;
    attach_inputs([this, &i](auto& state) {
      edge& e = spill_ ? spill_[i] : inline_[i];
      ++i;
      e.node = this;
      e.run = &edge_run;
      state.attach(&e);
    });
    arrive(/*ready=*/true);
  }

 private:
  // Low 32 bits: edges not yet resolved. High bits: edges dropped.
  static constexpr std::uint64_t k_dropped = std::uint64_t{1} << 32;

  struct edge : continuation {
    join_node* node = nullptr;
  };

  static void edge_run(continuation* c, bool ready) {
    static_cast<edge*>(c)->node->arrive(ready);
  }

  void arrive(bool ready) {
    const std::uint64_t prev = pending_.fetch_add(
        ready ? ~std::uint64_t{0} : k_dropped - 1, std::memory_order_acq_rel);
    if ((prev & (k_dropped - 1)) != 1) return;
    std::shared_ptr<Node> self = std::move(self_);
    if (ready && prev < k_dropped) static_cast<Node*>(this)->fire(std::move(self));
  }

  std::atomic<std::uint64_t> pending_;
  std::shared_ptr<Node> self_;
  std::array<edge, Inline> inline_{};
  std::unique_ptr<edge[]> spill_;
};

}  // namespace gran::detail
