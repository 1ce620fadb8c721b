// Bounded lock-free single-producer/single-consumer ring buffer.
//
// Used where exactly one thread produces and one consumes at any point in
// time (per-worker steal-request and task-delivery channels of the
// channel-steal policy, deferred-wakeup lanes). Capacity is rounded up to a
// power of two; one slot is sacrificed to distinguish full from empty.
//
// Storage is *uninitialized*: elements are placement-new constructed by
// push and destroyed by pop, so T needs neither a default constructor nor
// copy assignment — move-only payloads (std::unique_ptr, tasks) work.
//
// Ownership contract on a full ring: push returns false WITHOUT consuming
// the argument. A caller that retries (`while (!ring.push(std::move(v)))`)
// therefore still owns a valid `v` after every failed attempt — there is no
// double-move. On success the ring owns the element until pop moves it out;
// elements still queued when the ring is destroyed are drained (their
// destructors run, so RAII payloads release their resources). For non-RAII
// owning payloads (raw `task*`), the producer/consumer pair must drain the
// ring before destruction — the destructor can only destroy the pointer,
// not the pointee.
//
// The producer side may migrate between threads as long as successive
// producers are serialized by a happens-before chain (e.g. a token passed
// through another channel); the same holds for the consumer side. All
// cross-thread publication happens through the release/acquire pair on
// head_/tail_.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>

#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace gran {

template <typename T>
class spsc_ring {
 public:
  explicit spsc_ring(std::size_t capacity)
      : mask_(std::bit_ceil(capacity + 1) - 1),
        slots_(static_cast<T*>(::operator new[]((mask_ + 1) * sizeof(T),
                                                std::align_val_t{alignof(T)}))) {
    GRAN_ASSERT(capacity >= 1);
  }

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  // Drains (destroys) any unconsumed elements, then frees the storage.
  // RAII payloads therefore never leak at shutdown; see the ownership
  // contract above for raw owning pointers.
  ~spsc_ring() {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    while (tail != head) {
      slots_[tail].~T();
      tail = (tail + 1) & mask_;
    }
    ::operator delete[](static_cast<void*>(slots_), std::align_val_t{alignof(T)});
  }

  // Producer side. Returns false when full; the argument is NOT consumed on
  // failure (the caller still owns it and may retry or dispose of it).
  bool push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    ::new (static_cast<void*>(&slots_[head])) T(std::move(value));
    head_.store(next, std::memory_order_release);
    return true;
  }
  bool push(const T& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    ::new (static_cast<void*>(&slots_[head])) T(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  // Consumer side. Empty optional when no element is available.
  std::optional<T> pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;
    T& slot = slots_[tail];
    std::optional<T> value{std::move(slot)};
    slot.~T();
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  // Approximate (racy by nature); exact when producer and consumer are
  // quiescent.
  std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  std::size_t capacity() const { return mask_; }

 private:
  const std::size_t mask_;
  T* const slots_;
  alignas(cache_line_size) std::atomic<std::size_t> head_{0};
  alignas(cache_line_size) std::atomic<std::size_t> tail_{0};
};

}  // namespace gran
