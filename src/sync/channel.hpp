// Bounded multi-producer/multi-consumer channel with cooperative blocking —
// the CSP-style pipe used by the dataflow-pipeline example. send() blocks
// when full, recv() blocks when empty, close() releases every blocked party.
#pragma once

#include <deque>
#include <optional>

#include "sync/spinlock.hpp"
#include "sync/wait_queue.hpp"
#include "util/assert.hpp"

namespace gran {

template <typename T>
class channel {
 public:
  explicit channel(std::size_t capacity) : capacity_(capacity) {
    GRAN_ASSERT(capacity >= 1);
  }
  channel(const channel&) = delete;
  channel& operator=(const channel&) = delete;

  // Blocks while the channel is full. Returns false if the channel was
  // closed (the value is dropped).
  bool send(T value) {
    bool sent = false;
    wait_queue to_wake;
    block_until(guard_, send_waiters_, [&] {
      if (closed_) return true;
      if (items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      to_wake = recv_waiters_.detach(1);
      sent = true;
      return true;
    });
    to_wake.dispatch_all();
    return sent;
  }

  // Blocks while the channel is empty. Empty optional once the channel is
  // closed *and* drained.
  std::optional<T> recv() {
    std::optional<T> value;
    wait_queue to_wake;
    block_until(guard_, recv_waiters_, [&] {
      if (items_.empty()) return closed_;
      value = std::move(items_.front());
      items_.pop_front();
      to_wake = send_waiters_.detach(1);
      return true;
    });
    to_wake.dispatch_all();
    return value;
  }

  // Non-blocking variants.
  bool try_send(T value) {
    guard_.lock();
    if (closed_ || items_.size() >= capacity_) {
      guard_.unlock();
      return false;
    }
    items_.push_back(std::move(value));
    wait_queue to_wake = recv_waiters_.detach(1);
    guard_.unlock();
    to_wake.dispatch_all();
    return true;
  }

  std::optional<T> try_recv() {
    guard_.lock();
    if (items_.empty()) {
      guard_.unlock();
      return std::nullopt;
    }
    T value = std::move(items_.front());
    items_.pop_front();
    wait_queue to_wake = send_waiters_.detach(1);
    guard_.unlock();
    to_wake.dispatch_all();
    return value;
  }

  // Closes the channel: senders fail, receivers drain then see nullopt.
  void close() {
    guard_.lock();
    closed_ = true;
    wait_queue senders = send_waiters_.detach_all();
    wait_queue receivers = recv_waiters_.detach_all();
    guard_.unlock();
    senders.dispatch_all();
    receivers.dispatch_all();
  }

  bool closed() const {
    guard_.lock();
    const bool c = closed_;
    guard_.unlock();
    return c;
  }

  std::size_t size() const {
    guard_.lock();
    const std::size_t n = items_.size();
    guard_.unlock();
    return n;
  }

 private:
  mutable spinlock guard_;
  wait_queue send_waiters_;
  wait_queue recv_waiters_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace gran
