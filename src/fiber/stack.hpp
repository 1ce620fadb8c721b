// Fiber stacks: mmap-backed with an inaccessible guard page below the
// usable region, plus a recycling pool so that steady-state task creation
// performs no syscalls and takes no lock (HPX-threads are created by the
// million; stack reuse is what keeps task-creation overhead in the
// sub-microsecond range the paper's idle-rate numbers imply).
#pragma once

#include <cstddef>

#include "util/magazine_cache.hpp"

namespace gran {

// One mmap'd stack region. Movable, non-copyable; unmaps on destruction.
class fiber_stack {
 public:
  fiber_stack() = default;
  // Allocates `usable_size` bytes (rounded up to whole pages) plus one guard
  // page. Throws std::bad_alloc on mmap failure.
  explicit fiber_stack(std::size_t usable_size);
  ~fiber_stack();

  fiber_stack(fiber_stack&& other) noexcept;
  fiber_stack& operator=(fiber_stack&& other) noexcept;
  fiber_stack(const fiber_stack&) = delete;
  fiber_stack& operator=(const fiber_stack&) = delete;

  // Base of the usable region (just above the guard page).
  void* base() const noexcept { return usable_; }
  std::size_t size() const noexcept { return usable_size_; }
  bool valid() const noexcept { return usable_ != nullptr; }

 private:
  friend class stack_pool;
  // Adopts a mapping made by the constructor above for `usable_size`.
  fiber_stack(void* mapping, std::size_t usable_size) noexcept;
  // Gives up the mapping without unmapping it.
  void* detach() noexcept;
  void release() noexcept;

  void* mapping_ = nullptr;       // includes the guard page
  std::size_t mapping_size_ = 0;
  void* usable_ = nullptr;
  std::size_t usable_size_ = 0;
};

// Thread-safe cache of stacks of a single size: a magazine_cache, so
// acquire and release take no lock in steady state, from any thread.
// `max_cached` (>= 2) caps what one thread sees the pool hold, its two
// magazines plus the depot; each further thread slot adds at most its two
// magazines. Destroying the pool unmaps every stack it holds.
class stack_pool {
 public:
  explicit stack_pool(std::size_t stack_size, std::size_t max_cached = 1024);

  // Pops a cached stack or maps a fresh one.
  fiber_stack acquire();

  // Returns a stack for reuse (unmapped past the caps, or when its size is
  // not this pool's).
  void release(fiber_stack stack);

  std::size_t stack_size() const noexcept { return stack_size_; }
  // Stacks held; exact only while no other thread uses the pool.
  std::size_t cached() const { return cache_.held(); }

 private:
  static void unmap(void* mapping, void* pool);

  const std::size_t stack_size_;
  const std::size_t usable_size_;  // stack_size_ rounded up to pages
  magazine_cache cache_;
};

}  // namespace gran
