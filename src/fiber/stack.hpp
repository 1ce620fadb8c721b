// Fiber stacks: mmap-backed with an inaccessible guard page below the
// usable region, plus a recycling pool so that steady-state task creation
// performs no syscalls (HPX-threads are created by the million; stack reuse
// is what keeps task-creation overhead in the sub-microsecond range the
// paper's idle-rate numbers imply).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

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
  void release() noexcept;

  void* mapping_ = nullptr;       // includes the guard page
  std::size_t mapping_size_ = 0;
  void* usable_ = nullptr;
  std::size_t usable_size_ = 0;
};

// Thread-safe free-list of stacks of a single size.
class stack_pool {
 public:
  explicit stack_pool(std::size_t stack_size, std::size_t max_cached = 1024);

  // Pops a cached stack or allocates a fresh one.
  fiber_stack acquire();

  // Returns a stack for reuse (dropped if the cache is full).
  void release(fiber_stack stack);

  std::size_t stack_size() const noexcept { return stack_size_; }
  std::size_t cached() const;

 private:
  const std::size_t stack_size_;
  const std::size_t max_cached_;
  mutable std::mutex mutex_;
  std::vector<fiber_stack> cache_;
};

}  // namespace gran
