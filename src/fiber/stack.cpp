#include "fiber/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <utility>

#include "util/assert.hpp"

namespace gran {

namespace {

std::size_t page_size() {
  static const std::size_t size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

}  // namespace

fiber_stack::fiber_stack(std::size_t usable_size) {
  const std::size_t page = page_size();
  usable_size_ = round_up_pages(usable_size);
  mapping_size_ = usable_size_ + page;  // one guard page at the low end
  void* map = ::mmap(nullptr, mapping_size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  // Stacks grow downward: protect the lowest page so overflow faults.
  if (::mprotect(map, page, PROT_NONE) != 0) {
    ::munmap(map, mapping_size_);
    throw std::bad_alloc();
  }
  mapping_ = map;
  usable_ = static_cast<char*>(map) + page;
}

fiber_stack::fiber_stack(void* mapping, std::size_t usable_size) noexcept
    : mapping_(mapping),
      mapping_size_(usable_size + page_size()),
      usable_(static_cast<char*>(mapping) + page_size()),
      usable_size_(usable_size) {}

fiber_stack::~fiber_stack() { release(); }

void* fiber_stack::detach() noexcept {
  usable_ = nullptr;
  mapping_size_ = usable_size_ = 0;
  return std::exchange(mapping_, nullptr);
}

fiber_stack::fiber_stack(fiber_stack&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      mapping_size_(std::exchange(other.mapping_size_, 0)),
      usable_(std::exchange(other.usable_, nullptr)),
      usable_size_(std::exchange(other.usable_size_, 0)) {}

fiber_stack& fiber_stack::operator=(fiber_stack&& other) noexcept {
  if (this != &other) {
    release();
    mapping_ = std::exchange(other.mapping_, nullptr);
    mapping_size_ = std::exchange(other.mapping_size_, 0);
    usable_ = std::exchange(other.usable_, nullptr);
    usable_size_ = std::exchange(other.usable_size_, 0);
  }
  return *this;
}

void fiber_stack::release() noexcept {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapping_size_);
    mapping_ = nullptr;
    usable_ = nullptr;
    mapping_size_ = usable_size_ = 0;
  }
}

namespace {

// Two magazines must fit under the cap; the depot takes the rest.
std::size_t pool_rounds(std::size_t max_cached) {
  return std::clamp<std::size_t>(max_cached / 2, 1, magazine_cache::k_max_rounds);
}

std::size_t pool_depot(std::size_t max_cached) {
  const std::size_t rounds = pool_rounds(max_cached);
  return max_cached > 2 * rounds ? (max_cached - 2 * rounds) / rounds : 0;
}

}  // namespace

stack_pool::stack_pool(std::size_t stack_size, std::size_t max_cached)
    : stack_size_(stack_size),
      usable_size_(round_up_pages(stack_size)),
      cache_(pool_rounds(max_cached), pool_depot(max_cached), &stack_pool::unmap,
             this) {
  GRAN_ASSERT(stack_size_ >= 4096);
  GRAN_ASSERT(max_cached >= 2);
}

void stack_pool::unmap(void* mapping, void* pool) {
  fiber_stack doomed(mapping, static_cast<stack_pool*>(pool)->usable_size_);
}

fiber_stack stack_pool::acquire() {
  if (void* mapping = cache_.pop()) return fiber_stack(mapping, usable_size_);
  return fiber_stack(stack_size_);
}

void stack_pool::release(fiber_stack stack) {
  if (!stack.valid() || stack.size() != usable_size_) return;  // unmaps on exit
  cache_.push(stack.detach());
}

}  // namespace gran
