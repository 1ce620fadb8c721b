#include "fiber/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

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

fiber_stack::~fiber_stack() { release(); }

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

stack_pool::stack_pool(std::size_t stack_size, std::size_t max_cached)
    : stack_size_(stack_size), max_cached_(max_cached) {
  GRAN_ASSERT(stack_size_ >= 4096);
}

fiber_stack stack_pool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!cache_.empty()) {
      fiber_stack s = std::move(cache_.back());
      cache_.pop_back();
      return s;
    }
  }
  return fiber_stack(stack_size_);
}

void stack_pool::release(fiber_stack stack) {
  if (!stack.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.size() < max_cached_) cache_.push_back(std::move(stack));
  // else: let `stack` unmap on scope exit
}

std::size_t stack_pool::cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace gran
