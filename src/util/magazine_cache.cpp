#include "util/magazine_cache.hpp"

#include <bit>
#include <cstdint>
#include <new>
#include <utility>

namespace gran {

namespace {

// The slot registry is constant-initialized and trivially destructible, so
// threads that exit during static destruction can still return their slot.
constinit std::mutex g_slot_mutex;
constinit std::uint64_t g_slot_used[k_max_thread_slots / 64] = {};

// The calling thread's slot: -1 before the first claim, -2 once the thread
// is exiting or found every slot taken.
constinit thread_local int tl_slot = -1;

struct slot_release {
  bool armed = false;
  ~slot_release() {
    if (tl_slot >= 0) {
      std::lock_guard<std::mutex> lock(g_slot_mutex);
      g_slot_used[tl_slot / 64] &= ~(std::uint64_t{1} << (tl_slot % 64));
    }
    tl_slot = -2;
  }
};
thread_local slot_release tl_slot_release;

int claim_slot() noexcept {
  if (tl_slot == -2) return -1;
  int s = -2;
  {
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (int word = 0; word < k_max_thread_slots / 64; ++word) {
      const std::uint64_t free_bits = ~g_slot_used[word];
      if (free_bits == 0) continue;
      const int bit = std::countr_zero(free_bits);
      g_slot_used[word] |= std::uint64_t{1} << bit;
      s = word * 64 + bit;
      break;
    }
  }
  tl_slot = s;
  if (s < 0) return -1;
  tl_slot_release.armed = true;  // registers the exit-time release
  return s;
}

}  // namespace

int this_thread_slot() noexcept {
  const int s = tl_slot;
  return s >= 0 ? s : claim_slot();
}

magazine_cache::~magazine_cache() {
  for (slot& s : slots_) {
    if (s.loaded != nullptr) drain(s.loaded);
    if (s.previous != nullptr) drain(s.previous);
  }
  while (full_ != nullptr) drain(std::exchange(full_, full_->next));
  while (empty_ != nullptr) delete std::exchange(empty_, empty_->next);
}

void magazine_cache::drain(magazine* m) noexcept {
  for (std::size_t i = 0; i < m->count; ++i) dispose_(m->items[i], ctx_);
  delete m;
}

void* magazine_cache::pop() noexcept {
  const int s = this_thread_slot();
  if (s < 0) return nullptr;
  slot& me = slots_[s];
  if (me.loaded != nullptr && me.loaded->count > 0)
    return me.loaded->items[--me.loaded->count];
  return pop_slow(me);
}

void* magazine_cache::pop_slow(slot& me) noexcept {
  // `loaded` is null or empty here.
  if (me.previous != nullptr && me.previous->count > 0) {
    std::swap(me.loaded, me.previous);
    return me.loaded->items[--me.loaded->count];
  }
  if (full_count_.load(std::memory_order_relaxed) == 0) return nullptr;
  magazine* full;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    full = full_;
    if (full == nullptr) return nullptr;
    full_ = full->next;
    full_count_.store(full_count_.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
    if (me.previous != nullptr) {  // empty: back to the depot
      me.previous->next = empty_;
      empty_ = me.previous;
    }
  }
  me.previous = me.loaded;
  me.loaded = full;
  return me.loaded->items[--me.loaded->count];
}

void magazine_cache::push(void* item) noexcept {
  const int s = this_thread_slot();
  if (s >= 0) {
    slot& me = slots_[s];
    if (me.loaded != nullptr && me.loaded->count < rounds_) {
      me.loaded->items[me.loaded->count++] = item;
      return;
    }
    if (push_slow(me, item)) return;
  }
  dispose_(item, ctx_);
}

bool magazine_cache::push_slow(slot& me, void* item) noexcept {
  // `loaded` is null or full here.
  if (me.previous != nullptr && me.previous->count == 0) {
    std::swap(me.loaded, me.previous);
    me.loaded->items[me.loaded->count++] = item;
    return true;
  }
  // `previous`, when set, is full: it goes to the depot, if there is room.
  if (me.previous != nullptr && full_count_.load(std::memory_order_relaxed) >= depot_cap_)
    return false;
  magazine* empty = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (me.previous != nullptr) {
      const std::size_t n = full_count_.load(std::memory_order_relaxed);
      if (n >= depot_cap_) return false;
      me.previous->next = full_;
      full_ = me.previous;
      full_count_.store(n + 1, std::memory_order_relaxed);
      me.previous = nullptr;
    }
    if (empty_ != nullptr) empty = std::exchange(empty_, empty_->next);
  }
  if (empty == nullptr) {
    empty = new (std::nothrow) magazine;
    if (empty == nullptr) return false;
  }
  empty->next = nullptr;
  me.previous = me.loaded;
  me.loaded = empty;
  me.loaded->items[me.loaded->count++] = item;
  return true;
}

std::size_t magazine_cache::held() const {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const magazine* m = full_; m != nullptr; m = m->next) n += m->count;
  }
  for (const slot& s : slots_) {
    if (s.loaded != nullptr) n += s.loaded->count;
    if (s.previous != nullptr) n += s.previous->count;
  }
  return n;
}

}  // namespace gran
