// Per-thread object caches in front of one locked depot: the magazine layer
// of Bonwick's slab allocator ("Magazines and Vmem", USENIX 2001), with
// dense thread slots standing in for its CPUs. Fiber stacks
// (fiber/stack.hpp) and task objects (threads/task.hpp) both come from one.
//
//   * Each thread slot owns two magazines of up to `rounds` items, the
//     loaded one and the previous one. pop and push touch only the calling
//     thread's magazines: no lock and no atomic read-modify-write.
//   * Only whole magazines move to and from the depot, under its mutex, so
//     a thread takes the lock once per `rounds` items at most. A thread that
//     only frees (a worker retiring what a spawner made) spills full
//     magazines into the depot; a thread that only allocates refills from it.
//   * Holdings are capped: 2·rounds items per slot, `depot_magazines` full
//     magazines in the depot. A push past both caps disposes of the item.
//     The destructor disposes of everything the cache holds.
//
// A thread slot is claimed on a thread's first use and returned when the
// thread exits. The next thread to claim the slot inherits whatever the
// slot's magazines hold, so items are never stranded on exited threads and
// a cache needs no thread-exit hook of its own.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>

#include "util/cacheline.hpp"

namespace gran {

// Thread slots available to the caches; threads beyond this many live ones
// bypass the caches (pop finds nothing, push disposes).
inline constexpr int k_max_thread_slots = 128;

// Dense index of the calling thread among the live threads that asked for
// one: the lowest free index, claimed on the first call and returned when
// the thread exits. -1 while the thread is exiting or when every slot is
// taken.
int this_thread_slot() noexcept;

class magazine_cache {
 public:
  static constexpr std::size_t k_max_rounds = 32;

  // Disposes of an item the cache will not keep (push past the caps, and
  // everything left at destruction). `ctx` is the constructor's argument.
  using dispose_fn = void (*)(void* item, void* ctx);

  // `rounds` in [1, k_max_rounds]. Constant-initializable, so a cache with
  // static storage duration outlives every dynamically initialized object.
  constexpr magazine_cache(std::size_t rounds, std::size_t depot_magazines,
                           dispose_fn dispose, void* ctx) noexcept
      : rounds_(rounds < 1 ? 1 : (rounds > k_max_rounds ? k_max_rounds : rounds)),
        depot_cap_(depot_magazines),
        dispose_(dispose),
        ctx_(ctx) {}
  ~magazine_cache();

  magazine_cache(const magazine_cache&) = delete;
  magazine_cache& operator=(const magazine_cache&) = delete;

  // An item cached for the calling thread, or nullptr: the caller then
  // makes a fresh one.
  void* pop() noexcept;
  // Caches `item` for the calling thread, or disposes of it past the caps.
  void push(void* item) noexcept;

  // Items held in the depot and in every slot. Exact only while no other
  // thread uses the cache.
  std::size_t held() const;

 private:
  struct magazine {
    magazine* next = nullptr;  // depot list link
    std::size_t count = 0;
    void* items[k_max_rounds];
  };
  // Bonwick's invariant: `previous` is null, empty or full, and non-null
  // only when `loaded` is.
  struct alignas(cache_line_size) slot {
    magazine* loaded = nullptr;
    magazine* previous = nullptr;
  };

  void* pop_slow(slot& me) noexcept;
  bool push_slow(slot& me, void* item) noexcept;
  void drain(magazine* m) noexcept;

  const std::size_t rounds_;
  const std::size_t depot_cap_;
  const dispose_fn dispose_;
  void* const ctx_;
  slot slots_[k_max_thread_slots];

  mutable std::mutex mutex_;      // guards the depot lists below
  magazine* full_ = nullptr;      // full magazines, at most depot_cap_
  magazine* empty_ = nullptr;     // empty magazines handed back by pop
  // Length of full_, stored under the mutex. Read without it as a hint, so
  // a thread that would find the depot empty (pop) or full (push) does not
  // take the lock on every item.
  std::atomic<std::size_t> full_count_{0};
};

}  // namespace gran
