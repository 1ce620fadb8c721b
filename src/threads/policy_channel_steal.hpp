// Channel-steal policy: message-passing work stealing after Prell's
// tasking-2.0 runtime. No shared deques — every worker owns a *private*
// task deque that no other thread ever touches. An idle worker (thief)
// sends a `steal_request` token through an SPSC channel to a victim; the
// victim, at its next cooperation point, either answers by pushing a batch
// of tasks into the thief's SPSC delivery channel, or — when its own deque
// is empty — forwards the token to the next victim on the *thief's* victim
// route (worker_data::route, the one every stealing policy walks; a token's
// circuit starts at the thief's sweep position on a hier route, at its
// successor on a flat one). A token that completes a full circuit unserved is
// returned to the thief as a decline; the thief then blocks its requesting
// until the manager's queued-task count signals new supply, so an idle
// machine converges to zero circulating requests (polling-free
// termination — the convergence the channel_steal_test asserts).
//
// Channel matrix and serialization. req_from_[v][t] is the SPSC ring that
// carries thief t's token while it visits victim v. Each thief has at most
// ONE token in flight, and every hop is a release-push followed by an
// acquire-pop, so successive producers of any one ring are serialized by a
// happens-before chain even though the token migrates between threads —
// the "token discipline" under which spsc_ring explicitly permits producer
// migration (see spsc_ring.hpp and DESIGN.md decision 10). The same chain
// covers the delivery ring: a victim only produces into delivery_[t] while
// it holds t's token, and the thief only issues its next request after it
// acquire-loads the victim's batch announcement (`served_`), so victim
// N+1's relaxed producer-side index loads are ordered after victim N's
// stores.
//
// Steal-one vs steal-half: the amount a victim sends is carried in the
// request. With cfg.steal_batch = "adaptive" (default) a thief asks for
// one task while its refills generate follow-on spawns and escalates to
// half of the victim's deque once a refill ran dry without spawning —
// Prell's rule: dry refills mean the thief is draining faster than the
// work subdivides, so grab bigger chunks.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "queues/concurrent_fifo.hpp"
#include "queues/spsc_ring.hpp"
#include "threads/policy.hpp"
#include "util/cacheline.hpp"

namespace gran {

class task;

// The circulating token. Trivially copyable; lives in the req_from_ rings.
struct steal_request {
  std::int32_t thief = -1;   // requester; deliveries go to its channel
  std::uint32_t sweep = 0;   // the thief's sweep count when it sent the token
  std::int32_t hops = 0;     // victims visited so far (0 = fresh send)
  bool half = false;         // steal-half vs steal-one
};

class channel_steal_policy final : public scheduling_policy {
 public:
  enum class batch_mode { one, half, adaptive };

  const char* name() const noexcept override { return "channel-steal"; }
  void init(thread_manager& tm) override;
  void enqueue_new(thread_manager& tm, int home, task* t) override;
  void enqueue_ready(thread_manager& tm, int home, task* t) override;
  void enqueue_hinted(thread_manager& tm, int target, task* t) override;
  task* get_next(thread_manager& tm, int w) override;
  bool queues_empty(const thread_manager& tm) const override;
  void cooperate(thread_manager& tm, int w) override;

  // Steal requests currently circulating (sent and not yet resolved into a
  // delivery or a decline). Converges to zero on an idle pool — the
  // termination-detection invariant channel_steal_test asserts.
  std::uint64_t requests_in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  batch_mode steal_batch() const noexcept { return mode_; }

  // The batch-size decision, exposed for unit testing: does the next
  // request ask for half the victim's deque? `last_refill_dry` = the
  // previous refill was fully executed without spawning follow-on work.
  static bool request_half(batch_mode mode, bool last_refill_dry) {
    switch (mode) {
      case batch_mode::one: return false;
      case batch_mode::half: return true;
      case batch_mode::adaptive: return last_refill_dry;
    }
    return false;
  }

 private:
  struct alignas(cache_line_size) worker_slot {
    // Private deque: touched ONLY by the owning worker's thread — owner
    // spawns push and pop at the back (LIFO, depth-first), request service
    // takes from the front (FIFO, the steal side). Size is mirrored into
    // deque_size for the lock-free queues_empty scan.
    std::deque<task*> deque;
    std::atomic<std::int64_t> deque_size{0};

    // Cross-thread enqueues (external spawns, wakes, placement hints from
    // other workers) land here; the owner drains it in get_next.
    concurrent_fifo<task*> inbox{256};

    // req_from[t]: thief t's token while it visits this worker. Capacity 1
    // suffices — at most one token per thief exists.
    std::vector<std::unique_ptr<spsc_ring<steal_request>>> req_from;
    // Tokens sitting in req_from (pushers add, pops subtract); lets the
    // cooperation point skip the ring scan in the common empty case.
    std::atomic<std::int64_t> pending_reqs{0};

    // Task delivery into THIS worker when it is the thief. Sole producer:
    // the victim currently holding this worker's token (see serialization
    // argument above).
    spsc_ring<task*> delivery{256};
    // Batch announcement: (victim+1) << 32 | batch size, release-stored by
    // the victim after its last delivery push; 0 = no batch. The thief
    // collects exactly `size` tasks after acquiring it, which is what
    // hands the producer role to the next victim safely.
    std::atomic<std::uint64_t> served{0};

    // Owner-only thief state (no atomics needed).
    bool outstanding = false;      // my token is in flight
    bool blocked = false;          // my token came back declined
    bool last_refill_dry = false;  // previous refill spawned nothing
    bool had_refill = false;       // at least one batch received so far
    std::uint64_t spawns_at_refill = 0;  // own `created` cell at last refill
  };

  void push_remote(thread_manager& tm, int target, task* t);
  // Owner-side push/pop of the private deque (bookkeeps deque_size).
  void deque_push(worker_slot& s, task* t);
  task* deque_pop_back(worker_slot& s);

  // Victim duties for worker `w`: pop every waiting token and serve,
  // forward, or decline it. The body of cooperate().
  void service_requests(thread_manager& tm, int w);
  void handle_request(thread_manager& tm, int w, const steal_request& r);
  // Collects an announced delivery batch into `w`'s private deque.
  // Returns the number of tasks collected.
  std::size_t collect_batch(thread_manager& tm, int w);
  // Sends a fresh request from thief `w` if allowed (no token in flight,
  // not blocked, more than one worker).
  void maybe_send_request(thread_manager& tm, int w);
  // Routes token `r` to the victim at hop `r.hops` of the thief's route.
  void send_to_hop(thread_manager& tm, int sender, steal_request r);

  std::vector<std::unique_ptr<worker_slot>> slots_;
  int num_workers_ = 0;
  batch_mode mode_ = batch_mode::adaptive;
  std::atomic<std::uint64_t> rr_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> in_flight_{0};
};

}  // namespace gran
