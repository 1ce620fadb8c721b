// Task-lifecycle tracing: per-worker lock-free ring buffers of fixed-size
// 32-byte binary events, recorded from the scheduler hot paths behind a
// single relaxed-atomic enabled check, exported as Chrome trace_event /
// Perfetto-compatible JSON (load the file in ui.perfetto.dev or
// chrome://tracing).
//
// Design constraints (see docs/TRACING.md for the full schema):
//  * Disabled cost is one predictable branch on a relaxed atomic load —
//    tracing must be free when off (bench/micro_observer_overhead times it).
//  * Each ring has exactly one producer (its worker OS thread); recording is
//    two plain stores plus one release store of the sequence counter, no
//    CAS, no allocation.
//  * On overflow the ring wraps and overwrites the oldest events
//    (keep-latest). Overwrites are counted and surfaced as the
//    /threads/count/trace-dropped counter and a warning at export time —
//    never silent.
//  * Draining a ring (export) is only valid while its producer is quiescent;
//    the runtime exports after the workers have been joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/cacheline.hpp"
#include "util/timer.hpp"

namespace gran::perf {

enum class trace_kind : std::uint16_t {
  task_begin = 0,    // first phase of a task starts      arg=id, name=description
  task_end = 1,      // task terminated                   arg=id
  phase_begin = 2,   // later phase starts (after yield/suspend)
  phase_end = 3,     // phase ended without terminating   arg2: 1=yield 2=suspend
  steal = 4,         // task obtained from another worker arg=id,
                     //   arg2 = victim | (topology distance << 16), distance:
                     //   0=SMT sibling, 1=same NUMA domain, 2=remote domain
  park = 5,          // worker blocks on the idle cv
  unpark = 6,        // worker resumes from the idle cv
  pending_miss = 7,  // scheduler round found no work (first miss after work)
  pin_rejected = 8,  // kernel refused the worker's CPU pin   arg=target cpu
  task_enqueue = 9,  // a new task was spawned             arg=child task id,
                     //   arg2 = spawning worker (external_worker when spawned
                     //   from a non-worker thread); the event's timestamp is
                     //   the spawn time, feeding spawn->first-run wait
                     //   attribution (perf/analysis.hpp)
  graph_node = 10,   // graph-node provenance: the running task is DAG node
                     //   (step, point)                    arg=task id,
                     //   arg2 = pack_graph_node(step, point)
  task_split = 11,   // the running task gave away the back half of its range
                     //   (lazy splitting, algo/splittable.hpp)
                     //   arg = parent (splitting) task id,
                     //   arg2 = split point (first index of the child's
                     //   half, saturated to 32 bits); the next task_enqueue
                     //   on the same lane is the child — the pairing the
                     //   analyzer uses for split provenance
  steal_request = 12,  // channel-steal: a steal-request token left this
                       //   worker — sent fresh (arg = 0) or forwarded
                       //   (arg = hops so far); arg2 = steal_arg2(target
                       //   victim, thief→target topology distance)
  steal_handoff = 13,  // channel-steal: this worker (the victim) pushed a
                       //   batch of tasks into a thief's delivery channel
                       //   arg = batch size, arg2 = steal_arg2(thief,
                       //   victim→thief topology distance); the matching
                       //   thief-side `steal` event carries the first
                       //   task's id
  task_pmu = 14,  // hardware-counter delta for the adjacent slice event
                  //   (perf/pmu.hpp). Emitted right AFTER a task_begin /
                  //   phase_begin at the same timestamp, the delta covers
                  //   the scheduler gap since the previous phase ended on
                  //   this lane; right after a task_end / phase_end it
                  //   covers the phase body (kernel work). The analyzer
                  //   pairs by lane adjacency, like task_split, so pairs
                  //   survive ring wraparound. arg = pack_pmu_arg(cycles,
                  //   instructions), arg2 = LLC misses — all saturated to
                  //   32 bits (a 4-second slice at 1 GHz; per-phase deltas
                  //   at paper grains sit orders of magnitude below that)
  worker_start = 15,  // the worker loop's first Σt_func stamp
  worker_stop = 16,   // its last Σt_func stamp, after the loop exits; the
                      //   pair spans exactly the lane's /time/overall, so
                      //   the analyzer takes a lane's func from it
};

// Worker index recorded for events emitted by non-worker threads (the
// external task_enqueue lane).
inline constexpr std::uint16_t external_worker = 0xffff;

// Packs a steal event's arg2: victim worker in the low 16 bits, topology
// distance (0 SMT / 1 same-domain / 2 remote) above them.
inline std::uint32_t steal_arg2(int victim, int distance) noexcept {
  return (static_cast<std::uint32_t>(victim) & 0xffffu) |
         (static_cast<std::uint32_t>(distance) << 16);
}

// Packs a graph_node event's arg2: point in the low 16 bits, step above
// them. Coordinates beyond 65534 saturate to 0xffff ("unknown") rather than
// alias — graph sweeps at paper scales stay far below that.
inline std::uint32_t pack_graph_node(std::uint64_t step, std::uint64_t point) noexcept {
  const std::uint32_t s = step >= 0xffffu ? 0xffffu : static_cast<std::uint32_t>(step);
  const std::uint32_t p = point >= 0xffffu ? 0xffffu : static_cast<std::uint32_t>(point);
  return p | (s << 16);
}
inline std::uint32_t graph_node_step(std::uint32_t arg2) noexcept { return arg2 >> 16; }
inline std::uint32_t graph_node_point(std::uint32_t arg2) noexcept { return arg2 & 0xffffu; }

// Packs a task_pmu event's arg: cycles in the high 32 bits, instructions in
// the low 32, each saturated (same clamp idiom as task_split's arg2).
inline std::uint64_t pack_pmu_arg(std::uint64_t cycles,
                                  std::uint64_t instructions) noexcept {
  const std::uint64_t c = cycles >= 0xffffffffull ? 0xffffffffull : cycles;
  const std::uint64_t i =
      instructions >= 0xffffffffull ? 0xffffffffull : instructions;
  return (c << 32) | i;
}
inline std::uint64_t pmu_arg_cycles(std::uint64_t arg) noexcept { return arg >> 32; }
inline std::uint64_t pmu_arg_instructions(std::uint64_t arg) noexcept {
  return arg & 0xffffffffull;
}

// One binary trace record. `name` points to the task's description — a
// string with static storage duration in every runtime call site (task
// descriptions are `const char*` literals); it is dereferenced only at
// export time.
struct trace_event {
  std::uint64_t ticks = 0;      // tsc_clock timestamp
  std::uint64_t arg = 0;        // task id for task/steal events
  const char* name = nullptr;   // task description on *_begin events
  trace_kind kind = trace_kind::task_begin;
  std::uint16_t worker = 0;
  std::uint32_t arg2 = 0;       // phase-end reason / steal victim
};
static_assert(sizeof(void*) != 8 || sizeof(trace_event) == 32,
              "trace events must stay one half cache line");

// Single-producer ring of trace events. The producer (one worker thread)
// writes the slot, then publishes with a release store of the sequence
// counter; concurrent readers may only touch the atomic counters
// (written()/dropped()). snapshot() requires a quiescent producer.
class trace_ring {
 public:
  explicit trace_ring(std::size_t capacity);  // rounded up to a power of two

  void emit(const trace_event& e) noexcept {
    const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
    slots_[seq & mask_] = e;
    seq_.store(seq + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }
  std::uint64_t written() const noexcept { return seq_.load(std::memory_order_acquire); }
  // Events overwritten by wraparound (lost from the front of the ring).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = written();
    return n > capacity() ? n - capacity() : 0;
  }

  // Copies the retained events, oldest first. Producer must be quiescent.
  std::vector<trace_event> snapshot() const;

  // Best-effort copy that tolerates a LIVE producer (flight recorder): reads
  // the published sequence with acquire (so all events below it are
  // visible), copies, then re-reads the sequence and trims from the front
  // whatever the producer may have overwritten during the copy — a torn
  // event can only be one of those trimmed slots. `dropped_out` receives
  // wraparound losses including the trim. The producer keeps emitting
  // throughout; only the snapshot's tail boundary is approximate.
  std::vector<trace_event> snapshot_live(std::uint64_t* dropped_out = nullptr) const;

  void clear() noexcept { seq_.store(0, std::memory_order_release); }

 private:
  std::unique_ptr<trace_event[]> slots_;
  std::uint64_t mask_;
  alignas(cache_line_size) std::atomic<std::uint64_t> seq_{0};
};

// Everything a trace session retained, decoupled from the live rings: one
// lane per worker (oldest-first events) plus one external lane for events
// emitted by non-worker threads. Event `name` pointers point into `*names`
// (shared so copies/moves of the dump never dangle), making a dump loaded
// from disk indistinguishable from one captured in-process — the analyzer
// (perf/analysis.hpp) consumes only this type.
struct trace_lane {
  std::uint16_t worker = 0;  // lane index, or external_worker
  std::uint64_t dropped = 0; // events lost to ring wraparound before capture
  std::vector<trace_event> events;  // oldest first
};
struct trace_dump {
  std::vector<trace_lane> lanes;
  double ns_per_tick = 1.0;  // tsc->ns scale of the capturing host
  std::shared_ptr<const std::vector<std::string>> names;  // interned strings

  std::uint64_t total_events() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l.events.size();
    return n;
  }
  std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l.dropped;
    return n;
  }
};

// Reads a dump written by tracer::write_binary (the "GRANTRC1" format).
// Returns false and leaves `out` untouched on malformed input.
bool load_trace_binary(std::istream& is, trace_dump& out);
bool load_trace_binary(const std::string& path, trace_dump& out);

// Serializes any trace_dump in the "GRANTRC1" format — the flight recorder
// writes live captures through this; tracer::write_binary delegates here.
void write_trace_binary(std::ostream& os, const trace_dump& d);

// Process-global trace session: owns one ring per worker index and the
// exporter. Rings outlive any single thread_manager (sequential managers
// reuse worker indices and append to the same lanes), mirroring the
// process-global counter registry.
class tracer {
 public:
  static tracer& instance();

  // The hot-path gate: one relaxed atomic load, inlined into every
  // instrumentation site.
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Turns tracing on. `events_per_worker` sizes rings created afterwards
  // (0 = the 65536-event default). Rings already handed out keep their
  // size. perf::start_observers calls it for GRAN_TRACE / GRAN_TRACE_BIN.
  void enable(std::size_t events_per_worker = 0);
  void disable();

  // Where the runtime auto-exports at thread_manager::stop(); empty = no
  // auto-export.
  void set_export_path(std::string path);
  std::string export_path() const;

  // Ring for one worker lane, created on first use. nullptr when disabled.
  trace_ring* ring(int worker);

  // Records an event from a non-worker thread (e.g. task_enqueue during
  // graph construction on the main thread) into a dedicated external lane.
  // Unlike worker rings this lane has many producers, so emission is
  // serialized by a mutex — acceptable because external spawns are a cold
  // setup-time path, never the scheduler inner loop.
  void emit_external(trace_kind kind, std::uint64_t arg = 0,
                     std::uint32_t arg2 = 0, const char* name = nullptr);

  std::uint64_t total_events() const;   // written across all rings
  std::uint64_t total_dropped() const;  // overwritten across all rings

  // Chrome trace_event JSON of everything currently retained. Valid only
  // while producers are quiescent (after thread_manager::stop()/join, or
  // from tests). Returns false when the file cannot be opened. Prints a
  // once-per-process warning to stderr (with a per-worker breakdown) when
  // events were dropped.
  void write_chrome_json(std::ostream& os) const;
  bool export_chrome_json(const std::string& path) const;

  // Copies everything currently retained into a self-contained trace_dump
  // (event names interned into an owned string table). Same quiescence
  // requirement as write_chrome_json.
  trace_dump dump() const;

  // Flight-recorder capture: like dump(), but valid while workers are still
  // emitting (per-ring snapshot_live). The freshest events may be trimmed
  // when a ring wraps mid-copy; names are safe to intern because every call
  // site passes string literals.
  trace_dump dump_live() const;

  // Binary export of dump() — the "GRANTRC1" format load_trace_binary
  // reads. Carries ns_per_tick so a dump analyzes identically off-host.
  void write_binary(std::ostream& os) const;
  bool export_binary(const std::string& path) const;

  // Drops all recorded events and rings (tests). Invalidates every ring
  // pointer previously returned — callers must not hold cached pointers
  // (i.e. no live thread_manager) across a clear().
  void clear();

 private:
  tracer() = default;
  // Caller holds mutex_. `live` selects snapshot_live per ring.
  trace_dump dump_locked(bool live) const;
  void warn_dropped_locked() const;

  static std::atomic<bool> enabled_;

  mutable std::mutex mutex_;  // guards rings_ growth and configuration
  std::vector<std::unique_ptr<trace_ring>> rings_;
  std::unique_ptr<trace_ring> external_ring_;  // lane for non-worker threads
  std::mutex external_mutex_;                  // serializes external producers
  mutable std::atomic<bool> drop_warned_{false};
  std::size_t ring_capacity_ = 0;  // 0 = default
  std::string export_path_;
};

// Emit helpers used by the scheduler hot paths: compile to a relaxed load +
// branch when tracing is off. `ring` is the worker's cached ring pointer
// (nullptr when tracing was off at manager construction).
//
// trace_emit_at takes an explicit timestamp: phase begin/end events reuse
// the exact tsc reads the Σt_exec counter accumulates, so the exported task
// spans and /threads/time/cumulative are the same measurement by
// construction (tests/trace_test.cpp asserts their sums agree).
inline void trace_emit_at(trace_ring* ring, std::uint64_t ticks, trace_kind kind,
                          int worker, std::uint64_t arg = 0, std::uint32_t arg2 = 0,
                          const char* name = nullptr) noexcept {
  if (!tracer::enabled() || ring == nullptr) return;
  trace_event e;
  e.ticks = ticks;
  e.arg = arg;
  e.name = name;
  e.kind = kind;
  e.worker = static_cast<std::uint16_t>(worker);
  e.arg2 = arg2;
  ring->emit(e);
}

inline void trace_emit(trace_ring* ring, trace_kind kind, int worker,
                       std::uint64_t arg = 0, std::uint32_t arg2 = 0,
                       const char* name = nullptr) noexcept {
  if (!tracer::enabled() || ring == nullptr) return;
  trace_emit_at(ring, tsc_clock::now(), kind, worker, arg, arg2, name);
}

}  // namespace gran::perf
