// First-class named performance counters, mirroring HPX's monitoring system
// (paper §I-B "HPX Performance Monitoring System").
//
// Counters are registered under slash-separated symbolic names with an
// optional instance selector, e.g.
//     /threads/count/cumulative            (aggregate over all workers)
//     /threads{worker#3}/count/cumulative  (one worker)
// and are queryable at runtime by the application or the runtime itself —
// that introspection capability is what the paper's adaptive-granularity
// proposal builds on.
//
// The runtime registers these names (thread_manager::register_counters):
//     /threads/count/cumulative            tasks executed (nt)
//     /threads/count/cumulative-phases     thread phases executed
//     /threads/time/average                average task duration, ns (Eq. 2)
//     /threads/time/average-overhead       average task overhead, ns (Eq. 3)
//     /threads/time/average-phase          average phase duration, ns
//     /threads/time/average-phase-overhead average phase overhead, ns
//     /threads/time/cumulative             Σ t_exec, ns
//     /threads/time/cumulative-overhead    Σ(t_func − t_exec), ns
//     /threads/idle-rate                   (Σt_func − Σt_exec)/Σt_func (Eq. 1)
//     /threads/count/pending-accesses      scheduler looks into pending queues
//     /threads/count/pending-misses        ... that found nothing
//     /threads/count/staged-accesses       same for staged queues
//     /threads/count/staged-misses
//     /threads/count/stolen                tasks obtained from another worker
//
// Distributions register through add_histogram: the histogram itself, whose
// snapshots feed windowed telemetry, and its scalar views
// <path>/{p50,p95,p99,mean,count}. Worker liveness is a set of gauges, so
// the registry is the one place the observers read the runtime from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perf/histogram.hpp"

namespace gran::perf {

// Parsed counter name: "/object{instance}/sub/name".
struct counter_path {
  std::string object;    // "threads"
  std::string instance;  // "" = aggregate, "worker#3", "total", ...
  std::string name;      // "count/cumulative"

  // Parses a path string; std::nullopt on malformed input.
  static std::optional<counter_path> parse(const std::string& text);
  std::string str() const;
};

enum class counter_kind : std::uint8_t {
  monotonic,  // non-decreasing raw count (events, nanoseconds)
  gauge,      // instantaneous value (queue length)
  rate,       // derived ratio in [0,1] or similar (idle-rate)
};

struct counter_value {
  double value = 0.0;
  std::int64_t timestamp_ns = 0;  // steady_clock when sampled
};

// Process-wide counter registry. Registration happens at runtime startup
// (and from tests); queries are thread-safe and may be issued from inside
// tasks. Sample functions must therefore be non-blocking.
class registry {
 public:
  using sample_fn = std::function<double()>;
  using snap_fn = std::function<histogram_snapshot()>;

  // One sampling batch of a prefix (sample()).
  struct sampled_counter {
    std::string path;
    counter_kind kind = counter_kind::gauge;
    double value = 0;
  };
  struct batch {
    std::int64_t timestamp_ns = 0;          // steady_clock, shared by the batch
    std::vector<sampled_counter> counters;  // sorted by path
    std::vector<std::pair<std::string, histogram_snapshot>> histograms;  // sorted
  };

  static registry& instance();

  // Registers a counter; replaces any previous registration of `path`.
  void add(const std::string& path, counter_kind kind, std::string description,
           sample_fn fn);

  // Registers the histogram `path` and its five views: <path>/p50, /p95,
  // /p99 and /mean ("p50 <what>, <unit>", ...; gauges) and <path>/count
  // ("samples in <what>"; monotonic). Replaces any previous registration.
  // A query or a batch calls `snap` once per histogram and computes every
  // view from that copy.
  void add_histogram(const std::string& path, const std::string& what,
                     const std::string& unit, snap_fn snap);

  // Removes one counter (a histogram's view is one); returns false if it
  // was not registered. A histogram leaves with remove_prefix.
  bool remove(const std::string& path);

  // Removes every counter and histogram whose path starts with `prefix`.
  void remove_prefix(const std::string& prefix);

  // Samples a counter. std::nullopt for unknown paths.
  std::optional<counter_value> query(const std::string& path) const;

  // Samples every counter and histogram whose path starts with `prefix`,
  // taking the registry lock exactly once for the whole batch (the per-path
  // query() takes it per counter, which is what made high-frequency sampling
  // contend with registration). The shared lock is held across the sample
  // calls — see the mutex_ comment.
  batch sample(const std::string& prefix) const;

  // sample()'s counter values alone, sorted by path; all share the batch's
  // timestamp.
  std::vector<std::pair<std::string, counter_value>> query_all(
      const std::string& prefix) const;

  // Raw value convenience; `def` for unknown paths.
  double value_or(const std::string& path, double def) const;

  // All registered counter paths starting with `prefix`, sorted.
  std::vector<std::string> list(const std::string& prefix = "/") const;

  std::optional<counter_kind> kind_of(const std::string& path) const;
  std::string describe(const std::string& path) const;

  // Drops everything (tests).
  void clear();

 private:
  registry() = default;

  // A counter samples `fn`, or, as a view, reads `view` of one snapshot of
  // `histogram`, which it shares with the histogram's entry.
  struct entry {
    counter_kind kind;
    std::string description;
    sample_fn fn;
    std::shared_ptr<const snap_fn> histogram;
    double (*view)(const histogram_snapshot&) = nullptr;
  };

  // Reader-writer: queries hold a shared lock for the WHOLE batch, including
  // the sample- and snap-fn calls, so remove/remove_prefix (exclusive)
  // cannot return while a reader still runs a fn about to lose its captured
  // object — ~thread_manager and ~task_service rely on this to make their
  // unregistration a barrier against the background telemetry thread.
  // Readers stay concurrent with each other; registration is the only
  // writer and is rare. Sample and snap fns must not call back into the
  // registry's mutating API.
  mutable std::shared_mutex mutex_;
  std::map<std::string, entry> counters_;
  std::map<std::string, std::shared_ptr<const snap_fn>> histograms_;
};

}  // namespace gran::perf
