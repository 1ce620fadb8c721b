// Log2-bucketed latency histograms — the distribution view the paper's
// scalar means (Eqs. 2/3) cannot give.
//
// A `log2_histogram` is a fixed array of 64 relaxed-atomic bucket counters;
// bucket k holds values in [2^k, 2^(k+1)) ns (bucket 0 holds {0, 1}).
// Recording is a bit_width + one relaxed fetch_add (~2 ns), cheap enough to
// stay always-on in the run_phase hot path. Queries take a `snapshot` (a
// plain copy), which supports merging across workers and percentile
// interpolation — that is what backs the
// /threads/histogram/task-duration/p50|p95|p99 counters.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace gran::perf {

// Plain (non-atomic) copy of a histogram's state; mergeable and queryable.
struct histogram_snapshot {
  static constexpr int num_buckets = 64;

  std::array<std::uint64_t, num_buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  histogram_snapshot& operator+=(const histogram_snapshot& other);

  double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }

  // Value (ns) at percentile p in [0, 100], linearly interpolated inside the
  // selected log2 bucket. 0 when the histogram is empty.
  double percentile(double p) const;

  // Bucket-wise difference `*this - prev`: the distribution of only the
  // samples recorded since `prev` was taken — exact interval percentiles,
  // not an approximation from cumulative values. A histogram is monotonic
  // between resets; when any bucket (or count/sum) of `prev` exceeds ours
  // the histogram was reset in between, so `prev` is discarded and the full
  // current snapshot is returned (`reset_detected` reports which happened).
  histogram_snapshot snapshot_delta(const histogram_snapshot& prev,
                                    bool* reset_detected = nullptr) const;
};

// Process-wide registry of named histogram *sources* (snapshot functions),
// the distribution-valued sibling of perf::registry: scalar percentile
// gauges lose the bucket structure, but windowed telemetry needs raw
// snapshots to compute interval deltas (snapshot_delta) and merge views
// across workers. The thread manager registers
// /threads/histogram/task-{duration,overhead} (merged over workers) plus
// per-worker instances; the window aggregator snapshots them each tick.
class histogram_registry {
 public:
  using snap_fn = std::function<histogram_snapshot()>;

  static histogram_registry& instance();

  // Registers a source; replaces any previous registration of `name`.
  void add(const std::string& name, snap_fn fn);
  bool remove(const std::string& name);
  void remove_prefix(const std::string& prefix);

  // Snapshots every source whose name starts with `prefix`; the shared lock
  // is held across the snap calls so remove_prefix is a barrier against
  // in-flight snapshots (same contract as registry::query_all — the thread
  // manager's destructor depends on it). Results are sorted by name.
  std::vector<std::pair<std::string, histogram_snapshot>> snap_all(
      const std::string& prefix) const;

  std::vector<std::string> list(const std::string& prefix = "/") const;

  void clear();  // tests

 private:
  histogram_registry() = default;

  // Reader-writer, same discipline as registry::mutex_: snap_all samples
  // under a shared lock, mutators are exclusive, snap fns must not call
  // back into the mutating API.
  mutable std::shared_mutex mutex_;
  std::map<std::string, snap_fn> sources_;
};

class log2_histogram {
 public:
  static constexpr int num_buckets = histogram_snapshot::num_buckets;

  // Bucket index of a value: highest set bit (0 for values 0 and 1), so
  // bucket k covers [2^k, 2^(k+1)).
  static int bucket_of(std::uint64_t v) noexcept {
    return v <= 1 ? 0 : std::bit_width(v) - 1;
  }

  void record(std::uint64_t value_ns) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(value_ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value_ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

  histogram_snapshot snap() const;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, num_buckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace gran::perf
