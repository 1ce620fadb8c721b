#include "perf/histogram.hpp"

#include <cmath>

namespace gran::perf {

histogram_snapshot& histogram_snapshot::operator+=(const histogram_snapshot& other) {
  for (int i = 0; i < num_buckets; ++i)
    buckets[static_cast<std::size_t>(i)] += other.buckets[static_cast<std::size_t>(i)];
  count += other.count;
  sum += other.sum;
  return *this;
}

double histogram_snapshot::percentile(double p) const {
  // Rank within the buckets' own total, not `count`: a snapshot taken while
  // a record or a reset is in flight can hold a count its buckets do not
  // add up to, and ranking past the last sample read 2^64.
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double target = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (int i = 0; i < num_buckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[static_cast<std::size_t>(i)]);
    if (in_bucket == 0.0) continue;
    if (cum + in_bucket >= target) {
      // Interpolate linearly between the bucket's bounds [2^i, 2^(i+1))
      // (bucket 0 covers [0, 2)).
      const double lower = i == 0 ? 0.0 : std::ldexp(1.0, i);
      const double upper = std::ldexp(1.0, i + 1);
      const double frac = target <= cum ? 0.0 : (target - cum) / in_bucket;
      return lower + frac * (upper - lower);
    }
    cum += in_bucket;
  }
  return std::ldexp(1.0, num_buckets);  // unreachable: target <= total
}

histogram_snapshot histogram_snapshot::snapshot_delta(const histogram_snapshot& prev,
                                                      bool* reset_detected) const {
  bool reset = count < prev.count || sum < prev.sum;
  for (int i = 0; !reset && i < num_buckets; ++i)
    reset = buckets[static_cast<std::size_t>(i)] < prev.buckets[static_cast<std::size_t>(i)];
  if (reset_detected != nullptr) *reset_detected = reset;
  if (reset) return *this;

  histogram_snapshot d;
  for (int i = 0; i < num_buckets; ++i)
    d.buckets[static_cast<std::size_t>(i)] =
        buckets[static_cast<std::size_t>(i)] - prev.buckets[static_cast<std::size_t>(i)];
  d.count = count - prev.count;
  d.sum = sum - prev.sum;
  return d;
}

histogram_snapshot log2_histogram::snap() const {
  histogram_snapshot s;
  for (int i = 0; i < num_buckets; ++i)
    s.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void log2_histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

}  // namespace gran::perf
