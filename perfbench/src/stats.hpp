// Summary statistics the benchmark reports: medians, tail percentiles that
// are only reported when the sample supports them, and Task Bench's METG.
// Pure functions, covered by selftest.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// q-quantile (0 <= q <= 1) of `v`, interpolated linearly between the two
// nearest order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Timings of repeated identical work are summarised by their lower quartile:
// a shared host only ever adds delay, in bursts of up to seconds, so the fast
// quarter of the repeats estimates the work's own cost better than the median.
inline double lower_quartile(const std::vector<double>& v) { return quantile(v, 0.25); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Nearest-rank p-th percentile (0 < p < 100) of `sorted` (ascending), or
// nothing when fewer than `min_beyond` samples lie above the rank: a tail
// percentile resting on a handful of samples is noise, not a number.
inline std::optional<double> tail_percentile(const std::vector<double>& sorted,
                                             double p,
                                             std::size_t min_beyond = 10) {
  const std::size_t n = sorted.size();
  if (n == 0 || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));  // 1-based
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - idx - 1 < min_beyond) return std::nullopt;
  return sorted[idx];
}

// Median over fixed time windows of each window's p-th percentile.
// `times` (ascending) and `values` are parallel; a sample belongs to window
// (time - times[0]) / window_ns. Windows whose percentile tail_percentile
// refuses are skipped, and fewer than three usable windows give nothing. A
// host stall that spoils a few windows moves the whole-run percentile but not
// this median.
inline std::optional<double> windowed_percentile(const std::vector<std::int64_t>& times,
                                                 const std::vector<double>& values,
                                                 std::int64_t window_ns, double p) {
  const std::size_t n = std::min(times.size(), values.size());
  if (n == 0 || window_ns <= 0) return std::nullopt;
  std::vector<double> per_window, cur;
  std::int64_t index = 0;
  const auto close = [&] {
    std::sort(cur.begin(), cur.end());
    if (const auto x = tail_percentile(cur, p)) per_window.push_back(*x);
    cur.clear();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t w = (times[i] - times[0]) / window_ns;
    if (w != index) {
      close();
      index = w;
    }
    cur.push_back(values[i]);
  }
  close();
  if (per_window.size() < 3) return std::nullopt;
  return median(per_window);
}

// Minimum Effective Task Granularity: the smallest grain whose efficiency
// reaches `threshold`, interpolated in log(grain) between the two sweep
// points that bracket the first crossing (fine to coarse).
struct metg_result {
  enum class status {
    crossed,    // bracketed crossing; `grain` is the interpolated value
    at_finest,  // the finest grain already reaches the threshold; `grain`
                // is that grain, an upper bound on the true METG
    never,      // no grain reaches the threshold: a failure, not a number
  };
  status state = status::never;
  double grain = std::nan("");
};

inline metg_result metg(const std::vector<double>& grains,
                        const std::vector<double>& efficiency,
                        double threshold = 0.5) {
  metg_result r;
  const std::size_t n = std::min(grains.size(), efficiency.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(efficiency[i] >= threshold)) continue;
    if (i == 0) {
      r.state = metg_result::status::at_finest;
      r.grain = grains[0];
      return r;
    }
    const double e0 = efficiency[i - 1], e1 = efficiency[i];
    const double l0 = std::log(grains[i - 1]), l1 = std::log(grains[i]);
    const double frac = e1 > e0 ? (threshold - e0) / (e1 - e0) : 1.0;
    r.state = metg_result::status::crossed;
    r.grain = std::exp(l0 + std::clamp(frac, 0.0, 1.0) * (l1 - l0));
    return r;
  }
  return r;
}

}  // namespace perfbench
