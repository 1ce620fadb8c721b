// Self-tests of the benchmark's own arithmetic: METG interpolation, the
// tail-percentile sample rule, windowed percentiles and span self time. run.py runs this before
// every measurement; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

perfbench::span mk(std::uint64_t id, std::uint64_t parent, std::int64_t lo, std::int64_t hi) {
  perfbench::span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = lo;
  s.end_ns = hi;
  return s;
}

void test_metg() {
  using perfbench::metg;
  using perfbench::metg_result;
  // Crossing between 4 (0.4) and 8 (0.6): halfway in log space is √32.
  const std::vector<double> g = {1, 2, 4, 8, 16};
  const metg_result a = metg(g, {0.1, 0.2, 0.4, 0.6, 0.9});
  expect(a.state == metg_result::status::crossed, "metg: bracketed crossing found");
  expect(near(a.grain, std::sqrt(32.0)), "metg: log-space interpolation");
  // The first crossing counts, even when a later grain dips again.
  const metg_result b = metg(g, {0.1, 0.5, 0.4, 0.7, 0.9});
  expect(b.state == metg_result::status::crossed && near(b.grain, 2.0),
         "metg: exact hit at a sweep point");
  // Never reaching 0.5 is a failure, not a number.
  const metg_result c = metg(g, {0.1, 0.2, 0.3, 0.4, 0.45});
  expect(c.state == metg_result::status::never && std::isnan(c.grain),
         "metg: no crossing is reported as a failure");
  // Already above 0.5 at the finest grain: the finest grain, flagged.
  const metg_result d = metg(g, {0.7, 0.8, 0.9, 0.9, 0.9});
  expect(d.state == metg_result::status::at_finest && near(d.grain, 1.0),
         "metg: above threshold at the finest grain");
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // p99 of 1..1000 is 990 with exactly 10 samples beyond it.
  const auto p99 = tail_percentile(v, 99);
  expect(p99.has_value() && near(*p99, 990.0), "percentile: p99 with 10 beyond");
  v.pop_back();  // 999 samples: rank 990 -> value 990, only 9 beyond
  expect(!tail_percentile(v, 99).has_value(), "percentile: p99 refused with 9 beyond");
  const auto p50 = tail_percentile(v, 50);
  expect(p50.has_value() && near(*p50, 500.0), "percentile: median of 1..999");
  std::vector<double> small = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  expect(!tail_percentile(small, 95).has_value(), "percentile: p95 of 12 samples refused");
  expect(tail_percentile(small, 5).has_value(), "percentile: low percentile of 12 kept");
  expect(!tail_percentile({}, 50).has_value(), "percentile: empty input");
  expect(near(perfbench::median({3, 1, 2, 10}), 2.5), "median: even count");
  expect(near(perfbench::lower_quartile({4, 1, 3, 2}), 1.75), "lower quartile: interpolated");
  expect(near(perfbench::lower_quartile({7}), 7.0), "lower quartile: one sample");
}

void test_windowed_percentile() {
  using perfbench::windowed_percentile;
  // Five windows of 1000 samples valued 1..1000, one sample per ns. The
  // fourth window is a stall (every value x100); a last window of 5 samples
  // is too short for a p95 and is skipped.
  std::vector<std::int64_t> t;
  std::vector<double> v;
  for (int w = 0; w < 5; ++w)
    for (int i = 1; i <= 1000; ++i) {
      t.push_back(w * 1000 + i - 1);
      v.push_back(w == 3 ? 100.0 * i : i);
    }
  for (int i = 0; i < 5; ++i) {
    t.push_back(5000 + i);
    v.push_back(1e9);
  }
  const auto p95 = windowed_percentile(t, v, 1000, 95);
  expect(p95.has_value() && near(*p95, 950.0), "windowed: a stalled window does not move it");
  expect(!windowed_percentile(t, v, 2500, 95).has_value(),
         "windowed: fewer than three windows refused");
  expect(!windowed_percentile({}, {}, 1000, 50).has_value(), "windowed: empty input");
}

void test_self_time() {
  using perfbench::self_time_ns;
  const perfbench::span parent = mk(1, 0, 0, 100);
  // Children [10,30) and [20,50) overlap: together they cover [10,50).
  // [90,120) sticks out of the parent: only [90,100) counts.
  const std::vector<perfbench::span> kids = {mk(2, 1, 20, 50), mk(3, 1, 10, 30),
                                             mk(4, 1, 90, 120)};
  expect(self_time_ns(parent, kids) == 100 - 40 - 10, "self time: overlapping children");
  expect(self_time_ns(parent, {}) == 100, "self time: no children");
  expect(self_time_ns(parent, {mk(5, 1, 0, 100), mk(6, 1, 10, 20)}) == 0,
         "self time: fully covered");
  // summarize() applies the same rule per span name.
  std::vector<perfbench::span> all = kids;
  all.push_back(parent);
  for (auto& s : all) s.name = s.id == 1 ? "parent" : "child";
  const auto table = perfbench::summarize(all);
  bool found = false;
  for (const auto& row : table)
    if (row.name == "parent") {
      found = true;
      expect(row.count == 1 && near(row.total_ns, 100) && near(row.self_ns, 50),
             "summarize: parent self time");
    }
  expect(found, "summarize: parent row present");
}

}  // namespace

int main() {
  test_metg();
  test_tail_percentile();
  test_windowed_percentile();
  test_self_time();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
