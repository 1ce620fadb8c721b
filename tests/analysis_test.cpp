// Tests for the offline trace-analysis engine (src/perf/analysis.*): unit
// tests on hand-built event streams with known wait/exec/critical-path
// answers, the binary dump round-trip, and end-to-end checks on real graph
// runs (chain critical path, Eq. 1 vs live counters, spawned cross-check).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

// Sanitizer instrumentation slows the runtime ~10x while the calibrated
// spin kernels keep their wall-clock duration, so timing-ratio assertions
// that compare workload time against total wall need to stand down.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GRAN_TEST_SANITIZED 1
#else
#define GRAN_TEST_SANITIZED 0
#endif

#include "graph/executor.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "perf/analysis.hpp"
#include "perf/trace.hpp"
#include "threads/thread_manager.hpp"

namespace gran {
namespace {

using perf::trace_event;
using perf::trace_kind;

scheduler_config test_config(int workers) {
  scheduler_config cfg;
  cfg.num_workers = workers;
  cfg.pin_workers = false;
  return cfg;
}

// The tracer is process-global state: every test leaves it disabled & empty.
class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    auto& t = perf::tracer::instance();
    t.disable();
    t.set_export_path("");
    t.clear();
  }
};

trace_event ev(std::uint64_t ticks, trace_kind k, std::uint16_t worker,
               std::uint64_t arg = 0, std::uint32_t arg2 = 0,
               const char* name = nullptr) {
  trace_event e;
  e.ticks = ticks;
  e.kind = k;
  e.worker = worker;
  e.arg = arg;
  e.arg2 = arg2;
  e.name = name;
  return e;
}

perf::trace_dump make_dump(std::vector<perf::trace_lane> lanes,
                           double ns_per_tick = 1.0) {
  perf::trace_dump d;
  d.lanes = std::move(lanes);
  d.ns_per_tick = ns_per_tick;
  d.names = std::make_shared<const std::vector<std::string>>();
  return d;
}

const perf::task_record* find_task(const perf::analysis_result& r,
                                   std::uint64_t id) {
  for (const auto& t : r.tasks)
    if (t.id == id) return &t;
  return nullptr;
}

// --- hand-built streams ------------------------------------------------------

TEST_F(AnalysisTest, EmptyDumpFails) {
  const auto r = perf::analyze_trace(make_dump({}));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST_F(AnalysisTest, WaitExecSuspendDecomposition) {
  // Task 1: spawned externally at t=10, runs 30..80 on w0, done.
  // Task 2: spawned externally at t=100, first phase 110..130 (yield),
  //         second phase 150..170 (done) — exec 40, suspend 20, wait 10.
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(30, trace_kind::task_begin, 0, 1, 0, "a"),
      ev(80, trace_kind::task_end, 0, 1),
      ev(110, trace_kind::task_begin, 0, 2, 0, "b"),
      ev(130, trace_kind::phase_end, 0, 2, 1),
      ev(150, trace_kind::phase_begin, 0, 2),
      ev(170, trace_kind::task_end, 0, 2),
  };
  perf::trace_lane ext;
  ext.worker = perf::external_worker;
  ext.events = {
      ev(10, trace_kind::task_enqueue, perf::external_worker, 1,
         perf::external_worker),
      ev(100, trace_kind::task_enqueue, perf::external_worker, 2,
         perf::external_worker),
  };
  const auto r = perf::analyze_trace(make_dump({w0, ext}));
  ASSERT_TRUE(r.ok) << r.error;

  const auto* t1 = find_task(r, 1);
  ASSERT_NE(t1, nullptr);
  EXPECT_DOUBLE_EQ(t1->wait_ns, 20.0);
  EXPECT_DOUBLE_EQ(t1->exec_ns, 50.0);
  EXPECT_DOUBLE_EQ(t1->suspend_ns, 0.0);
  EXPECT_EQ(t1->phases, 1);
  EXPECT_TRUE(t1->complete);
  EXPECT_STREQ(t1->name, "a");

  const auto* t2 = find_task(r, 2);
  ASSERT_NE(t2, nullptr);
  EXPECT_DOUBLE_EQ(t2->wait_ns, 10.0);
  EXPECT_DOUBLE_EQ(t2->exec_ns, 40.0);
  EXPECT_DOUBLE_EQ(t2->suspend_ns, 20.0);
  EXPECT_EQ(t2->phases, 2);

  // Eq. 1–3 from the stream: func = w0 span (170-30), exec = 90, nt = 2.
  EXPECT_DOUBLE_EQ(r.func_ns, 140.0);
  EXPECT_DOUBLE_EQ(r.exec_ns, 90.0);
  EXPECT_EQ(r.tasks_completed, 2u);
  EXPECT_DOUBLE_EQ(r.idle_rate, 50.0 / 140.0);
  EXPECT_DOUBLE_EQ(r.task_duration_ns, 45.0);
  EXPECT_DOUBLE_EQ(r.task_overhead_ns, 25.0);

  ASSERT_TRUE(r.waits_valid) << r.waits_error;
  EXPECT_EQ(r.waits_counted, 2u);
  EXPECT_DOUBLE_EQ(r.wait_mean_ns, 15.0);
  EXPECT_DOUBLE_EQ(r.wait_max_ns, 20.0);
}

TEST_F(AnalysisTest, NsPerTickScalesDurations) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(100, trace_kind::task_end, 0, 1),
  };
  const auto r = perf::analyze_trace(make_dump({w0}, /*ns_per_tick=*/0.5));
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(find_task(r, 1)->exec_ns, 50.0);
  EXPECT_DOUBLE_EQ(r.wall_ns, 50.0);
}

TEST_F(AnalysisTest, CriticalPathThroughSpawnChain) {
  // w0 runs task 1 over [0,100]; at t=50 (inside that phase) it spawns
  // task 2, which runs [110,210]; at t=150 task 2 spawns task 3, which runs
  // [220,300]. Chain lengths: start2 = 50 (task 1's exec before the spawn),
  // end2 = 150; start3 = 50 + 40 = 90, end3 = 170 — the critical path, vs
  // end1 = 100.
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(50, trace_kind::task_enqueue, 0, 2, 0),
      ev(100, trace_kind::task_end, 0, 1),
      ev(110, trace_kind::task_begin, 0, 2),
      ev(150, trace_kind::task_enqueue, 0, 3, 0),
      ev(210, trace_kind::task_end, 0, 2),
      ev(220, trace_kind::task_begin, 0, 3),
      ev(300, trace_kind::task_end, 0, 3),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok) << r.error;

  EXPECT_DOUBLE_EQ(r.critical_path_ns, 170.0);
  ASSERT_EQ(r.critical_chain.size(), 3u);
  EXPECT_EQ(r.critical_chain[0], 1u);
  EXPECT_EQ(r.critical_chain[1], 2u);
  EXPECT_EQ(r.critical_chain[2], 3u);
  EXPECT_TRUE(find_task(r, 2)->has_parent);
  EXPECT_EQ(find_task(r, 2)->parent_id, 1u);
  EXPECT_EQ(find_task(r, 3)->parent_id, 2u);
  EXPECT_TRUE(find_task(r, 3)->on_critical_path);
  // The chain is ≤ wall by construction (disjoint wall intervals).
  EXPECT_LE(r.critical_path_ns, r.wall_ns);
}

TEST_F(AnalysisTest, IndependentTasksCriticalPathIsMaxDuration) {
  // Three roots with no provenance edges: the longest chain is one task.
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(50, trace_kind::task_end, 0, 1),
      ev(60, trace_kind::task_begin, 0, 2),
      ev(180, trace_kind::task_end, 0, 2),
      ev(190, trace_kind::task_begin, 0, 3),
      ev(260, trace_kind::task_end, 0, 3),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.critical_path_ns, 120.0);  // task 2
  ASSERT_EQ(r.critical_chain.size(), 1u);
  EXPECT_EQ(r.critical_chain[0], 2u);
}

TEST_F(AnalysisTest, OutOfOrderLanesMergedByTimestamp) {
  // Lane order in the dump is the *reverse* of time order, and the steal /
  // enqueue / begin events for task 7 are spread over three lanes; the
  // merge must still produce enqueue(10) -> steal(20) -> begin(30).
  perf::trace_lane w1;
  w1.worker = 1;
  w1.events = {
      ev(20, trace_kind::steal, 1, 7, perf::steal_arg2(0, 1)),
      ev(30, trace_kind::task_begin, 1, 7),
      ev(90, trace_kind::task_end, 1, 7),
  };
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(5, trace_kind::task_begin, 0, 6),
      ev(10, trace_kind::task_enqueue, 0, 7, 0),
      ev(40, trace_kind::task_end, 0, 6),
  };
  const auto r = perf::analyze_trace(make_dump({w1, w0}));
  ASSERT_TRUE(r.ok) << r.error;

  const auto* t7 = find_task(r, 7);
  ASSERT_NE(t7, nullptr);
  EXPECT_DOUBLE_EQ(t7->wait_ns, 20.0);
  EXPECT_TRUE(t7->stolen);
  EXPECT_DOUBLE_EQ(t7->queue_wait_ns, 10.0);   // enqueue -> steal
  EXPECT_DOUBLE_EQ(t7->steal_latency_ns, 10.0);  // steal -> first run
  EXPECT_EQ(r.stolen_waits, 1u);
  // Provenance: task 6's phase on w0 covers the enqueue at t=10.
  EXPECT_TRUE(t7->has_parent);
  EXPECT_EQ(t7->parent_id, 6u);
}

TEST_F(AnalysisTest, WraparoundRefusesWaitAttribution) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.dropped = 5;
  w0.events = {
      ev(10, trace_kind::task_enqueue, 0, 1, 0),
      ev(30, trace_kind::task_begin, 0, 1),
      ev(80, trace_kind::task_end, 0, 1),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.waits_valid);
  EXPECT_NE(r.waits_error.find("wraparound"), std::string::npos) << r.waits_error;
  EXPECT_EQ(r.total_dropped, 5u);

  // The rest of the analysis still runs...
  EXPECT_GT(r.exec_ns, 0.0);
  // ...and --force-waits overrides the refusal.
  perf::analysis_options force;
  force.force_wait_attribution = true;
  const auto rf = perf::analyze_trace(make_dump({w0}), force);
  EXPECT_TRUE(rf.waits_valid);
  EXPECT_EQ(rf.waits_counted, 1u);
}

TEST_F(AnalysisTest, NoEnqueueEventsRefusesWaits) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(50, trace_kind::task_end, 0, 1),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.waits_valid);
  EXPECT_NE(r.waits_error.find("task_enqueue"), std::string::npos);
}

TEST_F(AnalysisTest, ConcurrencyAndRunnableSweeps) {
  // Two overlapping phases: [10,100] on w0 and [50,150] on w1 over a wall
  // of 150 -> avg concurrency 190/150, max 2. Both tasks enqueue at 0, so
  // both sit runnable over [0,10).
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_enqueue, 0, 1, 0),
      ev(0, trace_kind::task_enqueue, 0, 2, 0),
      ev(10, trace_kind::task_begin, 0, 1),
      ev(100, trace_kind::task_end, 0, 1),
  };
  perf::trace_lane w1;
  w1.worker = 1;
  w1.events = {
      ev(50, trace_kind::task_begin, 1, 2),
      ev(150, trace_kind::task_end, 1, 2),
  };
  const auto r = perf::analyze_trace(make_dump({w0, w1}));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.max_concurrency, 2u);
  EXPECT_NEAR(r.avg_concurrency, 190.0 / 150.0, 1e-9);
  EXPECT_EQ(r.max_runnable, 2u);  // both spawned before either ran
}

TEST_F(AnalysisTest, GraphNodeProvenanceTagsTasks) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(5, trace_kind::graph_node, 0, 1, perf::pack_graph_node(3, 17)),
      ev(50, trace_kind::task_end, 0, 1),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  ASSERT_TRUE(r.ok);
  const auto* t = find_task(r, 1);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->has_graph_node);
  EXPECT_EQ(t->graph_step, 3u);
  EXPECT_EQ(t->graph_point, 17u);
}

TEST_F(AnalysisTest, SplitChildrenJoinParentsSpawnDag) {
  // Parent task 1 runs 10..100 on w0 and at t=50 splits: the task_split
  // event (arg = parent id, arg2 = split point) immediately precedes the
  // child's task_enqueue on the same lane. Child 2 runs on w1. The child
  // must bind to the parent through the split event — and keep that binding
  // even though the covering-phase rule would also resolve it.
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(10, trace_kind::task_begin, 0, 1),
      ev(50, trace_kind::task_split, 0, 1, 5000),
      ev(51, trace_kind::task_enqueue, 0, 2, 0),
      ev(100, trace_kind::task_end, 0, 1),
  };
  perf::trace_lane w1;
  w1.worker = 1;
  w1.events = {
      ev(60, trace_kind::task_begin, 1, 2),
      ev(90, trace_kind::task_end, 1, 2),
  };
  const auto r = perf::analyze_trace(make_dump({w0, w1}));
  ASSERT_TRUE(r.ok) << r.error;
  const auto* child = find_task(r, 2);
  ASSERT_NE(child, nullptr);
  EXPECT_TRUE(child->split_child);
  EXPECT_EQ(child->split_point, 5000u);
  ASSERT_TRUE(child->has_parent);
  EXPECT_EQ(child->parent_id, 1u);
  EXPECT_EQ(r.tasks_from_splits, 1u);
  ASSERT_FALSE(r.workers.empty());
  std::uint64_t splits = 0;
  for (const auto& w : r.workers) splits += w.splits;
  EXPECT_EQ(splits, 1u);
  // The split edge participates in the critical path DP like a spawn edge:
  // parent contributes its pre-split work to the child's chain.
  const auto* parent = find_task(r, 1);
  ASSERT_NE(parent, nullptr);
  EXPECT_TRUE(parent->on_critical_path);
}

TEST_F(AnalysisTest, ReportContainsCriticalPathLine) {
  perf::trace_lane w0;
  w0.worker = 0;
  w0.events = {
      ev(0, trace_kind::task_begin, 0, 1),
      ev(1000, trace_kind::task_end, 0, 1),
  };
  const auto r = perf::analyze_trace(make_dump({w0}));
  std::ostringstream os;
  perf::write_report(os, r);
  EXPECT_NE(os.str().find("critical path: "), std::string::npos);
  EXPECT_NE(os.str().find("% of wall"), std::string::npos);

  std::ostringstream csv;
  perf::write_task_csv(csv, r);
  EXPECT_NE(csv.str().find("task_id,"), std::string::npos);
}

// --- binary dump round-trip --------------------------------------------------

TEST_F(AnalysisTest, BinaryDumpRoundTrips) {
  auto& tr = perf::tracer::instance();
  tr.enable(1 << 10);
  perf::trace_ring* r0 = tr.ring(0);
  ASSERT_NE(r0, nullptr);
  perf::trace_emit_at(r0, 100, trace_kind::task_begin, 0, 42, 0, "alpha");
  perf::trace_emit_at(r0, 200, trace_kind::task_end, 0, 42);
  tr.emit_external(trace_kind::task_enqueue, 43, perf::external_worker);

  std::stringstream ss;
  tr.write_binary(ss);
  perf::trace_dump loaded;
  ASSERT_TRUE(perf::load_trace_binary(ss, loaded));

  ASSERT_EQ(loaded.lanes.size(), 2u);  // worker 0 + external
  EXPECT_EQ(loaded.lanes[0].worker, 0);
  EXPECT_EQ(loaded.lanes[1].worker, perf::external_worker);
  ASSERT_EQ(loaded.lanes[0].events.size(), 2u);
  EXPECT_EQ(loaded.lanes[0].events[0].ticks, 100u);
  EXPECT_EQ(loaded.lanes[0].events[0].arg, 42u);
  EXPECT_STREQ(loaded.lanes[0].events[0].name, "alpha");
  EXPECT_EQ(loaded.lanes[0].events[1].name, nullptr);
  ASSERT_EQ(loaded.lanes[1].events.size(), 1u);
  EXPECT_EQ(loaded.lanes[1].events[0].kind, trace_kind::task_enqueue);
  EXPECT_GT(loaded.ns_per_tick, 0.0);

  // A dump survives copies after the tracer is gone (owned string table).
  tr.clear();
  perf::trace_dump copy = loaded;
  EXPECT_STREQ(copy.lanes[0].events[0].name, "alpha");
}

TEST_F(AnalysisTest, LoadRejectsGarbage) {
  std::stringstream ss("definitely not a trace dump");
  perf::trace_dump d;
  EXPECT_FALSE(perf::load_trace_binary(ss, d));
  EXPECT_FALSE(perf::load_trace_binary(std::string("/nonexistent/path.bin"), d));
}

// --- end-to-end on real graph runs -------------------------------------------

// Shared protocol: enable tracing BEFORE the manager exists (workers cache
// ring pointers at construction), run, stop() to quiesce the producers,
// capture counters, dump, destroy.
struct traced_run {
  perf::trace_dump dump;
  thread_manager::totals totals;
  graph::run_stats stats;
};

traced_run run_traced_graph(const graph::graph_spec& g, double grain_ns,
                            int workers) {
  // Kernel calibration is once-per-process on the caller's thread; pay it
  // before tracing starts so it doesn't stretch the traced wall time.
  (void)graph::calibrated_rates();
  auto& tr = perf::tracer::instance();
  tr.enable(1 << 18);
  graph::kernel_spec k;
  k.kind = graph::kernel_kind::busy_spin;
  k.grain_ns = grain_ns;

  traced_run out;
  {
    thread_manager tm(test_config(workers));
    out.stats = graph::run_graph(tm, g, k, 0);
    tm.stop();
    out.totals = tm.counter_totals();
  }
  out.dump = perf::tracer::instance().dump();
  tr.disable();
  return out;
}

TEST_F(AnalysisTest, SerialChainCriticalPathApproxSumOfDurations) {
  graph::graph_spec g;
  g.kind = graph::pattern::serial_chain;
  g.width = 1;
  g.steps = 100;
  const traced_run run = run_traced_graph(g, /*grain_ns=*/200'000, /*workers=*/2);

  const auto r = perf::analyze_trace(run.dump);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.waits_valid) << r.waits_error;

  // The chain's own span: its first phase begin to its last phase end. The
  // traced window (wall_ns) also holds manager construction, DAG build and
  // stop(), which stretch under load while the chain does not.
  double exec_sum = 0;
  std::vector<double> link_exec;
  std::uint64_t first_begin = ~std::uint64_t{0};
  std::uint64_t last_end = 0;
  for (const auto& t : r.tasks) {
    exec_sum += t.exec_ns;
    if (t.phases == 0) continue;
    link_exec.push_back(t.exec_ns);
    first_begin = std::min(first_begin, t.first_begin_ticks);
    last_end = std::max(last_end, t.last_end_ticks);
  }
  ASSERT_LT(first_begin, last_end);
  ASSERT_GE(link_exec.size(), static_cast<std::size_t>(g.steps));
  const double span_ns = static_cast<double>(last_end - first_begin) * r.ns_per_tick;
  const auto mid = link_exec.begin() + static_cast<std::ptrdiff_t>(link_exec.size() / 2);
  std::nth_element(link_exec.begin(), mid, link_exec.end());
  const double median_exec_ns = *mid;
  // A chain's critical path is its serial work. Exact equality with
  // exec_sum is spoiled by OS preemption: a descheduled spin phase
  // stretches, its child was spawned early inside the stretched interval,
  // and the exec-weighted DP rightly keeps the stretched tail on the
  // parent — so the chain may end at such a task instead of the last link,
  // and exec_sum counts a spawner's tail that overlaps the next link's run
  // (cp/exec_sum reads as low as 0.53, 0.37 under TSan). The work bound
  // uses the median link instead: it follows the busy-spin calibration the
  // process got (once per process, and shorter if it ran under load), and
  // a few stretched tails do not move it.
  EXPECT_GE(r.critical_chain.size(), 50u);
  EXPECT_GT(r.critical_path_ns, 0.5 * g.steps * median_exec_ns);
  EXPECT_LE(r.critical_path_ns, exec_sum * 1.0001);
  EXPECT_LE(r.critical_path_ns, span_ns * 1.0001);
  // cp ≥ span/workers because a serial chain leaves no room for parallel
  // speedup: only scheduling gaps between links lie off the path. Under
  // TSan the premise breaks: instrumentation stretches each gap to several
  // times the calibrated spin, so the gaps dominate the span.
#if !GRAN_TEST_SANITIZED
  EXPECT_GE(r.critical_path_ns, span_ns / static_cast<double>(r.num_workers));
#endif
}

TEST_F(AnalysisTest, TrivialPatternCriticalPathApproxMaxDuration) {
  graph::graph_spec g;
  g.kind = graph::pattern::trivial;
  g.width = 64;
  g.steps = 1;
  const traced_run run = run_traced_graph(g, /*grain_ns=*/20'000, /*workers=*/2);

  const auto r = perf::analyze_trace(run.dump);
  ASSERT_TRUE(r.ok) << r.error;

  double max_exec = 0;
  for (const auto& t : r.tasks) max_exec = std::max(max_exec, t.exec_ns);
  // All roots, no edges: the longest chain is exactly the longest task
  // (external spawns carry no parent credit).
  EXPECT_NEAR(r.critical_path_ns, max_exec, max_exec * 1e-6);
  EXPECT_LE(r.critical_path_ns, r.wall_ns);
}

TEST_F(AnalysisTest, Eq1RecomputeWithinCountersOnGraphRun) {
  graph::graph_spec g;
  g.kind = graph::pattern::stencil1d;
  g.width = 16;
  g.steps = 20;
  const traced_run run = run_traced_graph(g, /*grain_ns=*/100'000, /*workers=*/2);

  const auto r = perf::analyze_trace(run.dump);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.total_dropped, 0u);

  const auto& c = run.totals;
  ASSERT_GT(c.func_ns, 0u);
  const double c_idle = static_cast<double>(c.func_ns - std::min(c.func_ns, c.exec_ns)) /
                        static_cast<double>(c.func_ns);
  const double c_td = static_cast<double>(c.exec_ns) /
                      static_cast<double>(c.tasks_executed);

  // Events alone reproduce the counter-based Eq. 1–3 exactly, up to the
  // rounding of ticks to ns: exec sums the phase stamps that feed
  // Σt_exec, and func sums each lane's worker_start..worker_stop pair, the
  // first and last stamps that feed Σt_func.
  EXPECT_NEAR(r.exec_ns, static_cast<double>(c.exec_ns), 1e-6 * c.exec_ns);
  EXPECT_NEAR(r.func_ns, static_cast<double>(c.func_ns), 1e-6 * c.func_ns);
  EXPECT_NEAR(r.idle_rate, c_idle, 1e-6);
  EXPECT_NEAR(r.task_duration_ns, c_td, 1e-6 * c_td);

  // Every task ran and completed in the trace.
  EXPECT_EQ(r.tasks_completed, run.stats.tasks);

  // Critical-path sanity on a parallel pattern: bounded by wall, and at
  // least the longest single task.
  double max_exec = 0;
  for (const auto& t : r.tasks) max_exec = std::max(max_exec, t.exec_ns);
  EXPECT_LE(r.critical_path_ns, r.wall_ns);
  EXPECT_GE(r.critical_path_ns, max_exec * (1 - 1e-9));
}

TEST_F(AnalysisTest, SpawnedCounterMatchesEnqueueEvents) {
  graph::graph_spec g;
  g.kind = graph::pattern::spread;
  g.width = 12;
  g.steps = 8;
  const traced_run run = run_traced_graph(g, /*grain_ns=*/5'000, /*workers=*/2);

  ASSERT_EQ(run.dump.total_dropped(), 0u);
  std::uint64_t enqueues = 0;
  for (const auto& lane : run.dump.lanes)
    for (const auto& e : lane.events)
      if (e.kind == trace_kind::task_enqueue) ++enqueues;

  // record_spawn bumps the counter and emits the event from the same call,
  // so with no ring drops they must agree exactly.
  EXPECT_EQ(enqueues, run.totals.tasks_spawned);
  EXPECT_EQ(run.totals.tasks_spawned, run.stats.tasks);

  // Graph-node provenance reached the analyzer for every task.
  const auto r = perf::analyze_trace(run.dump);
  ASSERT_TRUE(r.ok);
  std::uint64_t tagged = 0;
  for (const auto& t : r.tasks)
    if (t.has_graph_node) ++tagged;
  EXPECT_EQ(tagged, run.stats.tasks);
}

}  // namespace
}  // namespace gran
