// The three measured sections of every run.
//
//   stencil_sweep   — stencil1d dataflow DAG (graph::futurize_dag + the
//                     busy_spin kernel) swept over grains 1..64 µs on N
//                     workers, driven from inside a task. Gives the
//                     paper's U-curve as METG, fine-grain throughput and
//                     the best efficiency.
//   lazy_loop       — repeated algo::parallel_for(..., lazy_chunk{}) over
//                     items whose cost the input mix may skew; a few dozen
//                     tasks per loop, so it bypasses the per-task spawn path
//                     and exercises the split controller instead.
//   service_poisson — an open-loop Poisson stream at ~40% utilisation into
//                     task_service (reject policy, 1 client, N-1 workers),
//                     judged on sojourn latency timed from each request's due
//                     time.
//
// Every efficiency divides by a serial run of the same inputs in the same
// process, so the per-process kernel calibration cancels out.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <pthread.h>
#include <sched.h>

#include "algo/parallel_for.hpp"
#include "common.hpp"
#include "graph/futurize.hpp"
#include "graph/kernels.hpp"
#include "graph/spec.hpp"
#include "service/arrival.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "sync/latch.hpp"
#include "threads/thread_manager.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using gran::future;
using gran::thread_manager;

// ---------------------------------------------------------------------------
// shared plumbing

gran::scheduler_config pool_config(int workers) {
  gran::scheduler_config c;
  c.num_workers = workers;
  c.policy = "priority-local-fifo";
  c.pin_workers = true;
  c.pin = "compact";
  c.steal_order = "hier";
  c.steal_batch = "adaptive";
  c.stack_size = 64 * 1024;
  return c;
}

std::string config_json(const gran::scheduler_config& c) {
  std::ostringstream o;
  o << "{\"num_workers\":" << c.num_workers << ",\"numa_domains\":" << c.numa_domains
    << ",\"policy\":\"" << c.policy << "\",\"high_priority_queues\":"
    << c.high_priority_queues << ",\"pin_workers\":" << (c.pin_workers ? "true" : "false")
    << ",\"pin\":\"" << c.pin << "\",\"steal_order\":\"" << c.steal_order
    << "\",\"steal_batch\":\"" << c.steal_batch
    << "\",\"queue_ring_capacity\":" << c.queue_ring_capacity
    << ",\"idle_spin_limit\":" << c.idle_spin_limit
    << ",\"idle_yield_limit\":" << c.idle_yield_limit
    << ",\"idle_park\":" << (c.idle_park ? "true" : "false")
    << ",\"idle_park_us\":" << c.idle_park_us << ",\"stack_size\":" << c.stack_size
    << "}";
  return o.str();
}

void report::merge(const report& other) {
  for (const auto& [k, v] : other.metrics) metrics[k] = v;
  attempted += other.attempted;
  failed += other.failed;
  mismatches.insert(mismatches.end(), other.mismatches.begin(), other.mismatches.end());
  details.insert(details.end(), other.details.begin(), other.details.end());
}

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Sets `name` to the p-th percentile of `samples` times `scale`, or leaves it
// unset when too few samples lie beyond it (run.py then fails the run).
void set_percentile(report& out, const std::string& name, std::vector<double> samples,
                    double p, double scale, const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  if (const auto x = tail_percentile(samples, p)) out.set(name, *x * scale, unit);
}

double per_task(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ---------------------------------------------------------------------------
// stencil_sweep

// √2-spaced grains, 1..64 µs.
const std::vector<double> k_grains_us = {1.0,  1.4142, 2.0,  2.8284, 4.0,
                                         5.6569, 8.0, 11.314, 16.0, 22.627,
                                         32.0, 45.255, 64.0};
// Serial work of one pass, whatever the grain: the step count scales with it.
constexpr double k_pass_work_ns = 60e6;
// Live dataflow rows while the root task constructs the DAG: bounds the nodes
// (and their stacks) in memory, so peak RSS does not depend on how far
// construction ran ahead of execution.
constexpr std::size_t k_window_rows = 16;
// Grain dial of the skewed mix: task (t, p) costs grain * (1 ± 0.5 u).
constexpr double k_stencil_skew = 0.5;

struct stencil_pass {
  gran::graph::graph_spec g;
  gran::graph::kernel_spec k;
  std::uint64_t edges = 0;
};

stencil_pass make_stencil_pass(const run_context& ctx, double grain_us) {
  stencil_pass s;
  s.g.kind = gran::graph::pattern::stencil1d;
  s.g.width = static_cast<std::uint32_t>(16 * ctx.workers);
  s.g.radius = 1;
  const double grain_ns = grain_us * 1e3;
  s.g.steps = static_cast<std::uint32_t>(std::max(
      4.0, std::round(k_pass_work_ns / (grain_ns * static_cast<double>(s.g.width)))));
  s.k.kind = gran::graph::kernel_kind::busy_spin;
  s.k.grain_ns = grain_ns;
  s.k.imbalance = ctx.inputs == mix::skewed ? k_stencil_skew : 0.0;
  s.k.seed = ctx.seed;
  if (!s.g.validate().empty()) throw std::runtime_error("invalid stencil spec");
  s.edges = s.g.total_edges();
  return s;
}

std::vector<stencil_pass> make_stencil_inputs(const run_context& ctx) {
  std::vector<stencil_pass> passes;
  for (const double g : k_grains_us) passes.push_back(make_stencil_pass(ctx, g));
  return passes;
}

// The value of node (t, p): seeded coordinate hash, folded with its inputs'
// values in dependence order, then with the kernel's result. The serial
// evaluator and the futurized DAG share it, so their checksums must agree.
std::uint64_t node_seed(std::uint64_t seed, std::uint32_t t, std::uint32_t p) {
  return gran::mix64_combine(gran::mix64_combine(seed, t), p);
}

struct serial_result {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

// Evaluates the first `steps` steps of the graph serially on the calling
// thread; the checksum is the graph's only when all steps ran.
serial_result run_stencil_serial(const stencil_pass& s, std::uint32_t steps) {
  const auto& g = s.g;
  std::vector<std::uint64_t> prev(g.width), cur(g.width);
  std::vector<std::uint32_t> deps;
  const std::int64_t t0 = now_ns();
  for (std::uint32_t t = 0; t < steps; ++t) {
    for (std::uint32_t p = 0; p < g.width; ++p) {
      g.dependencies(t, p, deps);
      std::uint64_t acc = node_seed(s.k.seed, t, p);
      for (const std::uint32_t d : deps) acc = gran::mix64_combine(acc, prev[d]);
      cur[p] = gran::mix64_combine(acc, gran::graph::run_kernel(s.k, t, p));
    }
    std::swap(prev, cur);
  }
  serial_result r;
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const std::uint64_t v : prev) r.checksum = gran::mix64_combine(r.checksum, v);
  return r;
}

struct parallel_result {
  double seconds = 0.0;
  std::uint64_t tasks = 0, edges = 0, checksum = 0;
  thread_manager::totals delta{};
  double root_exec_ns = 0.0;  // the root task's own execution time
  std::uint64_t root_span = 0;
};

thread_manager::totals minus(const thread_manager::totals& a,
                             const thread_manager::totals& b) {
  thread_manager::totals d;
  d.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.exec_ns = a.exec_ns - b.exec_ns;
  d.func_ns = a.func_ns - b.func_ns;
  d.tasks_stolen = a.tasks_stolen - b.tasks_stolen;
  d.tasks_split = a.tasks_split - b.tasks_split;
  d.splits_denied = a.splits_denied - b.splits_denied;
  d.queues.pending_accesses = a.queues.pending_accesses - b.queues.pending_accesses;
  d.queues.pending_misses = a.queues.pending_misses - b.queues.pending_misses;
  return d;
}

parallel_result run_stencil_parallel(thread_manager& tm, const stencil_pass& s) {
  parallel_result r;
  run_in_task(tm, [&] {
    const gran::task* self = thread_manager::current_task();
    const std::uint64_t ticks0 = self->exec_ticks();
    const thread_manager::totals before = tm.counter_totals();
    const std::int64_t t0 = now_ns();
    {
      span_scope root("stencil.futurize_dag", 0, s.g.steps);
      r.root_span = root.id();
      const std::uint64_t parent = root.id();
      const std::uint32_t width = s.g.width;
      const gran::graph::kernel_spec& k = s.k;
      auto dag = gran::graph::futurize_dag<std::uint64_t>(
          tm, s.g,
          [&k, parent, width](std::uint32_t t, std::uint32_t p,
                              const std::vector<future<std::uint64_t>>& in) {
            const std::uint64_t node = static_cast<std::uint64_t>(t) * width + p;
            span_scope body("stencil.body", parent, node);
            std::uint64_t acc = node_seed(k.seed, t, p);
            for (const auto& f : in) acc = gran::mix64_combine(acc, f.get());
            std::uint64_t kbits;
            {
              span_scope kernel("stencil.kernel", body.id(), node);
              kbits = gran::graph::run_kernel(k, t, p);
            }
            return gran::mix64_combine(acc, kbits);
          },
          k_window_rows);
      r.tasks = dag.tasks;
      r.edges = dag.edges;
      for (auto& f : dag.last_row) r.checksum = gran::mix64_combine(r.checksum, f.get());
    }
    r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    r.delta = minus(tm.counter_totals(), before);
    r.root_exec_ns =
        static_cast<double>(gran::tsc_clock::to_ns(self->exec_ticks() - ticks0));
  });
  return r;
}

void check_pass(report& out, const stencil_pass& s, const parallel_result& par,
                std::uint64_t serial_checksum) {
  const std::string at = " at grain " + fmt(s.k.grain_ns / 1e3) + "us";
  out.check(par.tasks == s.g.total_tasks() && par.edges == s.edges &&
                par.checksum == serial_checksum,
            "stencil" + at + ": tasks " + std::to_string(par.tasks) + "/" +
                std::to_string(s.g.total_tasks()) + ", edges " +
                std::to_string(par.edges) + "/" + std::to_string(s.edges) +
                ", checksum " + (par.checksum == serial_checksum ? "ok" : "differs"));
}

// Latency from the end of a node's last input body to the start of its own
// body, from the traced body spans of one pass.
std::vector<double> ready_to_run_ns(const stencil_pass& s, std::uint64_t root_span,
                                    const std::vector<span>& all) {
  const std::size_t n = s.g.total_tasks();
  std::vector<std::int64_t> start(n, 0), end(n, 0);
  for (const span& sp : all) {
    if (sp.parent != root_span || std::string_view(sp.name) != "stencil.body") continue;
    if (sp.arg < n) {
      start[sp.arg] = sp.start_ns;
      end[sp.arg] = sp.end_ns;
    }
  }
  std::vector<double> out;
  std::vector<std::uint32_t> deps;
  for (std::uint32_t t = 1; t < s.g.steps; ++t)
    for (std::uint32_t p = 0; p < s.g.width; ++p) {
      s.g.dependencies(t, p, deps);
      std::int64_t ready = 0;
      for (const std::uint32_t d : deps)
        ready = std::max(ready, end[static_cast<std::size_t>(t - 1) * s.g.width + d]);
      const std::int64_t st = start[static_cast<std::size_t>(t) * s.g.width + p];
      if (ready > 0 && st > 0) out.push_back(static_cast<double>(st - ready));
    }
  return out;
}

double kernel_mean_ns(std::uint64_t root_span, const std::vector<span>& all) {
  std::unordered_map<std::uint64_t, bool> bodies;
  for (const span& sp : all)
    if (sp.parent == root_span && std::string_view(sp.name) == "stencil.body")
      bodies[sp.id] = true;
  std::vector<double> k;
  for (const span& sp : all)
    if (std::string_view(sp.name) == "stencil.kernel" && bodies.count(sp.parent))
      k.push_back(static_cast<double>(sp.end_ns - sp.start_ns));
  return mean(k);
}

// Eq. 3: scheduler overhead per task; the root task counts as one task.
double task_overhead_ns(const parallel_result& r) {
  const double func = static_cast<double>(r.delta.func_ns);
  const double exec = static_cast<double>(r.delta.exec_ns);
  return per_task(static_cast<std::uint64_t>(std::max(0.0, func - exec)),
                  r.delta.tasks_executed);
}

// Counter td of the DAG's nodes (the root task's own execution time taken out)
// minus the benchmark's kernel span: runtime work inside the task.
double td_excess_ns(const parallel_result& r, double kernel_ns) {
  const double node_exec = static_cast<double>(r.delta.exec_ns) - r.root_exec_ns;
  return node_exec / static_cast<double>(std::max<std::uint64_t>(1, r.tasks)) - kernel_ns;
}

double idle_rate(const parallel_result& r) {
  const double func = static_cast<double>(r.delta.func_ns);
  const double exec = static_cast<double>(r.delta.exec_ns);
  return func > 0 ? std::max(0.0, func - exec) / func : 0.0;
}

std::string grain_tag(double grain_us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "g%g", std::round(grain_us * 10.0) / 10.0);
  std::string s = buf;
  std::replace(s.begin(), s.end(), '.', '_');
  return s;
}

}  // namespace

void stencil_section(const run_context& ctx, double slice_s, report& out) {
  const std::vector<stencil_pass> passes = make_stencil_inputs(ctx);
  const std::size_t G = passes.size();
  const double N = static_cast<double>(ctx.workers);
  std::vector<std::uint64_t> serial_sum(G, 0);
  std::vector<bool> have_serial(G, false);

  // One sweep: serial then parallel at every grain, fine to coarse, both on
  // the pool (the serial run is one task). The first serial run of a grain
  // evaluates the whole graph and fixes the checksum every parallel pass must
  // match; later sweeps time the first quarter of the steps as the baseline.
  // The measured grain of a pass is that serial time per task: METG is read
  // off this axis, so a kernel calibration that lands a few percent off the
  // nominal grain does not move it.
  std::vector<std::vector<double>> work_us(G), par_s(G);
  auto sweep = [&](thread_manager& tm, std::vector<std::vector<double>>& eff,
                   std::vector<parallel_result>* keep) {
    for (std::size_t i = 0; i < G; ++i) {
      const auto& g = passes[i].g;
      const std::uint32_t steps = have_serial[i] ? std::max<std::uint32_t>(4, g.steps / 4) : g.steps;
      const bool was_on = spans::enabled();
      spans::enable(false);
      serial_result ser;
      run_in_task(tm, [&] { ser = run_stencil_serial(passes[i], steps); });
      spans::enable(was_on);
      if (!have_serial[i]) serial_sum[i] = ser.checksum;
      have_serial[i] = true;
      const double serial_task_s = ser.seconds / (static_cast<double>(steps) * g.width);
      const parallel_result par = run_stencil_parallel(tm, passes[i]);
      check_pass(out, passes[i], par, serial_sum[i]);
      eff[i].push_back(serial_task_s * static_cast<double>(g.total_tasks()) / (N * par.seconds));
      work_us[i].push_back(serial_task_s * 1e6);
      par_s[i].push_back(par.seconds);
      if (keep != nullptr) keep->push_back(par);
    }
  };

  std::ostringstream table;
  if (!ctx.trace) {
    thread_manager tm(pool_config(ctx.workers));
    std::vector<std::vector<double>> eff(G);
    const budget b(slice_s);
    int sweeps = 0;
    // The first sweep warms the pool, the allocator and the stack cache up
    // and is not counted.
    std::vector<std::vector<double>> warm(G);
    sweep(tm, warm, nullptr);
    for (auto& w : work_us) w.clear();
    for (auto& p : par_s) p.clear();
    do {
      sweep(tm, eff, nullptr);
      ++sweeps;
    } while (!b.spent() || sweeps < 3);

    // Per grain: the lower quartile over sweeps of the serial time per task
    // (the measured grain) and of the parallel time give the efficiency.
    std::vector<double> best(G), grain(G);
    table << "[";
    for (std::size_t i = 0; i < G; ++i) {
      grain[i] = lower_quartile(work_us[i]);
      best[i] = grain[i] * 1e-6 * static_cast<double>(passes[i].g.total_tasks()) /
                (N * lower_quartile(par_s[i]));
      table << (i ? "," : "") << "{\"grain_us\":" << k_grains_us[i]
            << ",\"measured_grain_us\":" << grain[i] << ",\"width\":" << passes[i].g.width
            << ",\"steps\":" << passes[i].g.steps << ",\"efficiency\":" << best[i]
            << ",\"efficiency_per_sweep\":[";
      for (std::size_t j = 0; j < eff[i].size(); ++j) table << (j ? "," : "") << eff[i][j];
      table << "]}";
    }
    table << "]";
    const metg_result m = metg(grain, best);
    out.check(m.state != metg_result::status::never,
              "stencil: no grain reaches 50% efficiency (METG undefined)");
    if (m.state != metg_result::status::never) out.set("metg_us", m.grain, "us");
    out.set("fine_tasks_per_s",
            static_cast<double>(passes[0].g.total_tasks()) / lower_quartile(par_s[0]),
            "tasks/s");
    std::ostringstream rates;
    for (std::size_t j = 0; j < par_s[0].size(); ++j)
      rates << (j ? "," : "") << static_cast<double>(passes[0].g.total_tasks()) / par_s[0][j];
    table << ",\"fine_tasks_per_s_per_sweep\":[" << rates.str() << "]";
    out.set("opt_efficiency", *std::max_element(best.begin(), best.end()), "fraction");
    out.details.emplace_back("stencil_sweep",
                             "{\"sweeps\":" + std::to_string(sweeps) +
                                 ",\"pool\":" + config_json(pool_config(ctx.workers)) +
                                 ",\"grains\":" + table.str() + "}");
    return;
  }

  // Traced run. (a) 1 worker at the finest grain: the .w1 rows.
  spans::clear();
  spans::enable(true);
  {
    thread_manager tm1(pool_config(1));
    const serial_result ser = run_stencil_serial(passes[0], passes[0].g.steps);
    const parallel_result par = run_stencil_parallel(tm1, passes[0]);
    check_pass(out, passes[0], par, ser.checksum);
    const std::vector<span> all = spans::collect();
    out.set("threads.to_ns.w1", task_overhead_ns(par), "ns");
    out.set("async.td_excess_ns.w1", td_excess_ns(par, kernel_mean_ns(par.root_span, all)),
            "ns");
  }
  spans::clear();

  // (b) One traced sweep on N workers, then (c) the same parallel passes
  // untraced for the trace overhead.
  thread_manager tm(pool_config(ctx.workers));
  std::vector<std::vector<double>> eff(G);
  std::vector<parallel_result> traced;
  sweep(tm, eff, &traced);
  std::vector<span> all = spans::collect();
  spans::enable(false);

  std::size_t opt = 0;
  for (std::size_t i = 1; i < G; ++i)
    if (eff[i][0] > eff[opt][0]) opt = i;
  const std::size_t coarse = G - 1;
  for (std::size_t i = 0; i < G; ++i)
    out.set("graph.kernel_ns." + grain_tag(k_grains_us[i]),
            kernel_mean_ns(traced[i].root_span, all), "ns");
  out.set("threads.to_ns.wN", task_overhead_ns(traced[0]), "ns");
  out.set("async.td_excess_ns.wN",
          td_excess_ns(traced[0], kernel_mean_ns(traced[0].root_span, all)), "ns");
  out.set("threads.idle_rate.fine", idle_rate(traced[0]), "fraction");
  out.set("threads.idle_rate.opt", idle_rate(traced[opt]), "fraction");
  out.set("threads.idle_rate.coarse", idle_rate(traced[coarse]), "fraction");
  out.set("threads.stolen_per_task",
          per_task(traced[opt].delta.tasks_stolen, traced[opt].delta.tasks_executed),
          "count");
  out.set("threads.pending_miss_per_task",
          per_task(traced[opt].delta.queues.pending_misses,
                   traced[opt].delta.tasks_executed),
          "count");

  // Ready-to-run at the fine and the coarse end. The coarse pass has few
  // nodes, so it runs again until its p99 rests on enough samples.
  std::vector<double> fine_rtr = ready_to_run_ns(passes[0], traced[0].root_span, all);
  std::vector<double> coarse_rtr =
      ready_to_run_ns(passes[coarse], traced[coarse].root_span, all);
  spans::enable(true);
  while (coarse_rtr.size() < 2000) {
    spans::clear();
    const parallel_result again = run_stencil_parallel(tm, passes[coarse]);
    check_pass(out, passes[coarse], again, serial_sum[coarse]);
    const std::vector<span> more = spans::collect();
    const std::vector<double> extra = ready_to_run_ns(passes[coarse], again.root_span, more);
    coarse_rtr.insert(coarse_rtr.end(), extra.begin(), extra.end());
  }
  spans::enable(false);
  set_percentile(out, "graph.ready_to_run_ns.fine.p50", fine_rtr, 50, 1.0, "ns");
  set_percentile(out, "graph.ready_to_run_ns.fine.p99", fine_rtr, 99, 1.0, "ns");
  set_percentile(out, "graph.ready_to_run_ns.coarse.p50", coarse_rtr, 50, 1.0, "ns");
  set_percentile(out, "graph.ready_to_run_ns.coarse.p99", coarse_rtr, 99, 1.0, "ns");

  double traced_s = 0.0, plain_s = 0.0;
  for (std::size_t i = 0; i < G; ++i) {
    traced_s += traced[i].seconds;
    const parallel_result par = run_stencil_parallel(tm, passes[i]);
    check_pass(out, passes[i], par, serial_sum[i]);
    plain_s += par.seconds;
  }
  out.set("bench.trace_overhead_pct.stencil_sweep", (traced_s / plain_s - 1.0) * 100.0, "%");
  (void)slice_s;
}

// ---------------------------------------------------------------------------
// lazy_loop

namespace {

constexpr std::size_t k_loop_items = 8192;
constexpr double k_item_ns = 1'000.0;
constexpr double k_heavy_factor = 12.0;  // cost of an item in the heavy block
constexpr int k_serial_per_block = 3;    // serial loops per layout
constexpr int k_loops_per_block = 6;     // parallel loops per layout

struct lazy_inputs {
  std::vector<std::uint8_t> heavy;  // per item: 1 = in the heavy block
  gran::graph::kernel_spec light, heavy_k;
  std::uint64_t seed = 1;
};

// The skewed mix puts a contiguous block of 1/8 of the items at 12x the
// cost: the coarse per-worker blocks lazy_chunk starts from are then badly
// unequal, and only splitting balances them. How well splitting copes
// depends on where the heavy block falls, so successive layouts step its
// offset by 1/64 of the range from a seeded start: every run sweeps the same
// spread of positions, whatever its seed.
lazy_inputs make_lazy_inputs(const run_context& ctx, std::uint64_t layout) {
  lazy_inputs in;
  in.seed = gran::mix64_combine(ctx.seed, layout);
  in.heavy.assign(k_loop_items, 0);
  if (ctx.inputs == mix::skewed) {
    const std::size_t first =
        (gran::mix64(ctx.seed) + layout * (k_loop_items / 64)) % k_loop_items;
    for (std::size_t j = 0; j < k_loop_items / 8; ++j)
      in.heavy[(first + j) % k_loop_items] = 1;
  }
  in.light.kind = in.heavy_k.kind = gran::graph::kernel_kind::busy_spin;
  in.light.grain_ns = k_item_ns;
  in.heavy_k.grain_ns = k_item_ns * k_heavy_factor;
  return in;
}

std::uint64_t run_item(const lazy_inputs& in, std::size_t i) {
  const auto& k = in.heavy[i] ? in.heavy_k : in.light;
  const std::uint64_t bits = gran::graph::run_kernel(k, 0, static_cast<std::uint32_t>(i));
  return gran::mix64_combine(gran::mix64_combine(in.seed, i), bits);
}

struct alignas(64) padded_sum {
  std::uint64_t v = 0;
};

struct loop_result {
  double seconds = 0.0;
  std::uint64_t sum = 0;
  thread_manager::totals delta{};
  std::uint64_t span_id = 0;
};

// One parallel loop, called from inside a root task. Per-worker partial
// sums (wrapping adds commute) keep the check off a shared cache line.
loop_result run_lazy_loop(thread_manager& tm, const lazy_inputs& in) {
  loop_result r;
  std::vector<padded_sum> sums(static_cast<std::size_t>(tm.num_workers()));
  const thread_manager::totals before = tm.counter_totals();
  const std::int64_t t0 = now_ns();
  {
    span_scope loop("lazy.parallel_for");
    r.span_id = loop.id();
    const std::uint64_t parent = loop.id();
    gran::algo::lazy_chunk policy{gran::core::split_options{}, 0};
    gran::algo::parallel_for(
        tm, 0, k_loop_items,
        [&](std::size_t i) {
          span_scope item("lazy.item", parent, i);
          sums[static_cast<std::size_t>(thread_manager::current_worker())].v +=
              run_item(in, i);
        },
        policy);
  }
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.delta = minus(tm.counter_totals(), before);
  for (const auto& s : sums) r.sum += s.v;
  return r;
}

struct serial_loop {
  double seconds = 0.0;
  std::uint64_t sum = 0;
};

serial_loop run_lazy_serial(const lazy_inputs& in) {
  serial_loop r;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < k_loop_items; ++i) r.sum += run_item(in, i);
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return r;
}

// From the end of the first worker's last item to the loop's return.
double tail_us(const loop_result& r, const std::vector<span>& all) {
  std::unordered_map<int, std::int64_t> last_end;
  std::int64_t loop_end = 0;
  for (const span& s : all) {
    if (s.id == r.span_id) loop_end = s.end_ns;
    if (s.parent == r.span_id) last_end[s.worker] = std::max(last_end[s.worker], s.end_ns);
  }
  std::int64_t first_idle = loop_end;
  for (const auto& [w, e] : last_end) first_idle = std::min(first_idle, e);
  return static_cast<double>(loop_end - first_idle) / 1e3;
}

}  // namespace

void lazy_section(const run_context& ctx, double slice_s, report& out) {
  thread_manager tm(pool_config(ctx.workers));
  const double N = static_cast<double>(ctx.workers);
  std::uint64_t layouts = 0;

  // A block: one layout, k_serial_per_block serial loops in a task, then
  // k_loops_per_block parallel loops driven from one task. Efficiency of a
  // block = lower-quartile serial / (N * lower-quartile parallel).
  auto block = [&](std::vector<loop_result>* keep) {
    const lazy_inputs in = make_lazy_inputs(ctx, layouts++);
    serial_loop ser;
    std::vector<double> ser_s;
    run_in_task(tm, [&] {
      for (int j = 0; j < k_serial_per_block; ++j) {
        ser = run_lazy_serial(in);
        ser_s.push_back(ser.seconds);
      }
    });
    std::vector<double> par;
    run_in_task(tm, [&] {
      for (int j = 0; j < k_loops_per_block; ++j) {
        const loop_result r = run_lazy_loop(tm, in);
        out.check(r.sum == ser.sum, "lazy_loop: parallel sum differs from the serial loop");
        par.push_back(r.seconds);
        if (keep != nullptr) keep->push_back(r);
      }
    });
    return std::make_pair(lower_quartile(ser_s), lower_quartile(par));
  };

  if (!ctx.trace) {
    std::vector<double> eff;
    const budget b(slice_s);
    do {
      const auto [ser, par] = block(nullptr);
      eff.push_back(ser / (N * par));
    } while (!b.spent() || eff.size() < 5);
    out.set("efficiency", median(eff), "fraction");
    std::ostringstream samples;
    for (std::size_t j = 0; j < eff.size(); ++j) samples << (j ? "," : "") << eff[j];
    out.details.emplace_back(
"lazy_loop", "{\"items\":" + std::to_string(k_loop_items) +
                         ",\"heavy_items\":" +
                         std::to_string(ctx.inputs == mix::skewed ? k_loop_items / 8 : 0) +
                         ",\"efficiency\":[" + samples.str() + "]" +
                         ",\"pool\":" + config_json(pool_config(ctx.workers)) + "}");
    return;
  }

  // Traced: alternate traced and untraced blocks for the overhead; the
  // per-loop rows come from the traced loops.
  std::vector<double> traced_par, plain_par, tasks, splits, denied, tails;
  const budget b(slice_s);
  int blocks = 0;
  do {
    spans::clear();
    spans::enable(true);
    std::vector<loop_result> kept;
    traced_par.push_back(block(&kept).second);
    spans::enable(false);
    const std::vector<span> all = spans::collect();
    for (const loop_result& r : kept) {
      // Counter deltas include the root task only when it terminates,
      // which happens after the last loop of the block.
      tasks.push_back(static_cast<double>(r.delta.tasks_executed));
      splits.push_back(static_cast<double>(r.delta.tasks_split));
      denied.push_back(static_cast<double>(r.delta.splits_denied));
      tails.push_back(tail_us(r, all));
    }
    plain_par.push_back(block(nullptr).second);
    ++blocks;
  } while (!b.spent() || blocks < 4);
  spans::clear();
  out.set("algo.tasks_per_loop", mean(tasks), "count");
  out.set("algo.splits_per_loop", mean(splits), "count");
  out.set("algo.split_denied_per_loop", mean(denied), "count");
  out.set("algo.tail_us", median(tails), "us");
  out.set("bench.trace_overhead_pct.lazy_loop",
          (median(traced_par) / median(plain_par) - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------------
// service_poisson

namespace {

constexpr double k_utilisation = 0.4;
constexpr double k_warmup_s = 0.2;  // arrivals before this are not measured
// Sojourn percentiles are medians over windows of this many ns of due times.
constexpr std::int64_t k_sojourn_window_ns = 500'000'000;

gran::service::arrival_config make_arrival_config(const run_context& ctx) {
  gran::service::arrival_config a;
  a.kind = gran::service::arrival_kind::poisson;
  a.seed = ctx.seed;
  if (ctx.inputs == mix::skewed) {
    a.grain_min_ns = 5'000;
    a.grain_max_ns = 80'000;
  } else {
    a.grain_min_ns = a.grain_max_ns = 20'000;
  }
  const double mean_grain =
      a.grain_max_ns > a.grain_min_ns
          ? (a.grain_max_ns - a.grain_min_ns) / std::log(a.grain_max_ns / a.grain_min_ns)
          : a.grain_min_ns;
  const int workers = std::max(1, ctx.workers - 1);
  a.rate_per_s = k_utilisation * workers / (mean_grain * 1e-9);
  return a;
}

// The rings and the admission bound hold seconds of arrivals: at 40% load
// only a host stall of that length could fill them, and a request rejected
// for a stall of the host would count as a failed operation.
gran::service::service_config make_service_config() {
  gran::service::service_config c;
  c.shards = 0;
  c.shard_capacity = 1 << 16;
  c.backlog_bound = 1 << 18;
  c.policy = gran::service::admission_policy::reject;
  c.drain_batch = 64;
  c.register_counters = false;
  return c;
}

// Sleeps coarsely and spins the last stretch, so the open loop stays on
// schedule to a few µs without burning its CPU through long gaps.
void pace_until(std::int64_t deadline_ns) {
  for (;;) {
    const std::int64_t gap = deadline_ns - now_ns();
    if (gap <= 0) return;
    if (gap > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 200'000));
    else if (gap > 50'000)
      std::this_thread::yield();
  }
}

// Pins the calling thread to a CPU no worker of `tm` is pinned to, if any.
void pin_beside(const thread_manager& tm) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (const auto& w : tm.plan().workers)
    if (w.cpu >= 0) CPU_CLR(w.cpu, &allowed);
  if (CPU_COUNT(&allowed) > 0) pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
}

struct service_run {
  std::vector<std::int64_t> due_ns;  // of each measured request, ascending
  std::vector<double> sojourn_ns, queue_wait_ns, late_ns;
  gran::service::task_service::stats stats{};
  std::uint64_t generated = 0, lost = 0;
  std::string config;
};

service_run run_service(const run_context& ctx, double horizon_s) {
  const gran::service::arrival_config acfg = make_arrival_config(ctx);
  const std::vector<gran::service::arrival_event> arrivals =
      gran::service::generate_arrivals(acfg, horizon_s);
  const std::size_t n = arrivals.size();
  std::unique_ptr<std::atomic<std::int64_t>[]> start(new std::atomic<std::int64_t>[n]);
  std::unique_ptr<std::atomic<std::int64_t>[]> end(new std::atomic<std::int64_t>[n]);
  std::vector<std::int64_t> due(n, 0), submitted(n, 0);
  std::vector<gran::service::submit_status> status(n);
  for (std::size_t i = 0; i < n; ++i) {
    start[i].store(0, std::memory_order_relaxed);
    end[i].store(0, std::memory_order_relaxed);
  }

  service_run out;
  out.generated = n;
  const gran::scheduler_config pcfg = pool_config(std::max(1, ctx.workers - 1));
  thread_manager tm(pcfg);
  const gran::service::service_config scfg = make_service_config();
  {
    gran::service::task_service svc(tm, scfg);
    std::thread client([&] {
      pin_beside(tm);
      const std::int64_t t0 = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < n; ++i) {
        due[i] = t0 + static_cast<std::int64_t>(arrivals[i].t_s * 1e9);
        pace_until(due[i]);
        const auto grain = static_cast<std::int64_t>(arrivals[i].grain_ns);
        span_scope sub("service.submit", 0, i);
        submitted[i] = now_ns();
        status[i] = svc.submit([&start, &end, i, grain] {
          span_scope body("service.request", 0, i);
          const std::int64_t s = now_ns();
          start[i].store(s, std::memory_order_relaxed);
          spin_for_ns(grain);
          end[i].store(now_ns(), std::memory_order_relaxed);
        });
      }
    });
    client.join();
    svc.quiesce();
    out.stats = svc.snapshot();
  }
  out.config = "{\"pool\":" + config_json(pcfg) + ",\"service\":{\"shards\":" +
               std::to_string(scfg.shards) + ",\"shard_capacity\":" +
               std::to_string(scfg.shard_capacity) + ",\"backlog_bound\":" +
               std::to_string(scfg.backlog_bound) + ",\"policy\":\"" +
               gran::service::to_string(scfg.policy) + "\",\"drain_batch\":" +
               std::to_string(scfg.drain_batch) + "},\"rate_per_s\":" +
               fmt(acfg.rate_per_s) + ",\"grain_min_ns\":" + fmt(acfg.grain_min_ns) +
               ",\"grain_max_ns\":" + fmt(acfg.grain_max_ns) + ",\"requests\":" +
               std::to_string(n) + "}";

  const std::int64_t measured_from =
      n > 0 ? due[0] + static_cast<std::int64_t>(k_warmup_s * 1e9) : 0;
  // Reserved up front: growing them would reallocate once more or less as the
  // sample count crosses a power of two, and peak RSS would follow the seed.
  for (auto* v : {&out.sojourn_ns, &out.queue_wait_ns, &out.late_ns}) v->reserve(n);
  out.due_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] != gran::service::submit_status::accepted) continue;
    const std::int64_t s = start[i].load(std::memory_order_relaxed);
    const std::int64_t e = end[i].load(std::memory_order_relaxed);
    if (s == 0 || e == 0) {
      ++out.lost;
      continue;
    }
    if (due[i] < measured_from) continue;
    out.due_ns.push_back(due[i]);
    out.sojourn_ns.push_back(static_cast<double>(e - due[i]));
    out.queue_wait_ns.push_back(static_cast<double>(s - due[i]));
    out.late_ns.push_back(static_cast<double>(submitted[i] - due[i]));
  }
  return out;
}

void check_service(report& out, const service_run& r) {
  const auto& s = r.stats;
  out.attempted += r.generated;
  out.failed += s.rejected + r.lost;
  if (s.accepted + s.rejected != r.generated || s.completed != s.accepted || r.lost != 0) {
    out.failed += 1;
    out.mismatches.push_back(
        "service: attempted " + std::to_string(r.generated) + ", accepted " +
        std::to_string(s.accepted) + ", rejected " + std::to_string(s.rejected) +
        ", completed " + std::to_string(s.completed) + ", lost " + std::to_string(r.lost));
  }
}

}  // namespace

void service_section(const run_context& ctx, double slice_s, report& out) {
  if (!ctx.trace) {
    const service_run r = run_service(ctx, slice_s);
    check_service(out, r);
    for (const double p : {50.0, 95.0})
      if (const auto x = windowed_percentile(r.due_ns, r.sojourn_ns, k_sojourn_window_ns, p))
        out.set(p == 50.0 ? "sojourn_p50_us" : "sojourn_p95_us", *x * 1e-3, "us");
    out.details.emplace_back("service_poisson", r.config);
    return;
  }
  spans::clear();
  spans::enable(true);
  const service_run traced = run_service(ctx, slice_s / 2);
  spans::enable(false);
  const std::vector<span> all = spans::collect();
  spans::clear();
  const service_run plain = run_service(ctx, slice_s / 2);
  check_service(out, traced);
  check_service(out, plain);

  std::vector<double> submit_ns;
  for (const span& s : all)
    if (std::string_view(s.name) == "service.submit")
      submit_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
  set_percentile(out, "service.submit_ns.p50", submit_ns, 50, 1.0, "ns");
  set_percentile(out, "service.submit_ns.p99", submit_ns, 99, 1.0, "ns");
  set_percentile(out, "service.queue_wait_us.p50", traced.queue_wait_ns, 50, 1e-3, "us");
  set_percentile(out, "service.queue_wait_us.p95", traced.queue_wait_ns, 95, 1e-3, "us");
  set_percentile(out, "service.sojourn_p99_us", traced.sojourn_ns, 99, 1e-3, "us");
  set_percentile(out, "service.gen_late_us.p99", traced.late_ns, 99, 1e-3, "us");
  out.set("service.backlog_peak", static_cast<double>(traced.stats.backlog_peak), "count");
  out.set("bench.trace_overhead_pct.service_poisson",
          (median(traced.sojourn_ns) / median(plain.sojourn_ns) - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------------
// set-up

double setup_once(const run_context& ctx, double service_horizon_s) {
  const std::int64_t t0 = now_ns();
  const std::vector<stencil_pass> passes = make_stencil_inputs(ctx);
  const lazy_inputs lazy = make_lazy_inputs(ctx, 0);
  const auto arrivals =
      gran::service::generate_arrivals(make_arrival_config(ctx), service_horizon_s);
  {
    thread_manager tm(pool_config(ctx.workers));
    run_in_task(tm, [] {});
  }
  {
    thread_manager tm(pool_config(std::max(1, ctx.workers - 1)));
    gran::service::task_service svc(tm, make_service_config());
  }
  if (passes.empty() || lazy.heavy.size() != k_loop_items || arrivals.empty())
    throw std::runtime_error("set-up produced no inputs");
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
