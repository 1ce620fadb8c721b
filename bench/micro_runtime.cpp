// Micro-benchmarks of the runtime's primitive costs (google-benchmark).
//
// These are the native equivalents of the simulator's machine-model
// constants — context-switch, task spawn/run, future round trip, queue
// operations — plus the timer-invocation overhead the paper's §II note
// measures ("no significant overheads except ... task durations less than
// four microseconds").
#include <benchmark/benchmark.h>

#include <atomic>

#include "async/gran.hpp"
#include "fiber/fiber.hpp"
#include "perf/observability.hpp"
#include "util/cli.hpp"
#include "queues/concurrent_fifo.hpp"
#include "queues/mpmc_bounded.hpp"
#include "queues/spsc_ring.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

// One manager shared by the task benchmarks (built lazily so queue/fiber
// benches don't pay for it).
thread_manager& bench_manager() {
  static scheduler_config cfg = [] {
    scheduler_config c;
    c.num_workers = 2;
    c.pin_workers = false;
    return c;
  }();
  static thread_manager tm(cfg);
  return tm;
}

void bm_timer_rdtsc(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(tsc_clock::now());
}
BENCHMARK(bm_timer_rdtsc);

void bm_timer_steady_clock(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(std::chrono::steady_clock::now());
}
BENCHMARK(bm_timer_steady_clock);

void bm_context_switch_pair(benchmark::State& state) {
  // One resume+suspend round trip = two raw context switches.
  stack_pool pool;
  fiber f(pool.acquire(), [] {
    for (;;) fiber::current()->suspend();
  });
  for (auto _ : state) f.resume();
  state.SetItemsProcessed(state.iterations());
  // The fiber never finishes; its stack dies with it (benchmark-only).
}
BENCHMARK(bm_context_switch_pair);

void bm_spsc_ring_push_pop(benchmark::State& state) {
  spsc_ring<std::uint64_t> ring(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ring.push(i++);
    benchmark::DoNotOptimize(ring.pop());
  }
}
BENCHMARK(bm_spsc_ring_push_pop);

void bm_mpmc_bounded_push_pop(benchmark::State& state) {
  mpmc_bounded<std::uint64_t> q(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    q.push(i++);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(bm_mpmc_bounded_push_pop);

void bm_concurrent_fifo_push_pop(benchmark::State& state) {
  concurrent_fifo<std::uint64_t> q(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    q.push(i++);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(bm_concurrent_fifo_push_pop);

void bm_task_spawn_and_complete(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  for (auto _ : state) {
    latch done(1);
    tm.spawn([&done] { done.count_down(); });
    done.wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_task_spawn_and_complete);

void bm_task_spawn_batch(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    latch done(batch);
    for (int i = 0; i < batch; ++i) tm.spawn([&done] { done.count_down(); });
    done.wait();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(bm_task_spawn_batch)->Arg(64)->Arg(1024);

void bm_future_round_trip(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  (void)tm;
  for (auto _ : state) {
    auto f = async([] { return 42; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_future_round_trip);

void bm_dataflow_node(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  (void)tm;
  for (auto _ : state) {
    auto a = make_ready_future<int>(1);
    auto b = make_ready_future<int>(2);
    auto c = dataflow([](future<int>& x, future<int>& y) { return x.get() + y.get(); },
                      a, b);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_dataflow_node);

void bm_counter_query(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  (void)tm;
  auto& reg = perf::registry::instance();
  for (auto _ : state) benchmark::DoNotOptimize(reg.query("/threads/idle-rate"));
}
BENCHMARK(bm_counter_query);

// The §II note reproduced: per-task timestamping cost relative to task
// duration. Runs a task of `points` synthetic grid-point updates and
// reports ns/task — compare the per-task fixed cost across sizes.
void bm_task_with_work(benchmark::State& state) {
  thread_manager& tm = bench_manager();
  const std::int64_t points = state.range(0);
  std::vector<double> data(static_cast<std::size_t>(points) + 2, 1.0);
  for (auto _ : state) {
    latch done(1);
    tm.spawn([&done, &data, points] {
      double acc = 0;
      for (std::int64_t i = 1; i <= points; ++i)
        acc += 0.5 * (data[static_cast<std::size_t>(i - 1)] -
                      2 * data[static_cast<std::size_t>(i)] +
                      data[static_cast<std::size_t>(i + 1)]);
      benchmark::DoNotOptimize(acc);
      done.count_down();
    });
    done.wait();
  }
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(bm_task_with_work)->Arg(160)->Arg(2500)->Arg(12500)->Arg(100000);

}  // namespace

// Expanded BENCHMARK_MAIN so an observability_session wraps the runs. The
// gran flags (--trace-out, --metrics-out, ...) are parsed from the
// original argv before benchmark::Initialize consumes its own; unrecognized
// leftovers are tolerated on both sides.
int main(int argc, char** argv) {
  const gran::cli_args args(argc, argv);
  gran::perf::observability_session obs(
      gran::perf::observability_session::options_from_cli(
          args, gran::perf::observability_session::options_from_env()));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
