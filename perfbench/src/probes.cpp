// Layer probes of the traced run: wall-clock timings of calls into one
// layer's public API at a time (fiber, queues, threads, async), at 1 and at
// N threads where the row is named .w1/.wN. Each probe repeats its timed
// loop and reports the median.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "async/async.hpp"
#include "async/dataflow.hpp"
#include "common.hpp"
#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"
#include "queues/chase_lev_deque.hpp"
#include "queues/mpmc_bounded.hpp"
#include "stats.hpp"
#include "sync/latch.hpp"
#include "threads/thread_manager.hpp"

namespace perfbench {

namespace {

using gran::thread_manager;

constexpr int k_repeats = 5;

template <typename F>
double median_of(int repeats, F&& once) {
  std::vector<double> v;
  for (int r = 0; r < repeats; ++r) v.push_back(once());
  return median(v);
}

// Starts `n` threads running body(index) together and joins them.
template <typename F>
void run_threads(int n, F&& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < n) {
      }
      body(t);
    });
  for (auto& th : threads) th.join();
}

// --- fiber ----------------------------------------------------------------

double fiber_switch_pair_ns() {
  gran::stack_pool pool(64 * 1024, 4);
  bool done = false;
  gran::fiber f(pool.acquire(), [&done] {
    while (!done) gran::fiber::current()->suspend();
  });
  f.resume();
  constexpr int k = 200'000;
  const double ns = median_of(k_repeats, [&] {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < k; ++i) f.resume();
    return static_cast<double>(now_ns() - t0) / k;
  });
  done = true;
  f.resume();
  return ns;
}

// acquire+release pairs per thread, `threads` threads sharing one pool.
double stack_cycle_ns(int threads) {
  gran::stack_pool pool(64 * 1024, 1024);
  constexpr int k = 100'000;
  return median_of(k_repeats, [&] {
    std::vector<double> per(static_cast<std::size_t>(threads));
    run_threads(threads, [&](int t) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < k; ++i) pool.release(pool.acquire());
      per[static_cast<std::size_t>(t)] = static_cast<double>(now_ns() - t0) / k;
    });
    return median(per);
  });
}

// --- queues ---------------------------------------------------------------

struct deque_probe {
  double owner_op_ns = 0.0;
  double steal_op_ns = 0.0;
};

// The owner pushes two and pops one per iteration while `thieves` threads
// steal: owner ns per operation, and thief time per successful steal summed
// over the thieves (thieves that lose every CAS race still count their time).
deque_probe deque_ops(int thieves) {
  constexpr int k = 300'000;
  std::vector<double> owner, steal;
  for (int r = 0; r < k_repeats; ++r) {
    gran::chase_lev_deque<std::uint64_t> dq(1024);
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> steals(static_cast<std::size_t>(thieves), 0);
    std::vector<std::int64_t> spent(static_cast<std::size_t>(thieves), 0);
    run_threads(thieves + 1, [&](int t) {
      const std::int64_t t0 = now_ns();
      if (t == 0) {
        for (int i = 0; i < k; ++i) {
          dq.push(static_cast<std::uint64_t>(i));
          dq.push(static_cast<std::uint64_t>(i));
          (void)dq.pop();
        }
        owner.push_back(static_cast<double>(now_ns() - t0) / (3.0 * k));
        stop.store(true);
        return;
      }
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed))
        if (dq.steal()) ++n;
      steals[static_cast<std::size_t>(t - 1)] = n;
      spent[static_cast<std::size_t>(t - 1)] = now_ns() - t0;
    });
    std::uint64_t stolen = 0;
    std::int64_t thief_ns = 0;
    for (int t = 0; t < thieves; ++t) {
      stolen += steals[static_cast<std::size_t>(t)];
      thief_ns += spent[static_cast<std::size_t>(t)];
    }
    if (stolen > 0) steal.push_back(static_cast<double>(thief_ns) / static_cast<double>(stolen));
  }
  return {median(owner), steal.empty() ? 0.0 : median(steal)};
}

// `producers` threads push into one bounded MPMC ring, one thread pops
// everything: wall ns per item handed over (the service ingress shape).
double mpmc_op_ns(int producers, report& out) {
  constexpr std::uint64_t k = 200'000;
  return median_of(k_repeats, [&] {
    gran::mpmc_bounded<std::uint64_t> q(1024);
    std::uint64_t sum = 0;
    const std::int64_t t0 = now_ns();
    run_threads(producers + 1, [&](int t) {
      if (t == 0) {
        for (std::uint64_t got = 0; got < k * static_cast<std::uint64_t>(producers);) {
          if (const auto v = q.pop()) {
            sum += *v;
            ++got;
          }
        }
        return;
      }
      for (std::uint64_t i = 1; i <= k; ++i)
        while (!q.push(i)) {
        }
    });
    const double ns = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(k * static_cast<std::uint64_t>(producers));
    out.check(sum == static_cast<std::uint64_t>(producers) * k * (k + 1) / 2,
              "queues: mpmc_bounded lost or duplicated items");
    return ns;
  });
}

// --- threads --------------------------------------------------------------

// Time of the spawn() call itself, from inside a task.
double spawn_call_ns(thread_manager& tm) {
  constexpr int k = 20'000;
  return median_of(k_repeats, [&] {
    double ns = 0.0;
    run_in_task(tm, [&] {
      gran::latch all(k);
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < k; ++i) tm.spawn([&all] { all.count_down(); });
      ns = static_cast<double>(now_ns() - t0) / k;
      all.wait();
    });
    return ns;
  });
}

// From just before spawn() to the first instruction of the body; the
// spawning task then blocks on a latch until the child ran.
double spawn_to_run_ns(thread_manager& tm) {
  constexpr int k = 4'000;
  std::vector<double> v;
  run_in_task(tm, [&] {
    for (int i = 0; i < k; ++i) {
      gran::latch ran(1);
      std::int64_t t_run = 0;
      const std::int64_t t0 = now_ns();
      tm.spawn([&] {
        t_run = now_ns();
        ran.count_down();
      });
      ran.wait();
      v.push_back(static_cast<double>(t_run - t0));
    }
  });
  return median(v);
}

// A task keeps its worker busy while it spawn_on()s a child onto that same
// worker; the time until another worker starts the child is steal latency.
double steal_latency_ns(thread_manager& tm) {
  constexpr int k = 2'000;
  std::vector<double> v;
  run_in_task(tm, [&] {
    const int me = thread_manager::current_worker();
    for (int i = 0; i < k; ++i) {
      std::atomic<std::int64_t> ran{0};
      std::atomic<int> by{-1};
      const std::int64_t t0 = now_ns();
      tm.spawn_on(me, [&] {
        by.store(thread_manager::current_worker(), std::memory_order_relaxed);
        ran.store(now_ns(), std::memory_order_release);
      });
      const std::int64_t give_up = t0 + 50'000'000;
      while (ran.load(std::memory_order_acquire) == 0)
        if (now_ns() > give_up) gran::this_task::yield();
      if (by.load(std::memory_order_relaxed) != me)
        v.push_back(static_cast<double>(ran.load() - t0));
    }
  });
  return median(v);
}

// External spawn into a pool whose workers have all parked, until the body
// starts.
double wake_latency_ns(thread_manager& tm) {
  constexpr int k = 150;
  std::vector<double> v;
  for (int i = 0; i < k; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    std::atomic<std::int64_t> ran{0};
    const std::int64_t t0 = now_ns();
    tm.spawn([&ran] { ran.store(now_ns(), std::memory_order_release); });
    while (ran.load(std::memory_order_acquire) == 0) {
    }
    v.push_back(static_cast<double>(ran.load() - t0));
  }
  return median(v);
}

// --- async ----------------------------------------------------------------

double future_round_trip_ns(thread_manager& tm, report& out) {
  constexpr int k = 20'000;
  return median_of(k_repeats, [&] {
    double ns = 0.0;
    run_in_task(tm, [&] {
      std::uint64_t sum = 0;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < k; ++i)
        sum += gran::async_on(tm, gran::task_priority::normal,
                              [i] { return static_cast<std::uint64_t>(i); })
                   .get();
      ns = static_cast<double>(now_ns() - t0) / k;
      out.check(sum == static_cast<std::uint64_t>(k) * (k - 1) / 2,
                "async: future results differ");
    });
    return ns;
  });
}

// A chain of dataflow nodes, each consuming its predecessor's future.
double dataflow_node_ns(thread_manager& tm, report& out) {
  constexpr int k = 20'000;
  return median_of(k_repeats, [&] {
    double ns = 0.0;
    run_in_task(tm, [&] {
      const std::int64_t t0 = now_ns();
      auto f = gran::make_ready_future<std::uint64_t>(0);
      for (int i = 0; i < k; ++i)
        f = gran::dataflow_on(tm, gran::task_priority::normal,
                              [](gran::future<std::uint64_t> x) { return x.get() + 1; }, f);
      const std::uint64_t v = f.get();
      ns = static_cast<double>(now_ns() - t0) / k;
      out.check(v == static_cast<std::uint64_t>(k), "async: dataflow chain result differs");
    });
    return ns;
  });
}

}  // namespace

void layer_probes(const run_context& ctx, report& out) {
  const int N = ctx.workers;
  out.set("fiber.switch_pair_ns", fiber_switch_pair_ns(), "ns");
  out.set("fiber.stack_cycle_ns.w1", stack_cycle_ns(1), "ns");
  out.set("fiber.stack_cycle_ns.wN", stack_cycle_ns(N), "ns");

  const deque_probe d1 = deque_ops(0);
  const deque_probe dn = deque_ops(std::max(1, N - 1));
  out.set("queues.deque_op_ns.w1", d1.owner_op_ns, "ns");
  out.set("queues.deque_op_ns.wN", dn.owner_op_ns, "ns");
  out.set("queues.steal_op_ns.wN", dn.steal_op_ns, "ns");
  out.set("queues.mpmc_op_ns", mpmc_op_ns(std::max(1, N - 1), out), "ns");

  {
    thread_manager tm1(pool_config(1));
    out.set("threads.spawn_call_ns.w1", spawn_call_ns(tm1), "ns");
    out.set("threads.spawn_to_run_ns.w1", spawn_to_run_ns(tm1), "ns");
  }
  thread_manager tm(pool_config(N));
  out.set("threads.spawn_call_ns.wN", spawn_call_ns(tm), "ns");
  out.set("threads.spawn_to_run_ns.wN", spawn_to_run_ns(tm), "ns");
  out.set("threads.steal_latency_ns", N > 1 ? steal_latency_ns(tm) : 0.0, "ns");
  out.set("threads.wake_latency_ns", wake_latency_ns(tm), "ns");
  out.set("async.future_rt_ns", future_round_trip_ns(tm, out), "ns");
  out.set("async.dataflow_node_ns", dataflow_node_ns(tm, out), "ns");
}

}  // namespace perfbench
