// Tests for the task-service ingress (service/service.hpp): exactly-once
// delivery under concurrent multi-client submission, the three admission
// policies' semantics (block unblocks on drain, reject returns an error and
// keeps the backlog bounded, shed-oldest drops oldest-first and preserves
// FIFO among survivors), sojourn-histogram accounting against wall-clock,
// and the native-vs-sim accepted-count identity (sim/service_sim.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "perf/window.hpp"
#include "service/arrival.hpp"
#include "service/service.hpp"
#include "sim/machine_model.hpp"
#include "sim/service_sim.hpp"
#include "threads/thread_manager.hpp"
#include "util/timer.hpp"

namespace gran {
namespace {

scheduler_config workers_cfg(int n) {
  scheduler_config cfg;
  cfg.num_workers = n;
  cfg.pin_workers = false;
  return cfg;
}

TEST(ServiceExactlyOnce, MultiClientConcurrentSubmit) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 2'000;
  constexpr int kTotal = kClients * kPerClient;

  thread_manager tm(workers_cfg(4));
  service::service_config cfg;
  cfg.shards = 3;  // fewer shards than clients: rings see real MPSC traffic
  cfg.shard_capacity = 256;
  service::task_service svc(tm, cfg);

  std::vector<std::atomic<std::uint8_t>> hits(kTotal);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int slot = c * kPerClient + i;
        const service::submit_status st =
            svc.submit([&hits, slot] { hits[slot].fetch_add(1, std::memory_order_relaxed); });
        ASSERT_EQ(st, service::submit_status::accepted);
      }
    });
  }
  for (auto& t : clients) t.join();
  svc.quiesce();

  const service::task_service::stats s = svc.snapshot();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(svc.backlog(), 0);
  for (int i = 0; i < kTotal; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "slot " << i;
}

TEST(ServiceBackpressure, BlockUnblocksOnDrain) {
  constexpr std::int64_t kBound = 4;

  thread_manager tm(workers_cfg(2));
  service::service_config cfg;
  cfg.shards = 1;
  cfg.backlog_bound = kBound;
  cfg.policy = service::admission_policy::block;
  service::task_service svc(tm, cfg);

  std::atomic<bool> release{false};
  const auto gated = [&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  };

  // Fill the admission window: these are accepted immediately.
  for (std::int64_t i = 0; i < kBound; ++i)
    ASSERT_EQ(svc.submit(gated), service::submit_status::accepted);
  EXPECT_EQ(svc.backlog(), kBound);

  // The next submit must block until completions make room.
  std::atomic<bool> returned{false};
  std::atomic<int> status{-1};
  std::thread blocked([&] {
    const service::submit_status st = svc.submit(gated);
    status.store(static_cast<int>(st), std::memory_order_relaxed);
    returned.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load(std::memory_order_acquire))
      << "submit returned while backlog was at the bound";
  EXPECT_EQ(svc.snapshot().accepted, static_cast<std::uint64_t>(kBound));

  release.store(true, std::memory_order_release);
  blocked.join();
  EXPECT_EQ(status.load(std::memory_order_relaxed),
            static_cast<int>(service::submit_status::accepted));
  svc.quiesce();

  const service::task_service::stats s = svc.snapshot();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kBound + 1));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kBound + 1));
  EXPECT_EQ(s.rejected, 0u);
}

TEST(ServiceBackpressure, RejectReturnsErrorAndBoundsBacklog) {
  constexpr std::int64_t kBound = 8;
  constexpr int kSubmits = 100;

  thread_manager tm(workers_cfg(2));
  service::service_config cfg;
  cfg.shards = 1;
  cfg.backlog_bound = kBound;
  cfg.policy = service::admission_policy::reject;
  service::task_service svc(tm, cfg);

  std::atomic<bool> release{false};
  int accepted = 0, rejected = 0;
  for (int i = 0; i < kSubmits; ++i) {
    const service::submit_status st = svc.submit([&release] {
      while (!release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    if (st == service::submit_status::accepted)
      ++accepted;
    else if (st == service::submit_status::rejected)
      ++rejected;
  }

  // Nothing completes while the gate is closed, so admission stops exactly
  // at the bound and every further submit is refused.
  EXPECT_EQ(accepted, kBound);
  EXPECT_EQ(rejected, kSubmits - kBound);
  EXPECT_LE(svc.backlog(), kBound);

  // The bound is visible from a window snapshot (the acceptance criterion:
  // backlog never exceeds the configured bound under reject).
  perf::window_options wopt;
  wopt.prefixes = {"/service"};
  perf::window_aggregator win(wopt);
  const perf::window_snapshot snap = win.tick();
  const double backlog_gauge = snap.value_or("/service/backlog", -1.0);
  EXPECT_GE(backlog_gauge, 0.0);
  EXPECT_LE(backlog_gauge, static_cast<double>(kBound));

  // The drops also surface on the thread_manager's external lane counter.
  EXPECT_EQ(tm.external_rejected(), static_cast<std::uint64_t>(rejected));

  release.store(true, std::memory_order_release);
  svc.quiesce();
  const service::task_service::stats s = svc.snapshot();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(s.rejected, static_cast<std::uint64_t>(rejected));
}

TEST(ServiceBackpressure, ShedOldestDropsOldestKeepsFifo) {
  constexpr std::int64_t kBound = 6;
  constexpr int kExtra = 12;  // submissions after the worker is pinned

  thread_manager tm(workers_cfg(1));  // one worker: deterministic ring state
  service::service_config cfg;
  cfg.shards = 1;
  cfg.shard_capacity = 64;
  cfg.backlog_bound = kBound;
  cfg.policy = service::admission_policy::shed_oldest;
  service::task_service svc(tm, cfg);

  // Pin the only worker inside a request body so every later request stays
  // queued in the shard ring, where shed_oldest can see it.
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
  ASSERT_EQ(svc.submit([&] {
              running.store(true, std::memory_order_release);
              while (!release.load(std::memory_order_acquire)) {
              }
            }),
            service::submit_status::accepted);
  while (!running.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::microseconds(50));

  // Backlog is now 1 (the pinned request). Submissions 1..5 fill the window
  // to the bound; each of 6..12 sheds the then-oldest queued request.
  std::mutex order_mutex;
  std::vector<int> order;
  for (int seq = 1; seq <= kExtra; ++seq) {
    ASSERT_EQ(svc.submit([&order_mutex, &order, seq] {
                std::lock_guard<std::mutex> lk(order_mutex);
                order.push_back(seq);
              }),
              service::submit_status::accepted);
  }
  const service::task_service::stats mid = svc.snapshot();
  EXPECT_EQ(mid.shed, static_cast<std::uint64_t>(kExtra - (kBound - 1)));
  EXPECT_LE(mid.backlog, kBound);

  release.store(true, std::memory_order_release);
  svc.quiesce();

  // Survivors are exactly the freshest bound−1 submissions, and the single
  // worker ran them in submission order (per-worker queues are FIFO).
  std::vector<int> expected;
  for (int seq = kExtra - (kBound - 1) + 1; seq <= kExtra; ++seq)
    expected.push_back(seq);
  EXPECT_EQ(order, expected);

  const service::task_service::stats s = svc.snapshot();
  EXPECT_EQ(s.completed, s.accepted - s.shed);
  EXPECT_EQ(svc.backlog(), 0);
}

TEST(ServiceSojourn, HistogramMatchesWallClock) {
  constexpr int kRequests = 400;
  constexpr std::uint64_t kSpinNs = 20'000;

  thread_manager tm(workers_cfg(4));
  service::task_service svc(tm);

  // Client-side measurement of the same interval the histogram records:
  // stamp right before submit, and in the body right before it returns.
  std::vector<std::uint64_t> start_ticks(kRequests);
  std::vector<std::uint64_t> end_ticks(kRequests);
  const auto spin_target =
      static_cast<std::uint64_t>(static_cast<double>(kSpinNs) / tsc_clock::ns_per_tick());
  for (int i = 0; i < kRequests; ++i) {
    start_ticks[i] = tsc_clock::now();
    ASSERT_EQ(svc.submit([&end_ticks, i, spin_target] {
                const std::uint64_t t0 = tsc_clock::now();
                while (tsc_clock::now() - t0 < spin_target) {
                }
                end_ticks[i] = tsc_clock::now();
              }),
              service::submit_status::accepted);
  }
  svc.quiesce();

  double wall_sum_ns = 0;
  for (int i = 0; i < kRequests; ++i)
    wall_sum_ns += tsc_clock::to_ns(end_ticks[i] - start_ticks[i]);

  const perf::histogram_snapshot h = svc.sojourn_snapshot();
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kRequests));
  ASSERT_GT(wall_sum_ns, 0.0);
  const double rel_err =
      std::abs(static_cast<double>(h.sum) - wall_sum_ns) / wall_sum_ns;
  EXPECT_LE(rel_err, 0.05) << "histogram sum " << h.sum << " ns vs wall-clock "
                           << wall_sum_ns << " ns";

  // Queue-wait (submit → first run) is a sub-interval of sojourn.
  const perf::histogram_snapshot qw = svc.queue_wait_snapshot();
  EXPECT_EQ(qw.count, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(qw.sum, h.sum);
}

TEST(ServiceSim, NativeAndSimAgreeOnAcceptedCount) {
  service::arrival_config arrival;
  arrival.kind = service::arrival_kind::mmpp;  // bursty: the harder case
  arrival.rate_per_s = 20'000;
  arrival.grain_min_ns = 3'000;
  arrival.grain_max_ns = 3'000;
  arrival.seed = 7;
  const double duration_s = 0.2;

  const std::vector<service::arrival_event> events =
      service::generate_arrivals(arrival, duration_s);
  ASSERT_GT(events.size(), 0u);

  // Native, block policy: every generated request is eventually admitted.
  thread_manager tm(workers_cfg(2));
  service::service_config cfg;
  cfg.policy = service::admission_policy::block;
  cfg.backlog_bound = 256;
  service::task_service svc(tm, cfg);
  for (const service::arrival_event& ev : events) {
    const std::uint64_t grain = ev.grain_ns;
    ASSERT_EQ(svc.submit([grain] {
                const auto target = static_cast<std::uint64_t>(
                    static_cast<double>(grain) / tsc_clock::ns_per_tick());
                const std::uint64_t t0 = tsc_clock::now();
                while (tsc_clock::now() - t0 < target) {
                }
              }),
              service::submit_status::accepted);
  }
  svc.quiesce();
  const service::task_service::stats native = svc.snapshot();

  // Sim, same arrival process and policy.
  sim::service_sim_config sc;
  sc.model = sim::haswell_model();
  sc.cores = 2;
  sc.arrival = arrival;
  sc.duration_s = duration_s;
  sc.policy = service::admission_policy::block;
  sc.backlog_bound = 256;
  const sim::service_sim_result sim_res = sim::run_service_sim(sc);

  EXPECT_EQ(sim_res.generated, events.size());
  EXPECT_EQ(native.accepted, events.size());
  EXPECT_EQ(sim_res.accepted, native.accepted);
  EXPECT_EQ(sim_res.completed, sim_res.accepted);
  EXPECT_EQ(native.completed, native.accepted);
  EXPECT_EQ(sim_res.rejected, 0u);
  EXPECT_GT(sim_res.sojourn.percentile(50), 0.0);
}

TEST(ServiceConfig, PolicyParsingRoundTrips) {
  using service::admission_policy;
  using service::policy_from_string;
  EXPECT_EQ(policy_from_string("block"), admission_policy::block);
  EXPECT_EQ(policy_from_string("reject"), admission_policy::reject);
  EXPECT_EQ(policy_from_string("shed-oldest"), admission_policy::shed_oldest);
  EXPECT_EQ(policy_from_string("shed_oldest"), admission_policy::shed_oldest);
  EXPECT_EQ(policy_from_string("shed"), admission_policy::shed_oldest);
  EXPECT_EQ(policy_from_string("nonsense", admission_policy::reject),
            admission_policy::reject);
  EXPECT_STREQ(service::to_string(admission_policy::block), "block");
  EXPECT_STREQ(service::to_string(admission_policy::reject), "reject");
  EXPECT_STREQ(service::to_string(admission_policy::shed_oldest), "shed-oldest");
}

}  // namespace
}  // namespace gran
