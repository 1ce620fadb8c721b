// Open-loop load generator for the task-service ingress (src/service/) —
// the "millions of users" harness: client threads replay a deterministic
// arrival process (Poisson or bursty MMPP, service/arrival.hpp) against a
// live thread_manager + task_service, or the same stream through the
// discrete-event mirror (sim/service_sim.hpp), and report the service-level
// view: sustained throughput, achieved vs. offered load, rejection rate,
// and sojourn percentiles per (arrival-rate × grain × policy) cell.
//
// Open-loop matters: clients submit on the arrival clock whether or not the
// system keeps up, so saturation shows as growing sojourn/rejections rather
// than silently slowing the generator (closed-loop coordinated omission).
//
//   --mode=native|sim|both  execution target (default native)
//   --duration=S            arrival horizon, seconds (default 2)
//   --rate=R                mean arrivals/s (default 20000)
//   --arrival=poisson|mmpp  arrival process (default poisson)
//   --burst-factor=X --burst-fraction=F --burst-dwell-ms=D   MMPP shape
//   --grain=NS              fixed per-request demand, ns (default 20000)
//   --grain-min=NS --grain-max=NS   log-uniform grain mix instead
//   --clients=N             submitting client threads (default 2)
//   --service-policy=P --backlog=N --shards=N   twins of GRAN_SERVICE_POLICY,
//                           _BACKLOG and _SHARDS (README "Configuration")
//   --workers=N             native worker threads (default 4)
//   --cores=N               sim cores (default: --workers)
//   --platform=NAME         sim machine model (default haswell)
//   --seed=N                arrival-stream seed (default 1)
//   --sweep-grain=A,B,...   U-curve: run one cell per grain at fixed offered
//                           load --util=F (rate = F × workers / grain)
//
// Plus the knob table's flags (README "Configuration"): --policy picks the
// scheduler, and a service run with --metrics-out streams the
// interval.service section, which gran_top renders and --check validates.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/observability.hpp"
#include "service/arrival.hpp"
#include "service/service.hpp"
#include "sim/service_sim.hpp"
#include "threads/thread_manager.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

struct cell_config {
  bool native = true;
  service::arrival_config arrival;
  double duration_s = 2.0;
  service::service_config service;  // the table's GRAN_SERVICE_* values
  int clients = 2;
  int workers = 4;        // native
  int cores = 4;          // sim
  std::string platform = "haswell";
};

struct cell_result {
  std::uint64_t generated = 0, submitted = 0, accepted = 0, rejected = 0,
                shed = 0, completed = 0;
  std::int64_t backlog_peak = 0;
  double wall_s = 0;
  double offered_per_s = 0, achieved_per_s = 0;
  double rejection_rate = 0;
  double p50_ns = 0, p95_ns = 0, p99_ns = 0, mean_ns = 0;

  // The sojourn columns, from the cell's sojourn distribution.
  void set_sojourn(const perf::histogram_snapshot& h) {
    p50_ns = h.percentile(50);
    p95_ns = h.percentile(95);
    p99_ns = h.percentile(99);
    mean_ns = h.mean();
  }
};

// Burns ~ns of CPU (TSC-paced), the request body of every native cell.
void spin_for_ns(std::uint64_t ns) {
  const std::uint64_t start = tsc_clock::now();
  const auto target = static_cast<std::uint64_t>(
      static_cast<double>(ns) / tsc_clock::ns_per_tick());
  while (tsc_clock::now() - start < target) {
  }
}

// Sleeps coarsely, spins the last stretch: open-loop pacing accurate to a
// few microseconds without burning a core per client for the whole run.
void pace_until(std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    const auto gap = deadline - now;
    if (gap > std::chrono::microseconds(300))
      std::this_thread::sleep_for(gap - std::chrono::microseconds(200));
    else if (gap > std::chrono::microseconds(50))
      std::this_thread::yield();
    // else: spin
  }
}

cell_result run_native_cell(const cell_config& cfg) {
  const std::vector<service::arrival_event> arrivals =
      service::generate_arrivals(cfg.arrival, cfg.duration_s);

  scheduler_config scfg;
  scfg.num_workers = cfg.workers;
  scfg.pin_workers = false;
  thread_manager tm(scfg);

  service::task_service svc(tm, cfg.service);

  stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < arrivals.size();
           i += static_cast<std::size_t>(cfg.clients)) {
        const service::arrival_event& ev = arrivals[i];
        pace_until(start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(ev.t_s)));
        const std::uint64_t grain = ev.grain_ns;
        (void)svc.submit([grain] { spin_for_ns(grain); });
      }
    });
  }
  for (auto& t : clients) t.join();
  svc.quiesce();

  cell_result r;
  r.wall_s = wall.elapsed_s();
  const service::task_service::stats s = svc.snapshot();
  r.generated = arrivals.size();
  r.submitted = s.submitted;
  r.accepted = s.accepted;
  r.rejected = s.rejected;
  r.shed = s.shed;
  r.completed = s.completed;
  r.backlog_peak = s.backlog_peak;
  r.offered_per_s = cfg.duration_s > 0
                        ? static_cast<double>(r.generated) / cfg.duration_s
                        : 0;
  r.achieved_per_s = r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0;
  r.rejection_rate =
      s.submitted > 0 ? static_cast<double>(s.rejected) / static_cast<double>(s.submitted)
                      : 0;
  r.set_sojourn(svc.sojourn_snapshot());
  return r;
}

cell_result run_sim_cell(const cell_config& cfg) {
  sim::service_sim_config sc;
  sc.model = sim::make_machine_model(cfg.platform);
  sc.cores = cfg.cores;
  sc.arrival = cfg.arrival;
  sc.duration_s = cfg.duration_s;
  sc.policy = cfg.service.policy;
  sc.backlog_bound = cfg.service.backlog_bound;
  const sim::service_sim_result res = sim::run_service_sim(sc);

  cell_result r;
  r.generated = res.generated;
  r.submitted = res.generated;
  r.accepted = res.accepted;
  r.rejected = res.rejected;
  r.shed = res.shed;
  r.completed = res.completed;
  r.backlog_peak = res.backlog_peak;
  r.wall_s = res.makespan_s;
  r.offered_per_s = res.offered_per_s;
  r.achieved_per_s = res.achieved_per_s;
  r.rejection_rate =
      res.generated > 0
          ? static_cast<double>(res.rejected) / static_cast<double>(res.generated)
          : 0;
  r.set_sojourn(res.sojourn);
  return r;
}

void print_cell(const char* mode, const cell_config& cfg, const cell_result& r) {
  std::ostringstream grain;
  if (cfg.arrival.grain_max_ns > cfg.arrival.grain_min_ns)
    grain << format_duration_ns(cfg.arrival.grain_min_ns) << ".."
          << format_duration_ns(cfg.arrival.grain_max_ns);
  else
    grain << format_duration_ns(cfg.arrival.grain_min_ns);
  std::cout << "[" << mode << "] " << service::to_string(cfg.arrival.kind)
            << " rate=" << format_number(cfg.arrival.rate_per_s, 0)
            << "/s grain=" << grain.str()
            << " policy=" << service::to_string(cfg.service.policy)
            << ": offered=" << format_number(r.offered_per_s, 0)
            << "/s achieved=" << format_number(r.achieved_per_s, 0)
            << "/s rej=" << format_number(r.rejection_rate * 100.0, 2)
            << "% shed=" << r.shed << " backlog_peak=" << r.backlog_peak
            << " sojourn p50/p95/p99 = " << format_duration_ns(r.p50_ns) << "/"
            << format_duration_ns(r.p95_ns) << "/" << format_duration_ns(r.p99_ns)
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  perf::observability_session obs(args);

  cell_config cfg;
  cfg.duration_s = args.get_double("duration", 2.0);
  cfg.arrival.rate_per_s = args.get_double("rate", 20'000);
  cfg.arrival.kind = args.get("arrival", "poisson") == "mmpp"
                         ? service::arrival_kind::mmpp
                         : service::arrival_kind::poisson;
  cfg.arrival.burst_factor = args.get_double("burst-factor", 8.0);
  cfg.arrival.burst_fraction = args.get_double("burst-fraction", 0.1);
  cfg.arrival.burst_dwell_s = args.get_double("burst-dwell-ms", 10.0) * 1e-3;
  const double grain = args.get_double("grain", 20'000);
  cfg.arrival.grain_min_ns = args.get_double("grain-min", grain);
  cfg.arrival.grain_max_ns = args.get_double("grain-max", cfg.arrival.grain_min_ns);
  cfg.arrival.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.clients = static_cast<int>(args.get_int("clients", 2));
  cfg.workers = static_cast<int>(args.get_int("workers", 4));
  cfg.cores = static_cast<int>(args.get_int("cores", cfg.workers));
  cfg.platform = args.get_named("platform", "haswell", [](const std::string& name) {
    sim::make_machine_model(name);  // throws on an unknown name
    return name;
  });

  const std::string mode = args.get_choice("mode", "native", {"native", "sim", "both"});
  const bool run_native = mode == "native" || mode == "both";
  const bool run_sim = mode == "sim" || mode == "both";

  const std::vector<std::int64_t> sweep = args.get_int_list("sweep-grain", {});
  if (!sweep.empty()) {
    // U-curve: sojourn vs. grain at fixed offered load. util is the offered
    // fraction of ideal capacity: rate × grain = util × executors.
    const double util = args.get_double("util", 0.5);
    std::cout << "service_load grain sweep: util=" << format_number(util, 2)
              << " duration=" << format_number(cfg.duration_s, 1) << "s policy="
              << service::to_string(cfg.service.policy) << "\n";
    for (const std::int64_t g : sweep) {
      cell_config c = cfg;
      c.arrival.grain_min_ns = static_cast<double>(g);
      c.arrival.grain_max_ns = static_cast<double>(g);
      if (run_native) {
        c.arrival.rate_per_s =
            util * static_cast<double>(cfg.workers) * 1e9 / static_cast<double>(g);
        print_cell("native", c, run_native_cell(c));
      }
      if (run_sim) {
        c.arrival.rate_per_s =
            util * static_cast<double>(cfg.cores) * 1e9 / static_cast<double>(g);
        print_cell("sim", c, run_sim_cell(c));
      }
    }
  } else {
    if (run_native) print_cell("native", cfg, run_native_cell(cfg));
    if (run_sim) print_cell("sim", cfg, run_sim_cell(cfg));
  }

  return 0;
}
