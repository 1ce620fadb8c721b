// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload balanced|skewed --seed N --seconds S --trace 0|1
//             --record PATH [--spans PATH]
//
// Every run executes the three sections (stencil_sweep, lazy_loop,
// service_poisson) on the chosen input mix. Untraced, it reports the
// end-to-end metrics; traced, it runs the layer probes and traced passes of
// the sections and reports the per-layer metrics, and writes the spans to
// --spans. The run record (metrics, checks, resolved configuration) goes to
// --record as JSON; perfbench/run.py adds the host fingerprint and prints
// the result line. Exit status 1 means an output check failed.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "graph/kernels.hpp"
#include "stats.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int k_setup_repeats = 11;
constexpr int k_setup_gap_ms = 200;

// Shares of --seconds per part of a run.
constexpr double k_stencil_share = 0.5, k_lazy_share = 0.2, k_service_share = 0.3;
constexpr double k_traced_lazy_share = 0.3, k_traced_service_share = 0.4;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (c == '\n') {
      o += "\\n";
      continue;
    }
    o += c;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_record(const std::string& path, const run_context& ctx, const report& r,
                  const std::vector<span_summary>& table, std::uint64_t spans_total,
                  std::uint64_t spans_dropped) {
  std::ofstream o(path);
  o << "{\"workload\":\"" << (ctx.inputs == mix::skewed ? "skewed" : "balanced")
    << "\",\"seed\":" << ctx.seed << ",\"seconds\":" << num(ctx.seconds)
    << ",\"trace\":" << (ctx.trace ? 1 : 0) << ",\"workers\":" << ctx.workers
    << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"mismatches\":[";
  for (std::size_t i = 0; i < r.mismatches.size(); ++i)
    o << (i ? "," : "") << "\"" << json_escape(r.mismatches[i]) << "\"";
  o << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << num(m.value)
      << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  o << "},\"config\":{";
  for (std::size_t i = 0; i < r.details.size(); ++i)
    o << (i ? "," : "") << "\"" << r.details[i].first << "\":" << r.details[i].second;
  o << "}";
  if (ctx.trace) {
    o << ",\"spans\":{\"recorded\":" << spans_total << ",\"dropped\":" << spans_dropped
      << ",\"by_name\":[";
    for (std::size_t i = 0; i < table.size(); ++i)
      o << (i ? "," : "") << "{\"name\":\"" << table[i].name
        << "\",\"count\":" << table[i].count << ",\"total_ns\":" << num(table[i].total_ns)
        << ",\"self_ns\":" << num(table[i].self_ns) << "}";
    o << "]}";
  }
  o << "}\n";
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload balanced|skewed --seed N --seconds S "
               "--trace 0|1 --record PATH [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "GRAN_", 5) == 0)
      return usage("refusing to run with GRAN_* set in the environment; it would change "
                   "what is measured");

  run_context ctx;
  std::string workload, record, spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && ctx.seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      ctx.trace = val == "1";
    } else if (key == "--record") {
      record = val;
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (workload == "balanced") {
    ctx.inputs = mix::balanced;
  } else if (workload == "skewed") {
    ctx.inputs = mix::skewed;
  } else {
    return usage("--workload must be balanced or skewed");
  }
  if (!have_seed || !have_seconds || !have_trace || record.empty())
    return usage("--seed, --seconds, --trace and --record are required");
  ctx.workers = usable_cpus();

  // Per-process calibrations happen once, before anything is timed.
  (void)gran::tsc_clock::ns_per_tick();
  (void)gran::graph::calibrated_rates();

  report all;
  const double S = ctx.seconds;
  // Operations and failures per section, for the record.
  std::string checks;
  const auto section = [&](const char* name, auto&& run) {
    report r;
    try {
      run(r);
    } catch (const std::exception& e) {
      r.check(false, std::string(name) + ": " + e.what());
    }
    checks += std::string(checks.empty() ? "" : ",") + "\"" + name + "\":{\"attempted\":" +
              std::to_string(r.attempted) + ",\"failed\":" + std::to_string(r.failed) +
              ",\"peak_rss_mb_after\":" + num(peak_rss_mb()) + "}";
    all.merge(r);
  };
  if (!ctx.trace) {
    // Set-up passes are spaced out: on a shared virtual machine the CPU speed
    // shifts on a scale of a few hundred ms, and back-to-back passes would all
    // catch one phase.
    std::vector<double> setups;
    for (int i = 0; i < k_setup_repeats; ++i) {
      if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(k_setup_gap_ms));
      setups.push_back(setup_once(ctx, k_service_share * S));
    }
    all.set("setup_s", median(setups), "s");
    std::string samples;
    for (const double x : setups) {
      if (!samples.empty()) samples += ',';
      samples += num(x);
    }
    all.details.emplace_back("setup_s", "[" + samples + "]");
    section("stencil_sweep", [&](report& r) { stencil_section(ctx, k_stencil_share * S, r); });
    section("lazy_loop", [&](report& r) { lazy_section(ctx, k_lazy_share * S, r); });
    section("service_poisson",
            [&](report& r) { service_section(ctx, k_service_share * S, r); });
  } else {
    section("layer_probes", [&](report& r) { layer_probes(ctx, r); });
    section("stencil_sweep", [&](report& r) { stencil_section(ctx, S, r); });
    section("lazy_loop", [&](report& r) { lazy_section(ctx, k_traced_lazy_share * S, r); });
    section("service_poisson",
            [&](report& r) { service_section(ctx, k_traced_service_share * S, r); });
  }
  all.details.emplace_back("sections", "{" + checks + "}");
  if (!ctx.trace) all.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<span_summary> table;
  std::uint64_t dropped = 0, total = 0;
  if (ctx.trace) {
    const std::vector<span> spans_all = spans::archived(&dropped);
    total = spans_all.size() + dropped;
    table = spans::summary();
    if (!spans_path.empty() && !spans::write_tsv(spans_path, spans_all))
      std::cerr << "perfbench: could not write " << spans_path << "\n";
  }
  write_record(record, ctx, all, table, total, dropped);

  for (const std::string& m : all.mismatches) std::cerr << "MISMATCH: " << m << "\n";
  return all.mismatches.empty() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
