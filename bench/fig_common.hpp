// Shared scaffolding for the figure benches.
//
// Every figure bench accepts:
//   --mode=sim|native       sim (default): modeled platform of the figure;
//                           native: the real runtime on this host
//   --platform=<name>       override the modeled platform
//   --cores=a,b,c           override the figure's core counts
//   --points=N --steps=N    workload size (defaults are the paper's figures
//                           scaled to finish in seconds; --full restores the
//                           paper's 100 M points)
//   --samples=N             repetitions per point (paper: 10; default lower)
//   --min-partition / --max-partition / --per-decade   the granularity axis
//   --full                  paper-scale workload (100 M points)
//   --csv=PREFIX            also write PREFIX<tag>.csv per series
//   --quiet                 suppress progress lines
//
// plus the knob table's flags (README "Configuration"): --policy for native
// runs and the observability flags (--trace-out, --metrics-out, ...).
// main() opens a perf::observability_session(args) before anything else.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/selectors.hpp"
#include "perf/observability.hpp"
#include "sim/sim_backend.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace gran::bench {

struct fig_options {
  std::string mode = "sim";
  std::string platform;                 // figure default
  std::vector<std::int64_t> cores;      // figure default
  std::size_t points = 0;               // 0 = figure default
  std::size_t steps = 0;
  int samples = 0;
  std::size_t min_partition = 0;
  std::size_t max_partition = 0;
  int per_decade = 0;
  bool full = false;
  bool quiet = false;
  std::string csv_prefix;
  bool select = false;                  // run the §IV selector claims
};

inline fig_options parse_fig_options(const cli_args& args) {
  fig_options opt;
  opt.mode = args.get_choice("mode", "sim", {"sim", "native"});
  opt.platform = args.get_named("platform", "", [](const std::string& name) {
    if (!name.empty()) sim::make_machine_model(name);  // throws on an unknown name
    return name;
  });
  opt.cores = args.get_int_list("cores", {});
  opt.points = static_cast<std::size_t>(args.get_int("points", 0));
  opt.steps = static_cast<std::size_t>(args.get_int("steps", 0));
  opt.samples = static_cast<int>(args.get_int("samples", 0));
  opt.min_partition = static_cast<std::size_t>(args.get_int("min-partition", 0));
  opt.max_partition = static_cast<std::size_t>(args.get_int("max-partition", 0));
  opt.per_decade = static_cast<int>(args.get_int("per-decade", 0));
  opt.full = args.get_bool("full", false);
  opt.quiet = args.get_bool("quiet", false);
  opt.csv_prefix = args.get("csv", "");
  opt.select = args.has("select");
  return opt;
}

// Resolved experiment plan for one figure.
struct fig_plan {
  std::unique_ptr<core::backend> backend;
  std::vector<int> cores;
  stencil::params base;
  std::vector<double> partitions;
  int samples = 1;
  std::string platform_label;
};

// Builds the plan from figure defaults + CLI overrides. `default_platform`
// is the paper's platform for the figure; `default_cores` its subplot core
// counts; `default_steps` 50 (Haswell figures) or 5 (Xeon Phi figures).
inline fig_plan make_plan(const fig_options& opt, const std::string& default_platform,
                          std::vector<int> default_cores, std::size_t default_steps,
                          std::size_t default_points = 10'000'000) {
  fig_plan plan;
  const std::string platform =
      opt.platform.empty() ? default_platform : opt.platform;
  plan.platform_label = platform;

  if (!opt.cores.empty()) {
    for (const auto c : opt.cores) plan.cores.push_back(static_cast<int>(c));
  } else {
    plan.cores = std::move(default_cores);
  }

  // Native mode runs real work on this host: default to a smaller grid so a
  // full sweep stays in the minutes range even on small machines.
  if (opt.mode == "native" && !opt.full && opt.points == 0)
    default_points = 1'000'000;
  plan.base.total_points = opt.full ? 100'000'000 : (opt.points ? opt.points : default_points);
  plan.base.time_steps = opt.steps ? opt.steps : default_steps;

  const std::size_t lo = opt.min_partition ? opt.min_partition : 160;
  const std::size_t hi =
      opt.max_partition ? opt.max_partition : plan.base.total_points;
  plan.partitions = core::granularity_sweep(lo, hi, opt.per_decade ? opt.per_decade : 3);

  plan.samples = opt.samples ? opt.samples : (opt.mode == "native" ? 3 : 1);

  if (opt.mode == "native") {
    plan.backend = std::make_unique<core::native_backend>(plan.base);
    plan.platform_label = "native-host";
  } else {
    plan.backend = std::make_unique<sim::sim_backend>(platform, plan.base);
  }
  return plan;
}

// Runs the sweep at every core count of the plan; the 1-core baselines are
// measured once and reused.
inline std::vector<std::vector<core::sweep_point>> run_series(const fig_plan& plan,
                                                              bool quiet) {
  core::granularity_experiment exp(*plan.backend, {plan.partitions, plan.samples});
  std::vector<std::vector<core::sweep_point>> series;
  for (const int cores : plan.cores)
    series.push_back(exp.run(cores, [&](const core::sweep_point& p) {
      if (!quiet)
        std::fprintf(stderr, "  [%s %2d cores] partition %-10.0f exec %.4f s\n",
                     plan.platform_label.c_str(), cores, p.x, p.exec_time_s.mean());
    }));
  return series;
}

inline void emit_table(table_writer& table, const std::string& title,
                       const std::string& csv_prefix, const std::string& csv_tag) {
  std::cout << "\n" << title << "\n";
  table.print(std::cout);
  if (!csv_prefix.empty()) {
    const std::string path = csv_prefix + csv_tag + ".csv";
    if (table.save_csv(path)) std::cout << "(csv written to " << path << ")\n";
  }
}

// Declarative column for the per-core-count metric figures (4/5, 7/8, 9/10):
// one table per core count, one row per partition size.
struct metric_column {
  std::string title;
  double (*extract)(const core::sweep_point&);
  int precision = 4;
};

// Prints one table per core count and returns the series for selector
// checks.
inline std::vector<std::vector<core::sweep_point>> run_metric_figure(
    const fig_options& opt, const std::string& figure_name,
    const std::string& default_platform, std::vector<int> default_cores,
    std::size_t default_steps, const std::vector<metric_column>& columns) {
  const fig_plan plan = make_plan(opt, default_platform, std::move(default_cores),
                                  default_steps);
  auto series = run_series(plan, opt.quiet);
  for (std::size_t s = 0; s < series.size(); ++s) {
    const std::string cores = std::to_string(plan.cores[s]);
    std::vector<std::string> header{"partition", "tasks"};
    for (const auto& col : columns) header.push_back(col.title);
    table_writer table(std::move(header));
    for (const auto& p : series[s]) {
      std::vector<std::string> row{
          format_count(static_cast<std::int64_t>(p.x)),
          format_count(static_cast<std::int64_t>(p.num_tasks))};
      for (const auto& col : columns)
        row.push_back(format_number(col.extract(p), col.precision));
      table.add_row(std::move(row));
    }
    emit_table(table,
               figure_name + " (" + plan.platform_label + ", " + cores + " cores)",
               opt.csv_prefix, figure_name + "_" + plan.platform_label + "_" + cores + "c");
  }
  return series;
}

}  // namespace gran::bench
