// Regenerates Table I: the specifications of the paper's four experimental
// platforms, plus the build host for reference. The four specs drive the
// simulator's machine models (src/sim/machine_model.cpp).
#include <iostream>

#include "perf/observability.hpp"
#include "topo/platform_spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gran;

namespace {

std::string cache_str(std::size_t kb) { return std::to_string(kb) + " KB"; }

void add_platform(table_writer& t, const platform_spec& p) {
  t.add_row({p.name, p.processor,
             format_number(p.clock_ghz, 1) + " GHz" +
                 (p.turbo_ghz > 0 ? " (" + format_number(p.turbo_ghz, 1) + " turbo)" : ""),
             p.microarch,
             p.hardware_threads > 1 ? std::to_string(p.hardware_threads) + "-way" : "off",
             std::to_string(p.cores), std::to_string(p.numa_domains),
             cache_str(p.l1d_kb) + " L1(D) / " + cache_str(p.l2_kb) + " L2",
             p.shared_cache_mb ? std::to_string(p.shared_cache_mb) + " MB" : "-",
             p.ram_gb ? std::to_string(p.ram_gb) + " GB" : "?"});
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args(argc, argv);
  perf::observability_session obs(args);

  table_writer table({"node", "processor", "clock", "microarchitecture", "SMT", "cores",
                      "NUMA", "cache/core", "shared cache", "RAM"});
  for (const auto& p : paper_platforms()) add_platform(table, p);
  add_platform(table, host_spec());

  std::cout << "Table I: Platform specifications (paper's four nodes + this host)\n";
  table.print(std::cout);

  const std::string csv = args.get("csv", "");
  if (!csv.empty() && table.save_csv(csv + "table1.csv"))
    std::cout << "(csv written to " << csv << "table1.csv)\n";
  return 0;
}
