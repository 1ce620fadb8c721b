// Unit tests for src/topo: topology discovery/synthesis, fake-sysfs
// discovery, the pin plan, affinity, the Table-I platform specifications,
// and the victim route.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "topo/affinity.hpp"
#include "topo/pin_plan.hpp"
#include "topo/platform_spec.hpp"
#include "topo/steal_route.hpp"
#include "topo/topology.hpp"

namespace gran {
namespace {

namespace fs = std::filesystem;

// A throwaway sysfs cpu tree for topology::discover tests.
class fake_sysfs {
 public:
  fake_sysfs() {
    static std::atomic<int> counter{0};
    root_ = fs::temp_directory_path() /
            ("gran_topo_test_" + std::to_string(counter.fetch_add(1)) + "_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(root_);
  }
  ~fake_sysfs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << content << "\n";
  }

  // Creates cpuN with the given physical identity and NUMA node link.
  void add_cpu(int cpu, int core, int pkg, int node) {
    const std::string base = "cpu" + std::to_string(cpu);
    write(base + "/topology/core_id", std::to_string(core));
    write(base + "/topology/physical_package_id", std::to_string(pkg));
    write(base + "/node" + std::to_string(node) + "/cpulist", "");
  }

  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST(Topology, HostIsSane) {
  const topology& t = topology::host();
  EXPECT_GE(t.num_cpus(), 1);
  EXPECT_GE(t.num_numa_nodes(), 1);
  EXPECT_EQ(static_cast<int>(t.cpus().size()), t.num_cpus());
  for (const auto& c : t.cpus()) {
    EXPECT_GE(c.numa_node, 0);
    EXPECT_LT(c.numa_node, t.num_numa_nodes());
  }
}

TEST(Topology, SyntheticEvenSplit) {
  const topology t = topology::synthetic(8, 2);
  EXPECT_EQ(t.num_cpus(), 8);
  EXPECT_EQ(t.num_numa_nodes(), 2);
  EXPECT_EQ(t.cpus_of_node(0).size(), 4u);
  EXPECT_EQ(t.cpus_of_node(1).size(), 4u);
  EXPECT_EQ(t.numa_node_of(0), 0);
  EXPECT_EQ(t.numa_node_of(7), 1);
}

TEST(Topology, SyntheticUnevenSplit) {
  const topology t = topology::synthetic(7, 2);
  EXPECT_EQ(t.num_cpus(), 7);
  int total = 0;
  for (int n = 0; n < t.num_numa_nodes(); ++n)
    total += static_cast<int>(t.cpus_of_node(n).size());
  EXPECT_EQ(total, 7);
}

TEST(Topology, SyntheticSingleNode) {
  const topology t = topology::synthetic(4, 1);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(t.numa_node_of(c), 0);
}

TEST(Topology, FromParts) {
  std::vector<cpu_info> cpus(2);
  cpus[0] = {.os_index = 0, .numa_node = 0, .core_id = 0, .package_id = 0};
  cpus[1] = {.os_index = 1, .numa_node = 1, .core_id = 0, .package_id = 1};
  std::vector<cache_info> caches{{.level = 1, .type = "Data", .size_bytes = 32768,
                                  .shared = false}};
  const topology t = topology::from_parts(cpus, caches, 2);
  EXPECT_EQ(t.num_cpus(), 2);
  EXPECT_EQ(t.num_numa_nodes(), 2);
  ASSERT_EQ(t.caches().size(), 1u);
  EXPECT_EQ(t.caches()[0].size_bytes, 32768u);
  EXPECT_EQ(t.cpus_of_node(1), std::vector<int>{1});
}

TEST(Topology, ParseCpulist) {
  EXPECT_EQ(parse_cpulist("0-3,8-11,16"),
            (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11, 16}));
  EXPECT_EQ(parse_cpulist("5"), std::vector<int>{5});
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_EQ(parse_cpulist("2,1,1"), (std::vector<int>{1, 2}));  // sorted, deduped
  EXPECT_EQ(parse_cpulist("a-b,3"), std::vector<int>{3});       // malformed skipped
}

TEST(Topology, DiscoverNonContiguousWithOfflineCpus) {
  // 6-CPU machine, CPUs 2-3 offline: the online cpulist is authoritative,
  // so discovery must skip them even though their sysfs dirs exist.
  fake_sysfs tree;
  tree.write("online", "0-1,4-5");
  tree.add_cpu(0, 0, 0, 0);
  tree.add_cpu(1, 0, 0, 0);  // SMT sibling of cpu0
  tree.add_cpu(2, 7, 0, 0);  // offline
  tree.add_cpu(3, 7, 0, 0);  // offline
  tree.add_cpu(4, 1, 0, 1);
  tree.add_cpu(5, 1, 0, 1);  // SMT sibling of cpu4

  const topology t = topology::discover(tree.path());
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.num_numa_nodes(), 2);
  EXPECT_EQ(t.find_cpu(2), nullptr);
  EXPECT_EQ(t.find_cpu(3), nullptr);
  ASSERT_NE(t.find_cpu(4), nullptr);
  EXPECT_EQ(t.numa_node_of(4), 1);
  EXPECT_EQ(t.smt_siblings_of(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(t.smt_siblings_of(5), (std::vector<int>{4, 5}));
  EXPECT_EQ(t.num_physical_cores(), 2);
  EXPECT_EQ(t.cpus_of_node(1), (std::vector<int>{4, 5}));
}

TEST(Topology, DiscoverSmtInterleavedNumbering) {
  // Sibling numbering interleaved the way many servers do it: cpus 0..3 are
  // the first hyperthread of cores 0..3, cpus 4..7 the second.
  fake_sysfs tree;
  tree.write("online", "0-7");
  for (int c = 0; c < 8; ++c) tree.add_cpu(c, c % 4, 0, 0);

  const topology t = topology::discover(tree.path());
  EXPECT_EQ(t.num_cpus(), 8);
  EXPECT_EQ(t.num_physical_cores(), 4);
  EXPECT_EQ(t.smt_siblings_of(0), (std::vector<int>{0, 4}));
  EXPECT_EQ(t.smt_siblings_of(7), (std::vector<int>{3, 7}));
}

TEST(Topology, DiscoverWithoutOnlineFallsBackToDense) {
  fake_sysfs tree;  // no `online` file at all
  const topology t = topology::discover(tree.path());
  EXPECT_GE(t.num_cpus(), 1);
  for (int i = 0; i < t.num_cpus(); ++i)
    EXPECT_EQ(t.cpus()[static_cast<std::size_t>(i)].os_index, i);
}

// --- pin plan ---------------------------------------------------------------

// 2 cores x 2 SMT with *adjacent* sibling numbering: cpus (0,1) share core
// 0, cpus (2,3) share core 1 — the layout where the old `w % num_cpus`
// pinning packed two workers onto core 0 while core 1 sat empty.
topology adjacent_smt_topo() {
  std::vector<cpu_info> cpus(4);
  cpus[0] = {.os_index = 0, .numa_node = 0, .core_id = 0, .package_id = 0};
  cpus[1] = {.os_index = 1, .numa_node = 0, .core_id = 0, .package_id = 0};
  cpus[2] = {.os_index = 2, .numa_node = 0, .core_id = 1, .package_id = 0};
  cpus[3] = {.os_index = 3, .numa_node = 0, .core_id = 1, .package_id = 0};
  return topology::from_parts(cpus, {}, 1);
}

// Two NUMA nodes, two single-thread cores each.
topology two_node_topo() {
  std::vector<cpu_info> cpus(4);
  cpus[0] = {.os_index = 0, .numa_node = 0, .core_id = 0, .package_id = 0};
  cpus[1] = {.os_index = 1, .numa_node = 0, .core_id = 1, .package_id = 0};
  cpus[2] = {.os_index = 2, .numa_node = 1, .core_id = 0, .package_id = 1};
  cpus[3] = {.os_index = 3, .numa_node = 1, .core_id = 1, .package_id = 1};
  return topology::from_parts(cpus, {}, 2);
}

TEST(PinPlan, CompactFillsPhysicalCoresFirst) {
  const topology t = adjacent_smt_topo();
  const pin_plan plan = pin_plan::build(t, {}, 4, pin_mode::compact);
  ASSERT_EQ(plan.workers.size(), 4u);
  // One worker per physical core before any SMT sibling: 0, 2, then 1, 3.
  EXPECT_EQ(plan.workers[0].cpu, 0);
  EXPECT_EQ(plan.workers[1].cpu, 2);
  EXPECT_EQ(plan.workers[2].cpu, 1);
  EXPECT_EQ(plan.workers[3].cpu, 3);
  EXPECT_EQ(plan.num_cores, 2);
  // Workers 0/2 share a core (SMT siblings), as do 1/3.
  EXPECT_EQ(plan.workers[0].core, plan.workers[2].core);
  EXPECT_EQ(plan.workers[1].core, plan.workers[3].core);
  EXPECT_NE(plan.workers[0].core, plan.workers[1].core);
}

TEST(PinPlan, CompactTwoWorkersAvoidSmtSharing) {
  const topology t = adjacent_smt_topo();
  const pin_plan plan = pin_plan::build(t, {}, 2, pin_mode::compact);
  EXPECT_EQ(plan.workers[0].cpu, 0);
  EXPECT_EQ(plan.workers[1].cpu, 2);  // not 1, cpu0's hyperthread
  EXPECT_NE(plan.workers[0].core, plan.workers[1].core);
}

TEST(PinPlan, ScatterAlternatesDomains) {
  const topology t = two_node_topo();
  const pin_plan plan = pin_plan::build(t, {}, 4, pin_mode::scatter);
  EXPECT_EQ(plan.num_domains, 2);
  EXPECT_EQ(plan.workers[0].domain, 0);
  EXPECT_EQ(plan.workers[1].domain, 1);
  EXPECT_EQ(plan.workers[2].domain, 0);
  EXPECT_EQ(plan.workers[3].domain, 1);
}

TEST(PinPlan, CompactFillsDomainBeforeNext) {
  const topology t = two_node_topo();
  const pin_plan plan = pin_plan::build(t, {}, 4, pin_mode::compact);
  EXPECT_EQ(plan.workers[0].domain, 0);
  EXPECT_EQ(plan.workers[1].domain, 0);
  EXPECT_EQ(plan.workers[2].domain, 1);
  EXPECT_EQ(plan.workers[3].domain, 1);
}

TEST(PinPlan, RestrictedAffinityMaskNeverPinsOutside) {
  const topology t = two_node_topo();
  // Container cpuset grants only CPUs 1 and 3 — the old `w % num_cpus`
  // would have pinned worker 0 to the forbidden CPU 0.
  const pin_plan plan = pin_plan::build(t, {1, 3}, 2, pin_mode::compact);
  for (const auto& w : plan.workers) {
    EXPECT_TRUE(w.cpu == 1 || w.cpu == 3) << "pinned outside the mask: " << w.cpu;
  }
  EXPECT_TRUE(plan.pinned());
}

TEST(PinPlan, OversubscriptionLeavesAllUnpinned) {
  const topology t = two_node_topo();
  // More workers than the host's CPUs, and more than a restricted cpuset
  // allows although the host has enough.
  const struct {
    std::vector<int> allowed;
    int workers;
  } cases[] = {{{}, 8}, {{1, 3}, 3}};
  for (const auto& c : cases) {
    const pin_plan plan = pin_plan::build(t, c.allowed, c.workers, pin_mode::compact);
    ASSERT_EQ(plan.workers.size(), static_cast<std::size_t>(c.workers));
    for (const auto& w : plan.workers) EXPECT_EQ(w.cpu, -1);
    EXPECT_FALSE(plan.pinned());
    // Domains still spread evenly for the policies' locality tiers.
    EXPECT_EQ(plan.num_domains, 2);
    EXPECT_EQ(plan.workers.front().domain, 0);
    EXPECT_EQ(plan.workers.back().domain, 1);
  }
}

TEST(PinPlan, ModeNoneLeavesAllUnpinned) {
  const topology t = adjacent_smt_topo();
  const pin_plan plan = pin_plan::build(t, {}, 2, pin_mode::none);
  for (const auto& w : plan.workers) EXPECT_EQ(w.cpu, -1);
  EXPECT_FALSE(plan.pinned());
}

TEST(PinPlan, ModeNames) {
  EXPECT_STREQ(pin_mode_name(pin_mode::compact), "compact");
  EXPECT_EQ(pin_mode_from_name("scatter"), pin_mode::scatter);
  EXPECT_THROW(pin_mode_from_name("bogus"), std::invalid_argument);
}

TEST(Affinity, AllowedCpusNonEmptyAndSorted) {
  const std::vector<int> allowed = allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  for (std::size_t i = 1; i < allowed.size(); ++i)
    EXPECT_LT(allowed[i - 1], allowed[i]);
}

TEST(Affinity, PinAndUnpin) {
  // Pinning to CPU 0 must succeed on any Linux host; restore afterwards.
  EXPECT_TRUE(pin_current_thread(0));
  EXPECT_EQ(current_cpu(), 0);
  EXPECT_TRUE(unpin_current_thread());
  EXPECT_FALSE(pin_current_thread(-1));
  EXPECT_FALSE(pin_current_thread(CPU_SETSIZE + 1));
}

// --- platform specs (Table I data) -----------------------------------------

TEST(PlatformSpec, PaperValues) {
  const platform_spec& hw = haswell_spec();
  EXPECT_EQ(hw.cores, 28);
  EXPECT_DOUBLE_EQ(hw.clock_ghz, 2.3);
  EXPECT_EQ(hw.shared_cache_mb, 35u);
  EXPECT_EQ(hw.ram_gb, 128u);

  const platform_spec& phi = xeon_phi_spec();
  EXPECT_EQ(phi.cores, 61);
  EXPECT_DOUBLE_EQ(phi.clock_ghz, 1.2);
  EXPECT_EQ(phi.hardware_threads, 4);
  EXPECT_EQ(phi.l2_kb, 512u);
  EXPECT_EQ(phi.ram_gb, 8u);

  const platform_spec& sb = sandy_bridge_spec();
  EXPECT_EQ(sb.cores, 16);
  EXPECT_DOUBLE_EQ(sb.clock_ghz, 2.9);
  EXPECT_EQ(sb.shared_cache_mb, 20u);

  const platform_spec& ib = ivy_bridge_spec();
  EXPECT_EQ(ib.cores, 20);
  EXPECT_EQ(ib.ram_gb, 128u);
}

TEST(PlatformSpec, Lookup) {
  EXPECT_EQ(paper_platforms().size(), 4u);
  ASSERT_NE(find_platform("haswell"), nullptr);
  EXPECT_EQ(find_platform("haswell")->cores, 28);
  EXPECT_EQ(find_platform("nonexistent"), nullptr);
}

TEST(PlatformSpec, HostSpec) {
  const platform_spec host = host_spec();
  EXPECT_EQ(host.name, "host");
  EXPECT_GE(host.cores, 1);
  EXPECT_FALSE(host.processor.empty());
}

// The victims one walk of `route` probes, in order, when none yields work.
std::vector<int> walked(const steal_route& route, steal_route::part part,
                        std::uint32_t sweep) {
  std::vector<int> out;
  route.walk(part, sweep, [&out](int v) {
    out.push_back(v);
    return false;
  });
  return out;
}

// With domains in contiguous blocks of worker indices and no SMT sibling,
// the hier route at sweep 0 is Fig. 1's order written out: the own domain
// in ring order after the worker, then the other domains nearest-first
// (d+1, d+2, ... mod D), each in index order.
TEST(StealRoute, HierIsFig1OrderOnContiguousDomains) {
  for (int n = 1; n <= 64; ++n)
    for (int domains = 1; domains <= std::min(4, n); ++domains) {
      std::vector<worker_assignment> layout(static_cast<std::size_t>(n));
      for (int w = 0; w < n; ++w) layout[static_cast<std::size_t>(w)].domain = w * domains / n;
      for (int w = 0; w < n; ++w) {
        const int d = w * domains / n;
        std::vector<int> local, remote;
        for (int k = 1; k < n; ++k)
          if ((w + k) % n * domains / n == d) local.push_back((w + k) % n);
        for (int k = 1; k < domains; ++k)
          for (int v = 0; v < n; ++v)
            if (v * domains / n == (d + k) % domains) remote.push_back(v);
        const steal_route route = steal_route::build(layout, w, steal_order::hier);
        EXPECT_EQ(walked(route, steal_route::part::local, 0), local)
            << n << " workers, " << domains << " domains, worker " << w;
        EXPECT_EQ(walked(route, steal_route::part::remote, 0), remote)
            << n << " workers, " << domains << " domains, worker " << w;
      }
    }
}

// Eight workers, two per physical core, two domains of four.
std::vector<worker_assignment> smt_layout() {
  std::vector<worker_assignment> layout(8);
  for (int w = 0; w < 8; ++w)
    layout[static_cast<std::size_t>(w)] = {.cpu = w, .domain = w / 4, .core = w / 2};
  return layout;
}

TEST(StealRoute, HierSweepRotatesInsideEachTier) {
  const steal_route route = steal_route::build(smt_layout(), 0, steal_order::hier);
  using part = steal_route::part;
  EXPECT_EQ(route.victims(), (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  // Tiers {1} (SMT sibling), {2, 3} (domain), {4, 5, 6, 7} (remote).
  EXPECT_EQ(walked(route, part::local, 0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(walked(route, part::local, 1), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(walked(route, part::remote, 1), (std::vector<int>{5, 6, 7, 4}));
  EXPECT_EQ(walked(route, part::all, 2), (std::vector<int>{1, 2, 3, 6, 7, 4, 5}));
  // A token's circuit rotates over the whole route.
  EXPECT_EQ(route.circuit(2, 0), 3);
  EXPECT_EQ(route.circuit(2, 6), 2);
  // The sibling leads the local part of every worker.
  for (int w = 0; w < 8; ++w)
    EXPECT_EQ(walked(steal_route::build(smt_layout(), w, steal_order::hier), part::local, 0)
                  .front(),
              w ^ 1);
}

TEST(StealRoute, FlatIsTheFixedRing) {
  const steal_route route = steal_route::build(smt_layout(), 5, steal_order::flat);
  using part = steal_route::part;
  const std::vector<int> ring{6, 7, 0, 1, 2, 3, 4};
  EXPECT_EQ(route.victims(), ring);
  for (const std::uint32_t sweep : {0u, 1u, 7u}) {
    EXPECT_EQ(walked(route, part::all, sweep), ring);
    EXPECT_EQ(walked(route, part::local, sweep), ring);
    EXPECT_TRUE(walked(route, part::remote, sweep).empty());
    EXPECT_EQ(route.circuit(sweep, 0), 6);
  }
  EXPECT_THROW(steal_order_from_name("sideways"), std::invalid_argument);
}

TEST(StealRoute, WalkReturnsTheFirstResultThatTestsTrue) {
  const steal_route route = steal_route::build(smt_layout(), 0, steal_order::hier);
  std::vector<int> probed;
  const std::optional<int> found =
      route.walk(steal_route::part::all, 0, [&probed](int v) -> std::optional<int> {
        probed.push_back(v);
        if (v == 4) return v * 10;
        return std::nullopt;
      });
  EXPECT_EQ(found, 40);
  EXPECT_EQ(probed, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(route.walk(steal_route::part::all, 0, [](int) { return false; }));
}

}  // namespace
}  // namespace gran
