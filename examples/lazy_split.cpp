// Closed-loop task granularity in action — the paper's stated goal,
// demonstrated end to end: a parallel-for with no grain parameter. It starts
// with one coarse task per worker and splits running tasks whenever the
// runtime observes a starving worker (core/split_controller.hpp +
// algo/splittable.hpp).
//
//   $ ./lazy_split --items=500000 --workers=4
//
// The counter delta over the loop shows how many tasks the controller made
// from the initial blocks, and how often demand met a range too small to
// split.
#include <cstdio>
#include <vector>

#include "algo/parallel_for.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

// ~0.5 us of work per item.
double item_kernel(std::size_t i) {
  double acc = static_cast<double>(i);
  for (int k = 0; k < 120; ++k) acc = acc * 0.999999 + 0.25;
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const std::size_t items = static_cast<std::size_t>(args.get_int("items", 500'000));

  scheduler_config cfg;
  cfg.num_workers = static_cast<int>(args.get_int("workers", 4));
  cfg.pin_workers = false;
  thread_manager tm(cfg);

  std::printf("lazy parallel-for over %zu items, %d workers\n", items,
              tm.num_workers());

  // One partial sum per worker, each on its own cache line.
  struct alignas(64) partial {
    double v = 0.0;
  };
  std::vector<partial> sums(static_cast<std::size_t>(tm.num_workers()));
  const auto before = tm.counter_totals();
  stopwatch clock;
  algo::parallel_for(
      tm, 0, items,
      [&sums](std::size_t i) {
        sums[static_cast<std::size_t>(thread_manager::current_worker())].v += item_kernel(i);
      },
      algo::lazy_chunk{});
  const double elapsed = clock.elapsed_s();
  const auto after = tm.counter_totals();
  double checksum = 0.0;
  for (const partial& p : sums) checksum += p.v;

  std::printf("tasks %llu, splits %llu, split-denied %llu\n",
              static_cast<unsigned long long>(after.tasks_executed - before.tasks_executed),
              static_cast<unsigned long long>(after.tasks_split - before.tasks_split),
              static_cast<unsigned long long>(after.splits_denied - before.splits_denied));
  std::printf("finished in %.4f s (checksum %.3f)\n", elapsed, checksum);
  return 0;
}
