// Two-dimensional heat diffusion on a torus, tiled into an explicit
// dataflow graph — the natural generalization of the paper's 1-D benchmark
// and a demonstration that the same futurization pattern scales to richer
// dependency structures (each tile consumes FIVE futures per step: itself
// and its four neighbours).
//
//   $ ./heat_2d --n=256 --tile=64 --steps=20 --workers=4
//
// The tile edge is the 2-D granularity dial: tile*tile points per task.
// Verified against a serial 2-D reference.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "async/gran.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace gran;

namespace {

using grid = std::vector<double>;  // row-major n x n

constexpr double k_alpha = 0.1;  // diffusion coefficient * dt / h^2

// 5-point update with torus wraparound.
double heat5(double up, double left, double mid, double right, double down) {
  return mid + k_alpha * (up + left + right + down - 4.0 * mid);
}

grid initial(std::size_t n) {
  grid u(n * n);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      u[y * n + x] = std::sin(0.1 * static_cast<double>(x)) *
                     std::cos(0.07 * static_cast<double>(y));
  return u;
}

grid step_serial(const grid& u, std::size_t n) {
  grid next(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    const std::size_t yu = (y + n - 1) % n, yd = (y + 1) % n;
    for (std::size_t x = 0; x < n; ++x) {
      const std::size_t xl = (x + n - 1) % n, xr = (x + 1) % n;
      next[y * n + x] = heat5(u[yu * n + x], u[y * n + xl], u[y * n + x],
                              u[y * n + xr], u[yd * n + x]);
    }
  }
  return next;
}

// One tile: `t` rows x `t` cols with origin (ty, tx) in tile coordinates.
// Tiles are stored with a one-cell halo so neighbours only need edges; for
// simplicity here each tile stores its full t x t block and the update
// reads neighbour blocks' edge rows/columns directly.
using tile_data = std::shared_ptr<const std::vector<double>>;

std::vector<double> tile_step(std::size_t t, const std::vector<double>& up,
                              const std::vector<double>& left,
                              const std::vector<double>& mid,
                              const std::vector<double>& right,
                              const std::vector<double>& down) {
  std::vector<double> next(t * t);
  const auto at = [t](const std::vector<double>& block, std::size_t y,
                      std::size_t x) { return block[y * t + x]; };
  for (std::size_t y = 0; y < t; ++y) {
    for (std::size_t x = 0; x < t; ++x) {
      const double v_up = y > 0 ? at(mid, y - 1, x) : at(up, t - 1, x);
      const double v_down = y + 1 < t ? at(mid, y + 1, x) : at(down, 0, x);
      const double v_left = x > 0 ? at(mid, y, x - 1) : at(left, y, t - 1);
      const double v_right = x + 1 < t ? at(mid, y, x + 1) : at(right, y, 0);
      next[y * t + x] = heat5(v_up, v_left, at(mid, y, x), v_right, v_down);
    }
  }
  return next;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 256));
  std::size_t tile = static_cast<std::size_t>(args.get_int("tile", 64));
  const std::size_t steps = static_cast<std::size_t>(args.get_int("steps", 20));
  while (n % tile != 0) --tile;  // tile must divide n
  const std::size_t nt = n / tile;

  scheduler_config cfg;
  cfg.num_workers = static_cast<int>(args.get_int("workers", 0));
  thread_manager tm(cfg);

  std::printf("2-D heat: %zux%zu grid, %zux%zu tiles (%zu tasks/step x %zu steps), %d workers\n",
              n, n, tile, tile, nt * nt, steps, tm.num_workers());

  // Split the initial grid into tile futures.
  const grid u0 = initial(n);
  std::vector<future<tile_data>> current(nt * nt);
  for (std::size_t ty = 0; ty < nt; ++ty)
    for (std::size_t tx = 0; tx < nt; ++tx) {
      auto block = std::make_shared<std::vector<double>>(tile * tile);
      for (std::size_t y = 0; y < tile; ++y)
        for (std::size_t x = 0; x < tile; ++x)
          (*block)[y * tile + x] = u0[(ty * tile + y) * n + tx * tile + x];
      current[ty * nt + tx] = make_ready_future<tile_data>(tile_data(block));
    }

  stopwatch clock;
  std::vector<future<tile_data>> next(nt * nt);
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t ty = 0; ty < nt; ++ty) {
      for (std::size_t tx = 0; tx < nt; ++tx) {
        const std::size_t up = ((ty + nt - 1) % nt) * nt + tx;
        const std::size_t down = ((ty + 1) % nt) * nt + tx;
        const std::size_t left = ty * nt + (tx + nt - 1) % nt;
        const std::size_t right = ty * nt + (tx + 1) % nt;
        next[ty * nt + tx] = dataflow(
            [tile](future<tile_data>& u, future<tile_data>& l, future<tile_data>& m,
                   future<tile_data>& r, future<tile_data>& d) {
              return tile_data(std::make_shared<const std::vector<double>>(
                  tile_step(tile, *u.get(), *l.get(), *m.get(), *r.get(), *d.get())));
            },
            current[up], current[left], current[ty * nt + tx], current[right],
            current[down]);
      }
    }
    current.swap(next);
  }
  when_all(current).wait();
  const double elapsed = clock.elapsed_s();

  // Verify against the serial reference.
  grid ref = u0;
  for (std::size_t s = 0; s < steps; ++s) ref = step_serial(ref, n);
  std::size_t mismatches = 0;
  for (std::size_t ty = 0; ty < nt; ++ty)
    for (std::size_t tx = 0; tx < nt; ++tx) {
      const auto& block = *current[ty * nt + tx].get();
      for (std::size_t y = 0; y < tile; ++y)
        for (std::size_t x = 0; x < tile; ++x)
          if (block[y * tile + x] != ref[(ty * tile + y) * n + tx * tile + x])
            ++mismatches;
    }

  std::printf("%zu steps in %.4f s, %s (%.1f Mpoint-updates/s)\n", steps, elapsed,
              mismatches == 0 ? "bit-identical to the serial reference"
                              : "MISMATCH vs serial reference!",
              static_cast<double>(n) * n * steps / elapsed / 1e6);
  return mismatches == 0 ? 0 : 1;
}
