// Shared deterministic pseudo-randomness helpers.
//
// Everything that needs seeded, reproducible randomness — the simulator's
// execution-time jitter, the random task-graph generator, the randomized
// DAG fuzz tests — hashes through the same splitmix64 finalizer so a seed
// printed by one component can be replayed anywhere.
#pragma once

#include <cstdint>

#include "util/config.hpp"

namespace gran {

// splitmix64 finalizer: a high-quality 64-bit mix usable as a stateless,
// O(1)-queryable RNG (hash the coordinates, get the random value).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Order-sensitive combination of two hashes (for multi-coordinate keys,
// e.g. (seed, step, point)).
constexpr std::uint64_t mix64_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

// Maps a hash to a double in [0, 1) using the top 53 bits.
constexpr double mix64_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// Seed for randomized tests: GRAN_FUZZ_SEED when set (so a failure printed
// with its seed can be replayed exactly), `fallback` otherwise.
inline std::uint64_t fuzz_seed(std::uint64_t fallback) {
  const config::settings& s = config::current();
  return s.set(config::fuzz_seed) ? static_cast<std::uint64_t>(s.integer(config::fuzz_seed))
                                  : fallback;
}

}  // namespace gran
