// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the simulator (path selection jitter,
// endpoint profile assignment, forest bootstrap sampling) flows through
// `Rng`, an xoshiro256** generator seeded explicitly. The library never
// reads wall-clock time or std::random_device, so all benches and tests
// are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace cen {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next();
  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [0, 1).
  double real();
  /// Bernoulli trial with probability p.
  bool chance(double p);
  /// Pick a uniformly random element index of a container size.
  std::size_t index(std::size_t size) { return static_cast<std::size_t>(uniform(size)); }
  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);
  /// Derive an independent child generator (for parallel-safe substreams).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 step, used for seeding and for stateless hash mixing.
/// Inline: every fingerprint word costs two of these.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
/// Stateless 64-bit mix of a value (finalizer of SplitMix64).
inline std::uint64_t mix64(std::uint64_t v) { return splitmix64(v); }

}  // namespace cen
