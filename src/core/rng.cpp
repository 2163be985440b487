#include "core/rng.hpp"

namespace cen {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& lane : s_) lane = splitmix64(s);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(uniform(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

bool Rng::chance(double p) { return real() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork() { return Rng(next() ^ 0xa02bdbf7bb3c0a7ULL); }

}  // namespace cen
