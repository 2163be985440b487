// Structural fingerprinting for the campaign result cache.
//
// A fingerprint is a 64-bit digest of everything that determines a
// simulated measurement's outcome: topology shape, fault plan, tool
// options, seeds. The campaign cache keys results on these digests, so a
// fingerprint MUST change whenever any behaviour-relevant knob changes —
// a stale hit replays the wrong measurement — while remaining stable
// across processes and runs (no pointers, no iteration over unordered
// containers).
//
// This is a cache-invalidation hash, not a cryptographic one: mix64
// chains give good avalanche behaviour and collisions merely cost a
// (correct, deterministic) re-execution on the next key component.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/rng.hpp"

namespace cen {

namespace detail {
/// Feed a string to `sink` as its length, then its bytes packed big-endian
/// into 64-bit words (a short tail word is left-padded with zero bytes).
/// Each whole word is one 8-byte load.
template <class Sink>
void mix_string(Sink& sink, std::string_view s) {
  sink.mix(static_cast<std::uint64_t>(s.size()));
  const char* p = s.data();
  std::size_t left = s.size();
  for (; left >= 8; p += 8, left -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    sink.mix(word);
  }
  if (left == 0) return;
  std::uint64_t word = 0;
  for (; left > 0; --left) word = (word << 8) | static_cast<unsigned char>(*p++);
  sink.mix(word);
}
}  // namespace detail

class FingerprintBuilder {
 public:
  FingerprintBuilder& mix(std::uint64_t v) {
    h_ = mix64(h_ ^ mix64(v + 0x9e3779b97f4a7c15ull));
    return *this;
  }
  FingerprintBuilder& mix(bool v) { return mix(static_cast<std::uint64_t>(v ? 1 : 2)); }
  FingerprintBuilder& mix(double v) {
    // Hash the bit pattern: distinguishes -0.0/+0.0 and needs no
    // float-compare special cases.
    return mix(std::bit_cast<std::uint64_t>(v));
  }
  FingerprintBuilder& mix(std::string_view s) {
    detail::mix_string(*this, s);
    return *this;
  }

  std::uint64_t digest() const { return mix64(h_); }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ull;  // pi, arbitrary non-zero start
};

/// A FingerprintBuilder split into four independent lanes for digests
/// over millions of words: word i goes to lane i mod 4, and digest()
/// folds the word count and the four lane digests. One builder is one
/// serial chain of mix64 calls; here every fourth word mixes a whole row
/// into the four lanes at once, four chains the CPU overlaps. Order
/// sensitive like the builder (a word's lane and its place within the
/// lane both matter), but a different digest: pick one of the two per
/// value and keep it.
class LaneFingerprint {
 public:
  LaneFingerprint& mix(std::uint64_t v) {
    row_[count_++ % kLanes] = v;
    if (count_ % kLanes == 0) {
      // Written out, not looped: GCC then keeps the four lanes in registers.
      lanes_[0].mix(row_[0]);
      lanes_[1].mix(row_[1]);
      lanes_[2].mix(row_[2]);
      lanes_[3].mix(row_[3]);
    }
    return *this;
  }
  LaneFingerprint& mix(std::string_view s) {
    detail::mix_string(*this, s);
    return *this;
  }

  std::uint64_t digest() const {
    FingerprintBuilder fold;
    fold.mix(count_);
    for (std::size_t k = 0; k < kLanes; ++k) {
      FingerprintBuilder lane = lanes_[k];
      if (k < count_ % kLanes) lane.mix(row_[k]);  // the partial last row
      fold.mix(lane.digest());
    }
    return fold.digest();
  }

 private:
  static constexpr std::size_t kLanes = 4;  // mix() names each lane
  FingerprintBuilder lanes_[kLanes];
  std::uint64_t row_[kLanes] = {};
  std::uint64_t count_ = 0;
};

}  // namespace cen
