#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/cache.hpp"
#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "core/seed_salts.hpp"
#include "scenario/executor.hpp"

using namespace cen;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  std::vector<std::size_t> p = rng.permutation(50);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(Rng, PermutationEmpty) { EXPECT_TRUE(Rng(1).permutation(0).empty()); }

TEST(Rng, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // The fork must not mirror the parent stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Mix64, StatelessAndSpread) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(1), mix64(2));
  // Single-bit input changes flip roughly half the output bits.
  int diff = __builtin_popcountll(mix64(0x1000) ^ mix64(0x1001));
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

// Known answers for the hash primitives. Every substream seed, fault
// stream and cache key derives from these functions, so a change to any
// of them silently changes every simulated measurement.

TEST(HashKnownAnswers, Mix64) {
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(mix64(12345), 0x22118258a9d111a0ULL);
  EXPECT_EQ(mix64(~0ULL), 0xe4d971771b652c20ULL);
}

TEST(HashKnownAnswers, SplitMix64FromZero) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
  EXPECT_EQ(splitmix64(state), 0xf88bb8a8724c81ecULL);
}

TEST(HashKnownAnswers, RngSeedOneAndFork) {
  Rng rng(1);
  EXPECT_EQ(rng.next(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(rng.next(), 0x853b559647364ceaULL);
  EXPECT_EQ(rng.next(), 0x92f89756082a4514ULL);
  EXPECT_EQ(rng.next(), 0x642e1c7bc266a3a7ULL);
  EXPECT_EQ(Rng(1).fork().next(), 0x371e6c95a18ba1dcULL);
}

TEST(HashKnownAnswers, FingerprintBuilderDigest) {
  // u64, both bools, -0.0 and a double, then strings of 0, 7, 8 and 9
  // bytes (empty, a short tail word, exactly one word, one word + tail).
  FingerprintBuilder fp;
  fp.mix(std::uint64_t{42}).mix(true).mix(false).mix(-0.0).mix(3.5);
  fp.mix(std::string_view("")).mix(std::string_view("abcdefg"));
  fp.mix(std::string_view("abcdefgh")).mix(std::string_view("abcdefghi"));
  EXPECT_EQ(fp.digest(), 0xa6fd12469811812fULL);
}

TEST(HashKnownAnswers, StageSaltTaskSeeds) {
  // One row per measurement-stage salt: the seeds two tasks of a stage
  // run under. Moving or retyping a salt must not change them.
  const std::vector<std::uint64_t> keys = {scenario::task_key(42, "blocked.example", 1),
                                           scenario::task_key(43, "blocked.example", 1)};
  auto seeds = [&](std::uint64_t salt) { return scenario::derive_task_seeds(7, salt, keys); };
  using Seeds = std::vector<std::uint64_t>;
  EXPECT_EQ(seeds(salts::kTraceStage), (Seeds{0x8002d01ab1199749ULL, 0x3f4a64152252a3daULL}));
  EXPECT_EQ(seeds(salts::kProbeStage), (Seeds{0x6207bb6db9ad6365ULL, 0x3482b5980ce9a238ULL}));
  EXPECT_EQ(seeds(salts::kFuzzStage), (Seeds{0x6b8092d60a0ec236ULL, 0x5867867584b29831ULL}));
  EXPECT_EQ(seeds(salts::kAmbigStage), (Seeds{0x189ed11eeab2ae48ULL, 0x942fcae2630d2f2bULL}));
}

namespace {

/// detail::mix_string as it was first written: each word built one byte
/// at a time. Any faster packing must feed a sink exactly these words.
template <class Sink>
void mix_string_bytes(Sink& sink, std::string_view s) {
  sink.mix(static_cast<std::uint64_t>(s.size()));
  std::uint64_t word = 0;
  int n = 0;
  for (char c : s) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++n == 8) {
      sink.mix(word);
      word = 0;
      n = 0;
    }
  }
  if (n > 0) sink.mix(word);
}

/// A sink that records the words it is fed.
struct WordLog {
  std::vector<std::uint64_t> words;
  WordLog& mix(std::uint64_t v) {
    words.push_back(v);
    return *this;
  }
};

}  // namespace

TEST(Fingerprint, StringWordsMatchTheByteLoop) {
  // Every length 0..64 at every start offset 0..7 of two buffers: one that
  // mixes bytes below and above 0x80, one of 0xff bytes only.
  std::string mixed(72, '\0');
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = static_cast<char>(i * 151 + 0x5a);
  }
  std::string high(72, '\xff');
  for (const std::string* buf : {&mixed, &high}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 64; ++len) {
        SCOPED_TRACE("offset " + std::to_string(offset) + " length " + std::to_string(len));
        const std::string_view s(buf->data() + offset, len);
        WordLog got, want;
        detail::mix_string(got, s);
        mix_string_bytes(want, s);
        ASSERT_EQ(got.words, want.words);

        FingerprintBuilder fb_got, fb_want;
        fb_got.mix(std::uint64_t{7}).mix(s);
        mix_string_bytes(fb_want.mix(std::uint64_t{7}), s);
        ASSERT_EQ(fb_got.digest(), fb_want.digest());

        LaneFingerprint lf_got, lf_want;
        lf_got.mix(std::uint64_t{offset}).mix(s);
        mix_string_bytes(lf_want.mix(std::uint64_t{offset}), s);
        ASSERT_EQ(lf_got.digest(), lf_want.digest());
      }
    }
  }
  // The cache's own digests over fixed inputs, non-ASCII bytes included.
  EXPECT_EQ(campaign::task_cache_key(1, 2, 3, "trace", "KZ:trace:t", 4),
            "04824a007afb4297f317f4f68d09fc32");
  EXPECT_EQ(campaign::task_cache_key(0xffffffffffffffffULL, 0, 9, "fuzz",
                                     "RU:fuzz:\xc3\xa9xample.com", 0x8000000000000000ULL),
            "aed1a9f50c3673603827ddd9eeef0769");
  EXPECT_EQ(campaign::record_sum(campaign::task_cache_key(1, 2, 3, "trace", "KZ:trace:t", 4),
                                 R"({"tool":"centrace","note":"a\"b )" "\xc3\xa9\xff" R"("})"),
            "9724d3b33f85e982");
  EXPECT_EQ(campaign::record_sum("", "{}"), "a70f97d0bf5369d9");
}

TEST(LaneFingerprint, LaneAndOrderSensitive) {
  auto digest = [](std::initializer_list<std::uint64_t> words) {
    LaneFingerprint fp;
    for (std::uint64_t w : words) fp.mix(w);
    return fp.digest();
  };
  const std::uint64_t base = digest({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(base, digest({1, 2, 3, 4, 5, 6, 7, 8}));
  // Swap within one lane (words 0 and 4), across lanes, and extend.
  EXPECT_NE(base, digest({5, 2, 3, 4, 1, 6, 7, 8}));
  EXPECT_NE(base, digest({2, 1, 3, 4, 5, 6, 7, 8}));
  EXPECT_NE(base, digest({1, 2, 3, 4, 5, 6, 7, 8, 0}));
  EXPECT_NE(digest({}), digest({0}));
  // Strings are length-prefixed word streams, as in FingerprintBuilder.
  LaneFingerprint a, b;
  a.mix(std::string_view("ab")).mix(std::string_view("c"));
  b.mix(std::string_view("a")).mix(std::string_view("bc"));
  EXPECT_NE(a.digest(), b.digest());
}
