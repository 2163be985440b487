// Flat-container and arena equivalence suite.
//
// FlatMap replaced std::map on the clone()/reset_epoch() hot paths
// (engine attachments/endpoints, fault overrides, topology path cache,
// device flow state), and several consumers depend on std::map SEMANTICS
// beyond the interface: fingerprint() and FaultPlan::inert() iterate in
// key order, first-wins emplace guards duplicate endpoint registration,
// operator[] must overwrite in place. These tests pin FlatMap to the
// std::map behaviour with randomized mirrored operations, and pin the
// Arena's reuse/alignment contract the DPI verdict cache relies on.
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "core/flat_map.hpp"
#include "core/rng.hpp"
#include "scenario/executor.hpp"

namespace {

using cen::core::Arena;
using cen::core::FlatMap;

// ---- FlatMap vs std::map: randomized mirrored-operation equivalence. ----

TEST(FlatMap, MatchesStdMapUnderRandomizedOperations) {
  cen::Rng rng(0xf1a7);
  for (int round = 0; round < 20; ++round) {
    FlatMap<int, int> flat;
    std::map<int, int> ref;
    for (int op = 0; op < 400; ++op) {
      const int key = static_cast<int>(rng.uniform(64));
      const int value = static_cast<int>(rng.uniform(1000));
      switch (rng.uniform(5)) {
        case 0: {  // operator[]: insert-or-overwrite
          flat[key] = value;
          ref[key] = value;
          break;
        }
        case 1: {  // emplace: first-wins, no overwrite
          auto [fit, finserted] = flat.emplace(key, value);
          auto [rit, rinserted] = ref.emplace(key, value);
          EXPECT_EQ(finserted, rinserted);
          EXPECT_EQ(fit->second, rit->second);
          break;
        }
        case 2: {  // insert_or_assign: always overwrites
          flat.insert_or_assign(key, value);
          ref.insert_or_assign(key, value);
          break;
        }
        case 3: {  // erase by key
          EXPECT_EQ(flat.erase(key), ref.erase(key));
          break;
        }
        case 4: {  // find + count
          const auto fit = flat.find(key);
          const auto rit = ref.find(key);
          EXPECT_EQ(fit == flat.end(), rit == ref.end());
          if (fit != flat.end()) {
            EXPECT_EQ(fit->second, rit->second);
          }
          EXPECT_EQ(flat.count(key), ref.count(key));
          break;
        }
      }
    }
    // Same size and same key-sorted iteration order, element by element —
    // the property fingerprint() and inert() depend on.
    ASSERT_EQ(flat.size(), ref.size());
    auto fit = flat.begin();
    for (const auto& [k, v] : ref) {
      ASSERT_NE(fit, flat.end());
      EXPECT_EQ(fit->first, k);
      EXPECT_EQ(fit->second, v);
      ++fit;
    }
    EXPECT_EQ(fit, flat.end());
  }
}

TEST(FlatMap, EmplaceIsFirstWins) {
  FlatMap<std::string, int> m;
  EXPECT_TRUE(m.emplace(std::string("a"), 1).second);
  EXPECT_FALSE(m.emplace(std::string("a"), 2).second);
  EXPECT_EQ(m.at("a"), 1);  // the original value survived
  m.insert_or_assign(std::string("a"), 3);
  EXPECT_EQ(m.at("a"), 3);
  m["a"] = 4;
  EXPECT_EQ(m.at("a"), 4);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, IterationIsKeySorted) {
  FlatMap<int, char> m;
  for (int k : {9, 3, 7, 1, 5}) m[k] = static_cast<char>('a' + k);
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatMap, EraseByIteratorAndAtThrows) {
  FlatMap<int, int> m;
  m[1] = 10;
  m[2] = 20;
  m[3] = 30;
  auto it = m.erase(m.find(2));
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 3);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.count(2), 0u);
  EXPECT_THROW(m.at(2), std::out_of_range);
}

TEST(FlatMap, PairKeysMatchStdMap) {
  // The fault layer keys link overrides by std::pair<NodeId, NodeId>.
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  FlatMap<Key, int> flat;
  std::map<Key, int> ref;
  cen::Rng rng(0x9a1f);
  for (int i = 0; i < 200; ++i) {
    Key k{static_cast<std::uint32_t>(rng.uniform(12)),
          static_cast<std::uint32_t>(rng.uniform(12))};
    const int v = static_cast<int>(rng.uniform(100));
    flat[k] = v;
    ref[k] = v;
  }
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(fit->first, k);
    EXPECT_EQ(fit->second, v);
    ++fit;
  }
}

TEST(FlatMap, ClearRetainsNothingButWorksAfter) {
  FlatMap<int, int> m;
  for (int i = 0; i < 50; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(25), m.end());
  m[25] = 1;
  EXPECT_EQ(m.size(), 1u);
}

// ---- Arena: bump allocation, reuse, alignment, stats. ----

TEST(Arena, AllocationsAreMaxAligned) {
  Arena arena;
  for (std::size_t sz : {1u, 3u, 17u, 64u, 1000u}) {
    void* p = arena.allocate(sz);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(Arena, ResetRewindsWithoutReleasingBlocks) {
  Arena arena(256);
  for (int i = 0; i < 64; ++i) arena.allocate(64);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t blocks = arena.block_count();
  EXPECT_GT(blocks, 1u);  // spilled past the first block
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // The memory stays reserved for reuse — reset is the cheap epoch
  // rollback, not a free.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.block_count(), blocks);
  // Refilling to the same depth must not grow the arena further.
  for (int i = 0; i < 64; ++i) arena.allocate(64);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, OversizeAllocationsGetDedicatedBlocks) {
  Arena arena(128);
  auto* p = arena.allocate_array<std::uint8_t>(4096);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[4095] = 2;  // the whole range is writable
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

TEST(Arena, ArrayAllocationsDoNotOverlap) {
  Arena arena(512);
  std::vector<std::uint32_t*> chunks;
  for (std::uint32_t i = 0; i < 32; ++i) {
    auto* c = arena.allocate_array<std::uint32_t>(16);
    for (int j = 0; j < 16; ++j) c[j] = i;
    chunks.push_back(c);
  }
  for (std::uint32_t i = 0; i < 32; ++i) {
    for (int j = 0; j < 16; ++j) EXPECT_EQ(chunks[i][j], i);
  }
}

TEST(Arena, ReleaseDropsEverything) {
  Arena arena(128);
  arena.allocate(1000);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  // Usable again after release.
  EXPECT_NE(arena.allocate(16), nullptr);
}

// ---- task_key decomposition: the hashed form is bit-identical. ----

TEST(TaskKey, HashedDecompositionMatchesDirectForm) {
  const std::vector<std::string> domains = {
      "", "a", "example.com", "blocked.example.org",
      "xn--d1acufc.xn--p1ai", std::string(300, 'x')};
  cen::Rng rng(0x7a5c);
  for (const std::string& d : domains) {
    const std::uint64_t dh = cen::scenario::domain_hash(d);
    for (int i = 0; i < 32; ++i) {
      const auto endpoint = static_cast<std::uint32_t>(rng.next());
      const std::uint64_t tag = rng.uniform(64);
      EXPECT_EQ(cen::scenario::task_key(endpoint, d, tag),
                cen::scenario::task_key_hashed(endpoint, dh, tag))
          << "domain=" << d << " endpoint=" << endpoint << " tag=" << tag;
    }
  }
}

}  // namespace
