#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "netsim/compact.hpp"
#include "netsim/engine.hpp"
#include "netsim/topology.hpp"
#include "scenario/world.hpp"
#include "worldgen/spec.hpp"

using namespace cen;
using namespace cen::sim;

namespace {
Topology line(int n) {
  Topology t;
  for (int i = 0; i < n; ++i) {
    t.add_node("n" + std::to_string(i), net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  for (int i = 0; i + 1 < n; ++i) t.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return t;
}

net::Ipv4Address ip_of(std::size_t i) {
  return net::Ipv4Address(10, static_cast<std::uint8_t>(i >> 16), static_cast<std::uint8_t>(i >> 8),
                          static_cast<std::uint8_t>(i));
}

/// The per-pair search equal_cost_paths ran before it cached one
/// shortest-path tree per source: a fresh BFS from src for every pair,
/// then the predecessor DFS. The tree-backed search must match it element
/// for element, order included.
std::vector<std::vector<NodeId>> reference_paths(const Topology& t, NodeId src, NodeId dst) {
  std::vector<int> dist(t.node_count(), -1);
  std::deque<NodeId> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : t.neighbors(u)) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }

  std::vector<std::vector<NodeId>> paths;
  if (dist[dst] != -1) {
    std::vector<std::vector<NodeId>> stack;
    stack.push_back({dst});
    while (!stack.empty() && paths.size() < kMaxEcmpPaths) {
      std::vector<NodeId> partial = std::move(stack.back());
      stack.pop_back();
      NodeId head = partial.back();
      if (head == src) {
        std::vector<NodeId> full(partial.rbegin(), partial.rend());
        paths.push_back(std::move(full));
        continue;
      }
      std::vector<NodeId> preds;
      for (NodeId v : t.neighbors(head)) {
        if (dist[v] == dist[head] - 1) preds.push_back(v);
      }
      std::sort(preds.begin(), preds.end(), std::greater<NodeId>());
      for (NodeId v : preds) {
        std::vector<NodeId> next = partial;
        next.push_back(v);
        stack.push_back(std::move(next));
      }
    }
    std::sort(paths.begin(), paths.end());
  }
  return paths;
}

void expect_reference_paths(const Topology& t, NodeId src, NodeId dst) {
  EXPECT_EQ(t.equal_cost_paths(src, dst), reference_paths(t, src, dst))
      << (t.compact() ? "compact " : "classic ") << src << " -> " << dst;
}

/// The same graph on both backends.
struct Twin {
  Topology classic;
  Topology compact;
};

Twin make_twin(std::size_t nodes, const std::vector<std::pair<NodeId, NodeId>>& links) {
  Twin tw;
  CompactTopologyBuilder cb;
  for (std::size_t i = 0; i < nodes; ++i) {
    tw.classic.add_node("n", ip_of(i + 1));
    cb.add_node("n", ip_of(i + 1));
  }
  for (const auto& [a, b] : links) {
    tw.classic.add_link(a, b);
    cb.add_link(a, b);
  }
  tw.compact = Topology::from_compact(cb.build());
  return tw;
}

/// A seeded random graph: a dense-ish component of `big` nodes (a
/// spanning chain plus random chords, so many equal-cost paths), a second
/// component of `small` nodes and a few isolated nodes.
Twin random_twin(std::uint64_t seed, std::size_t big = 90, std::size_t small = 20) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> links;
  auto add_component = [&](std::size_t first, std::size_t count, std::size_t chords) {
    for (std::size_t i = 1; i < count; ++i) {
      links.emplace_back(static_cast<NodeId>(first + rng.index(i)), static_cast<NodeId>(first + i));
    }
    for (std::size_t c = 0; c < chords; ++c) {
      const std::size_t a = first + rng.index(count);
      const std::size_t b = first + rng.index(count);
      if (a != b) links.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
    }
  };
  add_component(0, big, big);
  add_component(big, small, small / 2);
  return make_twin(big + small + 3, links);
}

/// A rows x cols grid; corner to corner has C(rows+cols-2, rows-1)
/// shortest paths, far past kMaxEcmpPaths.
Twin grid_twin(std::size_t rows, std::size_t cols) {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto id = static_cast<NodeId>(r * cols + c);
      if (c + 1 < cols) links.emplace_back(id, id + 1);
      if (r + 1 < rows) links.emplace_back(id, static_cast<NodeId>(id + cols));
    }
  }
  return make_twin(rows * cols, links);
}
}  // namespace

TEST(Topology, SinglePathOnALine) {
  Topology t = line(5);
  const auto& paths = t.equal_cost_paths(0, 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Topology, NoPathWhenDisconnected) {
  Topology t;
  t.add_node("a", net::Ipv4Address(1, 0, 0, 1));
  t.add_node("b", net::Ipv4Address(1, 0, 0, 2));
  EXPECT_TRUE(t.equal_cost_paths(0, 1).empty());
  EXPECT_TRUE(t.route(0, 1, 99).empty());
}

TEST(Topology, SelfPath) {
  Topology t = line(2);
  const auto& paths = t.equal_cost_paths(0, 0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], std::vector<NodeId>{0});
}

TEST(Topology, DiamondHasTwoEqualCostPaths) {
  // 0 - {1,2} - 3
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(1, 3);
  t.add_link(2, 3);
  const auto& paths = t.equal_cost_paths(0, 3);
  ASSERT_EQ(paths.size(), 2u);
  std::set<std::vector<NodeId>> unique(paths.begin(), paths.end());
  EXPECT_TRUE(unique.count({0, 1, 3}));
  EXPECT_TRUE(unique.count({0, 2, 3}));
}

TEST(Topology, ShorterPathPreferredOverDetour) {
  // 0-1-3 (length 2) vs 0-1-2-3 (length 3): only the shortest is ECMP.
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(1, 3);
  t.add_link(1, 2);
  t.add_link(2, 3);
  const auto& paths = t.equal_cost_paths(0, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1, 3}));
}

TEST(Topology, RouteIsDeterministicPerHash) {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(1, 3);
  t.add_link(2, 3);
  const auto& p1 = t.route(0, 3, 12345);
  const auto& p2 = t.route(0, 3, 12345);
  EXPECT_EQ(p1, p2);
  // Different hashes cover both ECMP paths.
  std::set<std::vector<NodeId>> seen;
  for (std::uint64_t h = 0; h < 16; ++h) seen.insert(t.route(0, 3, h));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Topology, EcmpCapHolds) {
  // A ladder of k parallel 2-node rungs yields 2^k shortest paths; the
  // enumerator must cap at kMaxEcmpPaths instead of exploding.
  Topology t;
  NodeId prev = t.add_node("s", net::Ipv4Address(10, 0, 1, 0));
  for (int stage = 0; stage < 10; ++stage) {
    NodeId a = t.add_node("a", net::Ipv4Address(10, 1, static_cast<uint8_t>(stage), 1));
    NodeId b = t.add_node("b", net::Ipv4Address(10, 1, static_cast<uint8_t>(stage), 2));
    NodeId join = t.add_node("j", net::Ipv4Address(10, 1, static_cast<uint8_t>(stage), 3));
    t.add_link(prev, a);
    t.add_link(prev, b);
    t.add_link(a, join);
    t.add_link(b, join);
    prev = join;
  }
  const auto& paths = t.equal_cost_paths(0, prev);
  EXPECT_EQ(paths.size(), kMaxEcmpPaths);
}

TEST(Topology, FindByIp) {
  Topology t = line(3);
  auto id = t.find_by_ip(net::Ipv4Address(10, 0, 0, 2));
  ASSERT_TRUE(id);
  EXPECT_EQ(*id, 1u);
  EXPECT_FALSE(t.find_by_ip(net::Ipv4Address(10, 0, 0, 99)));
}

TEST(Topology, BadLinkThrows) {
  Topology t = line(2);
  EXPECT_THROW(t.add_link(0, 5), std::out_of_range);
}

TEST(Topology, PathCacheInvalidatedByNewLink) {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(1, 3);
  EXPECT_EQ(t.equal_cost_paths(0, 3).size(), 1u);
  EXPECT_TRUE(t.equal_cost_paths(0, 2).empty());
  t.add_link(0, 2);
  t.add_link(2, 3);
  EXPECT_EQ(t.equal_cost_paths(0, 3).size(), 2u);
  // The tree for source 0 was rebuilt too: node 2 is now one hop away.
  EXPECT_EQ(t.equal_cost_paths(0, 2), (std::vector<std::vector<NodeId>>{{0, 2}}));
  EXPECT_EQ(t.path_trees_built(), 2u);

  // A frozen tree is dropped as well: 0-3 becomes a direct link.
  t.freeze_paths();
  t.add_link(0, 3);
  EXPECT_EQ(t.equal_cost_paths(0, 3), (std::vector<std::vector<NodeId>>{{0, 3}}));
  EXPECT_EQ(t.path_trees_built(), 3u);
  for (NodeId dst = 0; dst < 4; ++dst) expect_reference_paths(t, 0, dst);
}

TEST(Topology, TreePathsMatchPerPairSearchOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Twin tw = random_twin(seed);
    for (const Topology* t : {&tw.classic, &tw.compact}) {
      // Sources in the big component, the small one and an isolated node;
      // every destination, including src itself and the other components.
      for (NodeId src : {NodeId{0}, NodeId{37}, NodeId{95}, NodeId{111}}) {
        for (NodeId dst = 0; dst < t->node_count(); ++dst) expect_reference_paths(*t, src, dst);
      }
      EXPECT_EQ(t->path_trees_built(), 4u) << "seed " << seed;
    }
  }
}

TEST(Topology, TreePathsMatchPerPairSearchPastTheEcmpCap) {
  Twin tw = grid_twin(9, 9);
  for (const Topology* t : {&tw.classic, &tw.compact}) {
    EXPECT_EQ(t->equal_cost_paths(0, 80).size(), kMaxEcmpPaths);
    // A corner, an edge cell and the centre as sources.
    for (NodeId src : {NodeId{0}, NodeId{4}, NodeId{40}}) {
      for (NodeId dst = 0; dst < t->node_count(); ++dst) expect_reference_paths(*t, src, dst);
    }
  }
}

TEST(Topology, TreePathsMatchPerPairSearchOnWorldTiers) {
  for (const char* tier : {"1k", "100k"}) {
    const scenario::WorldScenario w = scenario::make_world(*worldgen::WorldSpec::tier(tier), 11);
    const Topology& compact = w.network->topology();
    ASSERT_TRUE(compact.compact());
    std::vector<NodeId> dsts;
    const std::size_t step = std::max<std::size_t>(1, w.endpoints.size() / 50);
    for (std::size_t i = 0; i < w.endpoints.size() && dsts.size() < 50; i += step) {
      dsts.push_back(*compact.find_by_ip(w.endpoints[i]));
    }
    ASSERT_EQ(dsts.size(), 50u) << tier;
    for (NodeId dst : dsts) expect_reference_paths(compact, w.client, dst);
    EXPECT_EQ(compact.path_trees_built(), 1u) << tier;
    if (std::string(tier) == "1k") {
      const Topology classic = compact.compact_backend()->inflate();
      for (NodeId dst : dsts) expect_reference_paths(classic, w.client, dst);
    }
  }
}

TEST(Topology, DeepGraphFallsBackToWideTree) {
  // A diamond at the source, then a chain deeper than a uint16_t hop count
  // can hold: the tree must widen, not truncate.
  constexpr std::size_t kChain = 70000;
  std::vector<std::pair<NodeId, NodeId>> links = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (std::size_t i = 3; i < 3 + kChain; ++i) {
    links.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  Twin tw = make_twin(4 + kChain, links);
  const auto far = static_cast<NodeId>(3 + kChain);
  for (const Topology* t : {&tw.classic, &tw.compact}) {
    std::vector<std::vector<NodeId>> expected(2, std::vector<NodeId>{0});
    for (std::size_t p = 0; p < 2; ++p) {
      expected[p].push_back(static_cast<NodeId>(p + 1));
      for (NodeId n = 3; n <= far; ++n) expected[p].push_back(n);
    }
    EXPECT_EQ(t->equal_cost_paths(0, far), expected);
    // Shallow destinations read the same wide tree.
    for (NodeId dst = 0; dst < 40; ++dst) expect_reference_paths(*t, 0, dst);
    EXPECT_EQ(t->path_trees_built(), 1u);
  }
}

TEST(Topology, OneTreeServesEveryDestinationOfASource) {
  Twin tw = grid_twin(7, 7);
  for (NodeId dst = 0; dst < 40; ++dst) tw.compact.equal_cost_paths(0, dst);
  EXPECT_EQ(tw.compact.path_cache_misses(), 40u);
  EXPECT_EQ(tw.compact.path_trees_built(), 1u);
  // Repeats are path-cache hits; a new source builds its own tree.
  tw.compact.equal_cost_paths(0, 39);
  tw.compact.equal_cost_paths(48, 0);
  EXPECT_EQ(tw.compact.path_cache_hits(), 1u);
  EXPECT_EQ(tw.compact.path_trees_built(), 2u);
}

TEST(Topology, CopyAfterFreezeSharesTheTree) {
  Twin tw = grid_twin(7, 7);
  tw.classic.equal_cost_paths(0, 48);
  tw.classic.freeze_paths();
  const Topology copy = tw.classic;
  const std::uint64_t built = copy.path_trees_built();
  for (NodeId dst = 0; dst < 40; ++dst) expect_reference_paths(copy, 0, dst);
  EXPECT_EQ(copy.path_trees_built(), built);
}

TEST(Topology, NetworkCloneReusesThePrototypeTree) {
  const scenario::WorldScenario w = scenario::make_world(*worldgen::WorldSpec::tier("1k"), 11);
  const Topology& proto = w.network->topology();
  proto.equal_cost_paths(w.client, *proto.find_by_ip(w.endpoints.front()));
  ASSERT_EQ(proto.path_trees_built(), 1u);

  const std::unique_ptr<Network> replica = w.network->clone();
  const Topology& rt = replica->topology();
  const std::uint64_t built = rt.path_trees_built();
  for (std::size_t i = 1; i < 40; ++i) {
    expect_reference_paths(rt, w.client, *rt.find_by_ip(w.endpoints[i]));
  }
  EXPECT_EQ(rt.path_trees_built(), built);
}
