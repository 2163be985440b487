// Simulated network topology: routers, links, and ECMP path computation.
//
// Paths between a client and an endpoint are all shortest paths in the
// link graph; a flow's 5-tuple hash picks one, mirroring per-flow ECMP
// load balancing. Because CenTrace opens a fresh TCP connection (fresh
// source port) per probe (§4.1), consecutive probes can ride different
// paths — the path-variance problem the tool tames with repetition.
//
// The network itself is a shared immutable CompactTopology
// (netsim/compact.hpp), built once through CompactTopologyBuilder; a
// Topology always wraps one. What a Topology adds is ECMP memoization in
// two layers: per-source shortest-path trees, one per source per network
// in a thread-safe cache every copy shares, and per-(src, dst) path lists,
// which each copy keeps for itself. Copying a Topology (a worker replica)
// shares the network by refcount, the tree cache by reference and the
// frozen path snapshot by reference.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "netsim/compact.hpp"

namespace cen::sim {

/// Maximum number of equal-cost paths enumerated per (src, dst) pair.
constexpr std::size_t kMaxEcmpPaths = 128;

class Topology {
 public:
  /// Wrap a built topology (shared, zero-copy). Throws
  /// std::invalid_argument on null.
  explicit Topology(std::shared_ptr<const CompactTopology> compact);

  net::Ipv4Address node_ip(NodeId id) const { return compact_->ip(id); }
  const RouterProfile& node_profile(NodeId id) const { return compact_->profile(id); }
  std::string_view node_name(NodeId id) const { return compact_->name(id); }
  const std::vector<censor::ServiceBanner>& node_services(NodeId id) const {
    return compact_->services(id);
  }

  std::size_t node_count() const { return compact_->node_count(); }
  std::optional<NodeId> find_by_ip(net::Ipv4Address ip) const {
    return compact_->find_by_ip(ip);
  }
  /// Direct neighbours of a node (link adjacency).
  std::span<const NodeId> neighbors(NodeId id) const { return compact_->neighbors(id); }
  /// Links in insertion order.
  const std::vector<std::pair<NodeId, NodeId>>& links() const { return compact_->links(); }

  /// All shortest paths src→dst (inclusive of both), capped at
  /// kMaxEcmpPaths, in a deterministic order. Cached per (src, dst). A
  /// miss walks the predecessors of dst in src's shortest-path tree: one
  /// BFS per source per network, built on the first miss of any copy of
  /// this topology and kept, so every later destination from the same
  /// source, on any copy, costs only the walk.
  const std::vector<std::vector<NodeId>>& equal_cost_paths(NodeId src, NodeId dst) const;

  /// Pick the path a given flow hash rides.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash) const;

  /// Route with a routing-epoch salt folded in (the fault layer's route
  /// flapping). A zero salt selects exactly the unsalted path.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                                   std::uint64_t salt) const;

  /// CompactTopology::fingerprint(): the structural digest campaign cache
  /// keys use.
  std::uint64_t fingerprint() const { return compact_->fingerprint(); }

  /// Promote every locally cached (src, dst) path list into an immutable
  /// shared snapshot. Copies of this topology (worker replicas) then share
  /// the snapshot by reference instead of deep-copying the cache.
  /// Logically const: the path cache is memoization, not topology state.
  /// Safe to share across threads because the snapshot is never mutated
  /// after creation; paths computed *after* the freeze land in the
  /// instance-local cache. Trees need no freeze: every copy already shares
  /// them.
  void freeze_paths() const;

  /// Path-cache effectiveness counters (host-scheduling dependent on
  /// replicas — export them wall-domain only, never into deterministic
  /// snapshots).
  std::uint64_t path_cache_hits() const { return path_cache_hits_; }
  std::uint64_t path_cache_misses() const { return path_cache_misses_; }
  /// Shortest-path trees (full BFS runs) this instance has built; a copy
  /// starts from its original's count. A tree another copy built, or is
  /// building, is not counted again, so copies taken before any tree
  /// exists sum to the distinct trees built for the network. Same
  /// wall-domain caveat.
  std::uint64_t path_trees_built() const { return path_trees_built_; }
  /// Path lists in the shared frozen snapshot (0 before the first freeze).
  std::size_t frozen_path_entries() const {
    return frozen_ != nullptr ? frozen_->size() : 0;
  }

 private:
  using EcmpPaths = std::vector<std::vector<NodeId>>;
  using PathKey = std::pair<NodeId, NodeId>;
  /// Values are shared_ptr so returned path references stay stable while
  /// the flat map's backing vector grows, and so freezing/copying shares
  /// the (immutable) path lists instead of duplicating them.
  using PathMap = core::FlatMap<PathKey, std::shared_ptr<const EcmpPaths>>;

  /// Hop distance from one source to every node — the BFS layers of the
  /// source's shortest-path tree. Stored as uint16_t (2 bytes per node, 2
  /// MB on a million-node world); a graph too deep for that falls back to
  /// uint32_t instead of truncating.
  struct SourceTree {
    static constexpr std::uint32_t kUnreached = 0xffffffffu;
    std::vector<std::uint16_t> narrow;  // 0xffff = unreached; empty if wide
    std::vector<std::uint32_t> wide;    // kUnreached = unreached
    std::uint32_t depth(NodeId v) const {
      if (!wide.empty()) return wide[v];
      return narrow[v] == 0xffffu ? kUnreached : narrow[v];
    }
  };
  /// Every source's tree over one network (topology.cpp): made by the
  /// constructor, shared by every copy, locked only on a path-cache miss.
  class TreeCache;

  /// src's shortest-path tree from the shared cache; on the network's
  /// first request for src, a fresh BFS (counted in path_trees_built_).
  const SourceTree& source_tree(NodeId src) const;

  std::shared_ptr<const CompactTopology> compact_;
  std::shared_ptr<TreeCache> trees_;
  /// Immutable shared snapshot (read-only, shareable across replicas).
  mutable std::shared_ptr<const PathMap> frozen_;
  /// Instance-local additions since the last freeze.
  mutable PathMap local_paths_;
  mutable std::uint64_t path_cache_hits_ = 0;
  mutable std::uint64_t path_cache_misses_ = 0;
  mutable std::uint64_t path_trees_built_ = 0;
};

}  // namespace cen::sim
