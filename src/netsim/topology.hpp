// Simulated network topology: routers, links, and ECMP path computation.
//
// Paths between a client and an endpoint are all shortest paths in the
// link graph; a flow's 5-tuple hash picks one, mirroring per-flow ECMP
// load balancing. Because CenTrace opens a fresh TCP connection (fresh
// source port) per probe (§4.1), consecutive probes can ride different
// paths — the path-variance problem the tool tames with repetition.
//
// Each router carries a profile controlling the ICMP behaviours the paper
// measures: whether it answers TTL exhaustion at all, how much of the
// original datagram it quotes (RFC 792 vs RFC 1812), and whether it
// rewrites the IP TOS / flags of transiting packets (§4.3 observes TOS
// deltas in 32% of quoted packets).
//
// Two storage backends share this interface:
//   classic  mutable per-node `Node` structs (hand-built scenarios,
//            tests that edit profiles in place);
//   compact  an immutable shared CompactTopology (structure-of-arrays,
//            CSR adjacency — see netsim/compact.hpp), used by worldgen
//            for million-node networks. Copying a compact-backed
//            Topology is a refcount bump.
// The narrow accessors (node_ip / node_profile / node_name /
// node_services, span-returning neighbors) work on both; the mutable
// node() reference and add_node/add_link are classic-only and throw
// std::logic_error on a compact backend.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "censor/device.hpp"  // ServiceBanner, for router management planes
#include "core/flat_map.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"

namespace cen::sim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;

struct RouterProfile {
  bool responds_icmp = true;
  net::QuotePolicy quote_policy = net::QuotePolicy::kRfc792;
  /// If set, the router rewrites the TOS byte of packets it forwards.
  std::optional<std::uint8_t> rewrite_tos;
  /// Quirky gear that clears the DF flag of transiting packets.
  bool clears_df_flag = false;
};

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  net::Ipv4Address ip;
  RouterProfile profile;
  /// Management services exposed on this router's IP (most expose none;
  /// some answer SSH/Telnet with generic banners — the paper's 68-of-163
  /// "has open ports but no vendor label" population).
  std::vector<censor::ServiceBanner> services;
};

class CompactTopology;

/// Maximum number of equal-cost paths enumerated per (src, dst) pair.
constexpr std::size_t kMaxEcmpPaths = 128;

class Topology {
 public:
  Topology() = default;
  /// Wrap an immutable compact topology (shared, zero-copy).
  static Topology from_compact(std::shared_ptr<const CompactTopology> compact);

  /// Classic-backend mutation; throws std::logic_error on a compact backend.
  NodeId add_node(std::string name, net::Ipv4Address ip, RouterProfile profile = {});
  /// Undirected link between two existing nodes (classic backend only).
  void add_link(NodeId a, NodeId b);

  /// Whole-node access (classic backend only — compact nodes have no
  /// materialized Node struct; use the narrow accessors below).
  const Node& node(NodeId id) const;
  Node& node(NodeId id);

  /// Narrow per-field accessors, valid on both backends. These are what
  /// the engine's hot paths use.
  net::Ipv4Address node_ip(NodeId id) const;
  const RouterProfile& node_profile(NodeId id) const;
  std::string_view node_name(NodeId id) const;
  const std::vector<censor::ServiceBanner>& node_services(NodeId id) const;

  bool compact() const { return compact_ != nullptr; }
  const std::shared_ptr<const CompactTopology>& compact_backend() const { return compact_; }

  std::size_t node_count() const;
  std::optional<NodeId> find_by_ip(net::Ipv4Address ip) const;
  /// Direct neighbours of a node (link adjacency).
  std::span<const NodeId> neighbors(NodeId id) const;

  /// All shortest paths src→dst (inclusive of both), capped at
  /// kMaxEcmpPaths, in a deterministic order. Cached per (src, dst). A
  /// miss walks the predecessors of dst in src's shortest-path tree: one
  /// BFS per source, built on the source's first miss and kept, so every
  /// later destination from the same source costs only the walk. Both
  /// caches are invalidated by add_link/add_node.
  const std::vector<std::vector<NodeId>>& equal_cost_paths(NodeId src, NodeId dst) const;

  /// Pick the path a given flow hash rides.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash) const;

  /// Route with a routing-epoch salt folded in (the fault layer's route
  /// flapping). A zero salt selects exactly the unsalted path.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                                   std::uint64_t salt) const;

  /// Structural digest over nodes (name, IP, router profile, services)
  /// and links — a campaign cache-key component: any topology edit must
  /// change it. Backend-independent: a compact topology and its classic
  /// inflation digest identically.
  std::uint64_t fingerprint() const;

  /// Promote every locally cached (src, dst) path list and every
  /// per-source shortest-path tree into an immutable shared snapshot.
  /// Copies of this topology (worker replicas) then share the snapshot by
  /// reference instead of deep-copying the caches, and never rebuild a
  /// tree the snapshot holds. Logically const: both caches are
  /// memoization, not topology state. Safe to share across threads
  /// because the snapshot and its trees are never mutated after creation;
  /// paths and trees computed *after* the freeze land in the
  /// instance-local caches.
  void freeze_paths() const;

  /// Path-cache effectiveness counters (host-scheduling dependent on
  /// replicas — export them wall-domain only, never into deterministic
  /// snapshots).
  std::uint64_t path_cache_hits() const { return path_cache_hits_; }
  std::uint64_t path_cache_misses() const { return path_cache_misses_; }
  /// Shortest-path trees (full BFS runs) this instance has built; a copy
  /// starts from its original's count. Same wall-domain caveat.
  std::uint64_t path_trees_built() const { return path_trees_built_; }
  /// Path lists in the shared frozen snapshot (0 before the first freeze).
  std::size_t frozen_path_entries() const {
    return frozen_ != nullptr ? frozen_->paths.size() : 0;
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
  using TreeMap = core::FlatMap<NodeId, std::shared_ptr<const SourceTree>>;
  /// What freeze_paths() publishes.
  struct Snapshot {
    PathMap paths;
    TreeMap trees;
  };

  /// src's shortest-path tree: from the snapshot, the local cache, or a
  /// fresh BFS (counted in path_trees_built_).
  const SourceTree& source_tree(NodeId src) const;

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  core::FlatMap<std::uint32_t, NodeId> ip_index_;
  /// Compact backend; when set, nodes_/adjacency_/ip_index_ stay empty.
  std::shared_ptr<const CompactTopology> compact_;
  /// Immutable shared snapshot (read-only, shareable across replicas).
  mutable std::shared_ptr<const Snapshot> frozen_;
  /// Instance-local additions since the last freeze.
  mutable PathMap local_paths_;
  mutable TreeMap local_trees_;
  mutable std::uint64_t path_cache_hits_ = 0;
  mutable std::uint64_t path_cache_misses_ = 0;
  mutable std::uint64_t path_trees_built_ = 0;
};

}  // namespace cen::sim
