// Compact structure-of-arrays topology backend (ISSUE 8).
//
// The classic `Topology` stores a `Node` struct per router — a heap
// string, a services vector and a per-node adjacency vector. At the
// worldgen scales (a million endpoint hosts, thousands of ASes) that
// representation costs hundreds of bytes per node and scatters the hot
// per-hop lookups across the heap. `CompactTopology` flattens the same
// information into contiguous parallel arrays:
//
//   ips_[id]          4 B   node address
//   profiles_[id]     8 B   RouterProfile (POD, no indirection)
//   name_off/len_[id] 8 B   slice into one interned string arena
//   adj_off_[id]      4 B   CSR row start; neighbours live in adj_
//   services_         sparse FlatMap (most nodes expose nothing)
//
// All ids are 32-bit (`NodeId`); the builder guards the id and link-count
// overflow edges explicitly. The finished object is immutable and shared
// via shared_ptr<const CompactTopology>, which is what keeps worker
// replicas refcount-bump cheap under the COW clone()/reset_epoch()
// contract: a compact-backed `Topology` copies as two shared_ptr bumps.
//
// fingerprint() and Topology::fingerprint() are one definition (in
// topology.cpp), fed the same word stream by both backends, so campaign
// cache keys do not depend on which backend built the network; inflate()
// materializes a classic Topology for the randomized equivalence tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_map.hpp"
#include "netsim/topology.hpp"

namespace cen::sim {

class CompactTopology {
 public:
  std::size_t node_count() const { return ips_.size(); }
  std::size_t link_count() const { return links_.size(); }

  net::Ipv4Address ip(NodeId id) const { return net::Ipv4Address(ips_[id]); }
  const RouterProfile& profile(NodeId id) const { return profiles_[id]; }
  std::string_view name(NodeId id) const {
    return std::string_view(name_arena_).substr(name_off_[id], name_len_[id]);
  }
  std::span<const NodeId> neighbors(NodeId id) const {
    return std::span<const NodeId>(adj_.data() + adj_off_[id],
                                   adj_off_[id + 1] - adj_off_[id]);
  }
  /// Management services; returns a shared empty vector for the (vast)
  /// majority of nodes that expose none.
  const std::vector<censor::ServiceBanner>& services(NodeId id) const;
  std::optional<NodeId> find_by_ip(net::Ipv4Address ip) const;
  /// Links in insertion order (undirected, as given to the builder).
  const std::vector<std::pair<NodeId, NodeId>>& links() const { return links_; }

  /// Topology::fingerprint()'s one definition, fed from these arrays: equal
  /// to the classic digest over equivalent content.
  std::uint64_t fingerprint() const;

  /// Resident bytes of the arrays (capacity-based, heap children included).
  std::size_t bytes() const;

  /// Materialize an equivalent classic (pointer-based) Topology — the
  /// reference object the equivalence tests diff this backend against.
  Topology inflate() const;

 private:
  friend class CompactTopologyBuilder;

  std::vector<std::uint32_t> ips_;
  std::vector<RouterProfile> profiles_;
  /// Interned names: identical strings share one arena slice.
  std::vector<std::uint32_t> name_off_;
  std::vector<std::uint32_t> name_len_;
  std::string name_arena_;
  /// CSR adjacency: neighbours of id are adj_[adj_off_[id] .. adj_off_[id+1]).
  std::vector<std::uint32_t> adj_off_;
  std::vector<NodeId> adj_;
  /// Original undirected link list (adjacency order + inflate() fidelity).
  std::vector<std::pair<NodeId, NodeId>> links_;
  /// Sparse management services (FlatMap: sorted, shareable, cheap to copy).
  core::FlatMap<NodeId, std::vector<censor::ServiceBanner>> services_;
  /// (ip, id) sorted by ip then id; first entry per ip wins, mirroring the
  /// classic ip_index_'s first-wins emplace.
  std::vector<std::pair<std::uint32_t, NodeId>> ip_index_;
};

/// Hard ceiling on node ids: ids are 32-bit and kInvalidNode is reserved.
constexpr std::size_t kMaxCompactNodes = 0xfffffffeull;

/// Accumulates nodes/links/services, then freezes them into an immutable
/// CompactTopology. The builder is single-use: build() leaves it empty.
class CompactTopologyBuilder {
 public:
  /// `max_nodes` lowers the 32-bit id ceiling (tests exercise the
  /// overflow guard without four billion inserts).
  explicit CompactTopologyBuilder(std::size_t max_nodes = kMaxCompactNodes)
      : max_nodes_(std::min(max_nodes, kMaxCompactNodes)) {}

  void reserve(std::size_t nodes, std::size_t link_hint);
  /// Throws std::length_error once the id space (max_nodes) is exhausted.
  NodeId add_node(std::string_view name, net::Ipv4Address ip, RouterProfile profile = {});
  /// Throws std::out_of_range on unknown ids, std::length_error when the
  /// CSR offset table would overflow 32 bits.
  void add_link(NodeId a, NodeId b);
  void add_service(NodeId id, censor::ServiceBanner banner);

  std::size_t node_count() const { return ips_.size(); }
  std::shared_ptr<const CompactTopology> build();

 private:
  std::size_t max_nodes_;
  std::vector<std::uint32_t> ips_;
  std::vector<RouterProfile> profiles_;
  std::vector<std::uint32_t> name_off_;
  std::vector<std::uint32_t> name_len_;
  std::string name_arena_;
  core::FlatMap<std::string, std::uint32_t> interned_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  core::FlatMap<NodeId, std::vector<censor::ServiceBanner>> services_;
};

}  // namespace cen::sim
