// The one topology storage: an immutable structure-of-arrays network.
//
// Every network the simulator runs — the hand-built country scenarios,
// the test fixtures and the million-host worldgen worlds alike — is
// assembled through `CompactTopologyBuilder` and frozen into a
// `CompactTopology`. The per-node data lives in contiguous parallel
// arrays:
//
//   ips_[id]          4 B   node address
//   profiles_[id]     8 B   RouterProfile (POD, no indirection)
//   name_off/len_[id] 8 B   slice into one name arena
//   adj_off_[id]      4 B   CSR row start; neighbours live in adj_
//   services_         sparse FlatMap (most nodes expose nothing)
//
// All ids are 32-bit (`NodeId`); the builder guards the id and link-count
// overflow edges explicitly. The finished object is shared as
// shared_ptr<const CompactTopology>: `sim::Topology` (netsim/topology.hpp)
// wraps it with the ECMP path cache, and copying a Topology — a worker
// replica under the clone()/reset_epoch() contract — bumps a refcount.
// fingerprint() is the structural digest campaign cache keys use.
#pragma once

#include <algorithm>
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

/// Each router carries a profile controlling the ICMP behaviours the paper
/// measures: whether it answers TTL exhaustion at all, how much of the
/// original datagram it quotes (RFC 792 vs RFC 1812), and whether it
/// rewrites the IP TOS / flags of transiting packets (§4.3 observes TOS
/// deltas in 32% of quoted packets).
struct RouterProfile {
  bool responds_icmp = true;
  net::QuotePolicy quote_policy = net::QuotePolicy::kRfc792;
  /// If set, the router rewrites the TOS byte of packets it forwards.
  std::optional<std::uint8_t> rewrite_tos;
  /// Quirky gear that clears the DF flag of transiting packets.
  bool clears_df_flag = false;
};

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
  /// Management services (most routers expose none; some answer
  /// SSH/Telnet with generic banners — the paper's 68-of-163 "has open
  /// ports but no vendor label" population). Returns a shared empty
  /// vector for the (vast) majority of nodes that expose nothing.
  const std::vector<censor::ServiceBanner>& services(NodeId id) const;
  /// The earliest-added node with this address.
  std::optional<NodeId> find_by_ip(net::Ipv4Address ip) const;
  /// Links in insertion order (undirected, as given to the builder).
  const std::vector<std::pair<NodeId, NodeId>>& links() const { return links_; }

  /// Structural digest over nodes (name, IP, router profile, services)
  /// and links — a campaign cache-key component: any topology edit must
  /// change it.
  std::uint64_t fingerprint() const;

  /// Resident bytes of the arrays (capacity-based, heap children included).
  std::size_t bytes() const;

 private:
  friend class CompactTopologyBuilder;

  std::vector<std::uint32_t> ips_;
  std::vector<RouterProfile> profiles_;
  /// Each name is one slice of the arena (empty names take no bytes).
  std::vector<std::uint32_t> name_off_;
  std::vector<std::uint32_t> name_len_;
  std::string name_arena_;
  /// CSR adjacency: neighbours of id are adj_[adj_off_[id] .. adj_off_[id+1]).
  std::vector<std::uint32_t> adj_off_;
  std::vector<NodeId> adj_;
  /// Undirected link list in insertion order.
  std::vector<std::pair<NodeId, NodeId>> links_;
  /// Sparse management services (FlatMap: sorted, shareable, cheap to copy).
  core::FlatMap<NodeId, std::vector<censor::ServiceBanner>> services_;
  /// (ip, id) sorted by ip then id; the first entry per ip wins. Empty
  /// when ips_ strictly ascends with id: find_by_ip then searches ips_.
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
  /// Undirected link; each end's neighbour row grows in call order.
  /// Throws std::out_of_range on unknown ids, std::length_error when the
  /// CSR offset table would overflow 32 bits.
  void add_link(NodeId a, NodeId b);
  void add_service(NodeId id, censor::ServiceBanner banner);

  /// Address of an added node (throws std::out_of_range on unknown ids).
  net::Ipv4Address ip(NodeId id) const;
  /// Make an added node answer TTL exhaustion (a router a device sits
  /// behind must, for CenTrace to localize the device).
  void force_responds_icmp(NodeId id);

  std::size_t node_count() const { return ips_.size(); }
  std::shared_ptr<const CompactTopology> build();

 private:
  std::size_t max_nodes_;
  std::vector<std::uint32_t> ips_;
  std::vector<RouterProfile> profiles_;
  std::vector<std::uint32_t> name_off_;
  std::vector<std::uint32_t> name_len_;
  std::string name_arena_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  core::FlatMap<NodeId, std::vector<censor::ServiceBanner>> services_;
};

}  // namespace cen::sim
