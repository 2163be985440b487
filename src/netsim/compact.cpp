#include "netsim/compact.hpp"

#include <algorithm>
#include <stdexcept>

namespace cen::sim {

const std::vector<censor::ServiceBanner>& CompactTopology::services(NodeId id) const {
  static const std::vector<censor::ServiceBanner> kNone;
  auto it = services_.find(id);
  return it == services_.end() ? kNone : it->second;
}

std::optional<NodeId> CompactTopology::find_by_ip(net::Ipv4Address ip) const {
  auto it = std::lower_bound(
      ip_index_.begin(), ip_index_.end(),
      std::pair<std::uint32_t, NodeId>{ip.value(), 0});
  if (it == ip_index_.end() || it->first != ip.value()) return std::nullopt;
  return it->second;
}

std::size_t CompactTopology::bytes() const {
  std::size_t total = 0;
  total += ips_.capacity() * sizeof(std::uint32_t);
  total += profiles_.capacity() * sizeof(RouterProfile);
  total += name_off_.capacity() * sizeof(std::uint32_t);
  total += name_len_.capacity() * sizeof(std::uint32_t);
  total += name_arena_.capacity();
  total += adj_off_.capacity() * sizeof(std::uint32_t);
  total += adj_.capacity() * sizeof(NodeId);
  total += links_.capacity() * sizeof(std::pair<NodeId, NodeId>);
  total += ip_index_.capacity() * sizeof(std::pair<std::uint32_t, NodeId>);
  for (const auto& [id, svcs] : services_) {
    total += sizeof(id) + sizeof(svcs);
    for (const censor::ServiceBanner& s : svcs) {
      total += sizeof(s) + s.protocol.capacity() + s.banner.capacity();
    }
  }
  return total;
}

Topology CompactTopology::inflate() const {
  Topology t;
  for (NodeId id = 0; id < node_count(); ++id) {
    NodeId got = t.add_node(std::string(name(id)), ip(id), profiles_[id]);
    (void)got;
    for (const censor::ServiceBanner& s : services(id)) {
      t.node(id).services.push_back(s);
    }
  }
  // Replaying links in insertion order reproduces the exact adjacency-list
  // order of a classic build, so the fingerprints match.
  for (const auto& [a, b] : links_) t.add_link(a, b);
  return t;
}

void CompactTopologyBuilder::reserve(std::size_t nodes, std::size_t link_hint) {
  ips_.reserve(nodes);
  profiles_.reserve(nodes);
  name_off_.reserve(nodes);
  name_len_.reserve(nodes);
  links_.reserve(link_hint);
}

NodeId CompactTopologyBuilder::add_node(std::string_view name, net::Ipv4Address ip,
                                        RouterProfile profile) {
  if (ips_.size() >= max_nodes_) {
    throw std::length_error("CompactTopologyBuilder: 32-bit node id space exhausted");
  }
  const NodeId id = static_cast<NodeId>(ips_.size());
  ips_.push_back(ip.value());
  profiles_.push_back(profile);
  if (name.empty()) {
    name_off_.push_back(0);
    name_len_.push_back(0);
  } else {
    // Intern: identical names share one arena slice.
    auto it = interned_.find(std::string(name));
    std::uint32_t off;
    if (it != interned_.end()) {
      off = it->second;
    } else {
      if (name_arena_.size() + name.size() > 0xffffffffull) {
        throw std::length_error("CompactTopologyBuilder: name arena overflows 32 bits");
      }
      off = static_cast<std::uint32_t>(name_arena_.size());
      name_arena_.append(name);
      interned_.emplace(std::string(name), off);
    }
    name_off_.push_back(off);
    name_len_.push_back(static_cast<std::uint32_t>(name.size()));
  }
  return id;
}

void CompactTopologyBuilder::add_link(NodeId a, NodeId b) {
  if (a >= ips_.size() || b >= ips_.size()) {
    throw std::out_of_range("CompactTopologyBuilder: bad node id");
  }
  // Each link lands twice in the CSR array; the offset table is 32-bit.
  if (links_.size() >= 0x7fffffffull) {
    throw std::length_error("CompactTopologyBuilder: CSR adjacency overflows 32 bits");
  }
  links_.emplace_back(a, b);
}

void CompactTopologyBuilder::add_service(NodeId id, censor::ServiceBanner banner) {
  if (id >= ips_.size()) {
    throw std::out_of_range("CompactTopologyBuilder: bad node id");
  }
  services_[id].push_back(std::move(banner));
}

std::shared_ptr<const CompactTopology> CompactTopologyBuilder::build() {
  auto topo = std::make_shared<CompactTopology>();
  const std::size_t n = ips_.size();
  topo->ips_ = std::move(ips_);
  topo->profiles_ = std::move(profiles_);
  topo->name_off_ = std::move(name_off_);
  topo->name_len_ = std::move(name_len_);
  topo->name_arena_ = std::move(name_arena_);
  topo->services_ = std::move(services_);

  // CSR: count degrees, prefix-sum, then fill in link order — which
  // appends b to a's row and a to b's row exactly as the classic
  // add_link() does, so neighbour order (and the fingerprint) match.
  std::vector<std::uint32_t> degree(n, 0);
  for (const auto& [a, b] : links_) {
    ++degree[a];
    ++degree[b];
  }
  topo->adj_off_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) topo->adj_off_[i + 1] = topo->adj_off_[i] + degree[i];
  topo->adj_.resize(links_.size() * 2);
  std::vector<std::uint32_t> cursor(topo->adj_off_.begin(), topo->adj_off_.end() - 1);
  for (const auto& [a, b] : links_) {
    topo->adj_[cursor[a]++] = b;
    topo->adj_[cursor[b]++] = a;
  }
  topo->links_ = std::move(links_);

  topo->ip_index_.reserve(n);
  for (NodeId id = 0; id < n; ++id) topo->ip_index_.emplace_back(topo->ips_[id], id);
  // Sort by (ip, id): lower_bound then lands on the earliest-added node
  // for a duplicated ip, matching the classic index's first-wins emplace.
  std::sort(topo->ip_index_.begin(), topo->ip_index_.end());

  interned_.clear();
  return topo;
}

}  // namespace cen::sim
