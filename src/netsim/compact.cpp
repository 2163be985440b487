#include "netsim/compact.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/fingerprint.hpp"

namespace cen::sim {

const std::vector<censor::ServiceBanner>& CompactTopology::services(NodeId id) const {
  static const std::vector<censor::ServiceBanner> kNone;
  auto it = services_.find(id);
  return it == services_.end() ? kNone : it->second;
}

std::optional<NodeId> CompactTopology::find_by_ip(net::Ipv4Address ip) const {
  if (ip_index_.empty()) {  // ips_ ascends: a node's id is its rank
    auto it = std::lower_bound(ips_.begin(), ips_.end(), ip.value());
    if (it == ips_.end() || *it != ip.value()) return std::nullopt;
    return static_cast<NodeId>(it - ips_.begin());
  }
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

namespace {

/// ip + RouterProfile as one digest word: ip in bits 0-31, quote policy
/// in 32-39, the TOS rewrite in 40-48 (value plus a presence bit), then
/// the ICMP and DF flags, and whether a name and a services block follow
/// (most worldgen hosts have neither, so they cost no words).
std::uint64_t node_word(net::Ipv4Address ip, const RouterProfile& p, bool named,
                        bool has_services) {
  std::uint64_t w = ip.value();
  w |= static_cast<std::uint64_t>(p.quote_policy) << 32;
  if (p.rewrite_tos) w |= (std::uint64_t{0x100} | *p.rewrite_tos) << 40;
  w |= static_cast<std::uint64_t>(p.responds_icmp) << 49;
  w |= static_cast<std::uint64_t>(p.clears_df_flag) << 50;
  w |= static_cast<std::uint64_t>(named) << 51;
  w |= static_cast<std::uint64_t>(has_services) << 52;
  return w;
}

}  // namespace

/// Per node, in id order: the ip+profile word, the name and the services
/// (each only when present, as node_word() records), and the CSR offset
/// where the node's adjacency row ends; the adjacency rows are streamed
/// alongside, two neighbour ids per word. The words go through four hash
/// lanes.
std::uint64_t CompactTopology::fingerprint() const {
  const std::size_t count = node_count();
  LaneFingerprint fp;
  fp.mix(static_cast<std::uint64_t>(count));
  auto next_service = services_.begin();  // the sorted sparse map, walked once
  std::uint64_t held = 0;  // neighbour id waiting for the second half of its word
  bool holding = false;
  for (NodeId id = 0; id < count; ++id) {
    const std::string_view nm = name(id);
    std::span<const censor::ServiceBanner> svcs;
    if (next_service != services_.end() && next_service->first == id) {
      svcs = (next_service++)->second;
    }
    fp.mix(node_word(ip(id), profiles_[id], !nm.empty(), !svcs.empty()));
    if (!nm.empty()) fp.mix(nm);
    if (!svcs.empty()) {
      fp.mix(static_cast<std::uint64_t>(svcs.size()));
      for (const censor::ServiceBanner& s : svcs) {
        fp.mix(static_cast<std::uint64_t>(s.port));
        fp.mix(s.protocol);
        fp.mix(s.banner);
      }
    }
    fp.mix(static_cast<std::uint64_t>(adj_off_[id + 1]));
    for (NodeId nb : neighbors(id)) {
      if (holding) fp.mix((held << 32) | nb);
      held = nb;
      holding = !holding;
    }
  }
  if (holding) fp.mix((held << 32) | kInvalidNode);
  return fp.digest();
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
  if (name_arena_.size() + name.size() > 0xffffffffull) {
    throw std::length_error("CompactTopologyBuilder: name arena overflows 32 bits");
  }
  const NodeId id = static_cast<NodeId>(ips_.size());
  ips_.push_back(ip.value());
  profiles_.push_back(profile);
  name_off_.push_back(static_cast<std::uint32_t>(name_arena_.size()));
  name_len_.push_back(static_cast<std::uint32_t>(name.size()));
  name_arena_.append(name);
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

net::Ipv4Address CompactTopologyBuilder::ip(NodeId id) const {
  return net::Ipv4Address(ips_.at(id));
}

void CompactTopologyBuilder::force_responds_icmp(NodeId id) {
  profiles_.at(id).responds_icmp = true;
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

  // CSR: count degrees, prefix-sum, then fill in link order, appending b
  // to a's row and a to b's row — neighbour order is call order.
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

  // Worldgen adds nodes in ascending ip order, and then ips_ is its own
  // index. Otherwise sort (ip, id) pairs: lower_bound then lands on the
  // earliest-added node for a duplicated ip.
  const auto& ips = topo->ips_;
  if (std::adjacent_find(ips.begin(), ips.end(), std::greater_equal<>()) == ips.end()) {
    return topo;
  }
  topo->ip_index_.reserve(n);
  for (NodeId id = 0; id < n; ++id) topo->ip_index_.emplace_back(ips[id], id);
  std::sort(topo->ip_index_.begin(), topo->ip_index_.end());
  return topo;
}

}  // namespace cen::sim
