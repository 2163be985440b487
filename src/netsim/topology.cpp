#include "netsim/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "netsim/compact.hpp"

namespace cen::sim {

Topology Topology::from_compact(std::shared_ptr<const CompactTopology> compact) {
  if (compact == nullptr) throw std::invalid_argument("from_compact: null backend");
  Topology t;
  t.compact_ = std::move(compact);
  return t;
}

NodeId Topology::add_node(std::string name, net::Ipv4Address ip, RouterProfile profile) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::add_node: compact backend is immutable");
  }
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.name = std::move(name);
  n.ip = ip;
  n.profile = profile;
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  ip_index_.emplace(ip.value(), nodes_.back().id);
  // Invalidate locally only: replicas sharing a frozen snapshot keep
  // their own (still-valid-for-them) reference.
  frozen_.reset();
  local_paths_.clear();
  local_trees_.clear();
  return nodes_.back().id;
}

void Topology::add_link(NodeId a, NodeId b) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::add_link: compact backend is immutable");
  }
  if (a >= nodes_.size() || b >= nodes_.size()) throw std::out_of_range("bad node id");
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  frozen_.reset();
  local_paths_.clear();
  local_trees_.clear();
}

const Node& Topology::node(NodeId id) const {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::node: not available on a compact backend");
  }
  return nodes_.at(id);
}

Node& Topology::node(NodeId id) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::node: not available on a compact backend");
  }
  return nodes_.at(id);
}

net::Ipv4Address Topology::node_ip(NodeId id) const {
  if (compact_ != nullptr) return compact_->ip(id);
  return nodes_.at(id).ip;
}

const RouterProfile& Topology::node_profile(NodeId id) const {
  if (compact_ != nullptr) return compact_->profile(id);
  return nodes_.at(id).profile;
}

std::string_view Topology::node_name(NodeId id) const {
  if (compact_ != nullptr) return compact_->name(id);
  return nodes_.at(id).name;
}

const std::vector<censor::ServiceBanner>& Topology::node_services(NodeId id) const {
  if (compact_ != nullptr) return compact_->services(id);
  return nodes_.at(id).services;
}

std::size_t Topology::node_count() const {
  return compact_ != nullptr ? compact_->node_count() : nodes_.size();
}

std::optional<NodeId> Topology::find_by_ip(net::Ipv4Address ip) const {
  if (compact_ != nullptr) return compact_->find_by_ip(ip);
  auto it = ip_index_.find(ip.value());
  if (it == ip_index_.end()) return std::nullopt;
  return it->second;
}

std::span<const NodeId> Topology::neighbors(NodeId id) const {
  if (compact_ != nullptr) return compact_->neighbors(id);
  const std::vector<NodeId>& nbrs = adjacency_.at(id);
  return std::span<const NodeId>(nbrs.data(), nbrs.size());
}

namespace {

/// Breadth-first hop counts from src into `dist`; the largest value of
/// Dist marks an unreached node. Returns false as soon as a hop count
/// would collide with that sentinel, so the caller can retry wider.
template <class Dist>
bool bfs_depths(const Topology& t, NodeId src, std::vector<Dist>& dist) {
  constexpr Dist kUnreached = std::numeric_limits<Dist>::max();
  dist.assign(t.node_count(), kUnreached);
  std::vector<NodeId> queue;
  queue.reserve(t.node_count());
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : t.neighbors(u)) {
      if (dist[v] != kUnreached) continue;
      if (dist[u] == kUnreached - 1) return false;
      dist[v] = static_cast<Dist>(dist[u] + 1);
      queue.push_back(v);
    }
  }
  return true;
}

}  // namespace

void Topology::freeze_paths() const {
  if (local_paths_.empty() && local_trees_.empty() && frozen_ != nullptr) return;
  auto merged = std::make_shared<Snapshot>();
  if (frozen_ != nullptr) *merged = *frozen_;
  merged->paths.reserve(merged->paths.size() + local_paths_.size());
  for (const auto& [key, paths] : local_paths_) merged->paths.insert_or_assign(key, paths);
  for (const auto& [src, tree] : local_trees_) merged->trees.insert_or_assign(src, tree);
  frozen_ = std::move(merged);
  local_paths_.clear();
  local_trees_.clear();
}

const Topology::SourceTree& Topology::source_tree(NodeId src) const {
  if (frozen_ != nullptr) {
    auto it = frozen_->trees.find(src);
    if (it != frozen_->trees.end()) return *it->second;
  }
  auto it = local_trees_.find(src);
  if (it != local_trees_.end()) return *it->second;

  auto tree = std::make_shared<SourceTree>();
  if (!bfs_depths(*this, src, tree->narrow)) {
    std::vector<std::uint16_t>().swap(tree->narrow);
    bfs_depths(*this, src, tree->wide);
  }
  ++path_trees_built_;
  const SourceTree& ref = *tree;
  local_trees_.emplace(src, std::move(tree));
  return ref;
}

const std::vector<std::vector<NodeId>>& Topology::equal_cost_paths(NodeId src,
                                                                   NodeId dst) const {
  const PathKey key{src, dst};
  if (frozen_ != nullptr) {
    auto it = frozen_->paths.find(key);
    if (it != frozen_->paths.end()) {
      ++path_cache_hits_;
      return *it->second;
    }
  }
  auto it = local_paths_.find(key);
  if (it != local_paths_.end()) {
    ++path_cache_hits_;
    return *it->second;
  }
  ++path_cache_misses_;

  // Enumerate all shortest paths by walking src's BFS tree from dst back
  // to src.
  const SourceTree& tree = source_tree(src);
  std::vector<std::vector<NodeId>> paths;
  if (tree.depth(dst) != SourceTree::kUnreached) {
    // Iterative DFS over predecessors on shortest paths.
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
      // Deterministic order: ascending neighbour id.
      std::vector<NodeId> preds;
      const std::uint32_t pred_depth = tree.depth(head) - 1;
      for (NodeId v : neighbors(head)) {
        if (tree.depth(v) == pred_depth) preds.push_back(v);
      }
      std::sort(preds.begin(), preds.end(), std::greater<NodeId>());
      for (std::size_t i = 0; i + 1 < preds.size(); ++i) {
        std::vector<NodeId> next = partial;
        next.push_back(preds[i]);
        stack.push_back(std::move(next));
      }
      // The last extension reuses `partial`, so a single-path walk costs
      // O(hops) instead of O(hops^2).
      if (!preds.empty()) {
        partial.push_back(preds.back());
        stack.push_back(std::move(partial));
      }
    }
    std::sort(paths.begin(), paths.end());
  }
  auto shared = std::make_shared<const EcmpPaths>(std::move(paths));
  const EcmpPaths& ref = *shared;
  local_paths_.emplace(key, std::move(shared));
  return ref;
}

const std::vector<NodeId>& Topology::route(NodeId src, NodeId dst,
                                           std::uint64_t flow_hash) const {
  const auto& paths = equal_cost_paths(src, dst);
  if (paths.empty()) {
    static const std::vector<NodeId> kEmpty;
    return kEmpty;
  }
  return paths[flow_hash % paths.size()];
}

const std::vector<NodeId>& Topology::route(NodeId src, NodeId dst,
                                           std::uint64_t flow_hash,
                                           std::uint64_t salt) const {
  return route(src, dst, salt == 0 ? flow_hash : mix64(flow_hash ^ salt));
}

std::uint64_t Topology::fingerprint() const {
  if (compact_ != nullptr) return compact_->fingerprint();
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    fp.mix(n.name);
    fp.mix(static_cast<std::uint64_t>(n.ip.value()));
    fp.mix(n.profile.responds_icmp);
    fp.mix(static_cast<std::uint64_t>(n.profile.quote_policy));
    fp.mix(n.profile.rewrite_tos.has_value());
    if (n.profile.rewrite_tos) fp.mix(static_cast<std::uint64_t>(*n.profile.rewrite_tos));
    fp.mix(n.profile.clears_df_flag);
    fp.mix(static_cast<std::uint64_t>(n.services.size()));
    for (const censor::ServiceBanner& s : n.services) {
      fp.mix(static_cast<std::uint64_t>(s.port));
      fp.mix(s.protocol);
      fp.mix(s.banner);
    }
  }
  for (const std::vector<NodeId>& nbrs : adjacency_) {
    fp.mix(static_cast<std::uint64_t>(nbrs.size()));
    for (NodeId nb : nbrs) fp.mix(static_cast<std::uint64_t>(nb));
  }
  return fp.digest();
}

}  // namespace cen::sim
