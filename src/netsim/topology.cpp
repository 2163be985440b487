#include "netsim/topology.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "core/rng.hpp"

namespace cen::sim {

/// One slot per source asked for. A null slot is a tree some copy is
/// building: others wait on `published` instead of running a second BFS.
/// A published tree is never mutated or replaced, so the reference
/// source_tree() returns is read without the lock.
class Topology::TreeCache {
 public:
  std::mutex mu;
  std::condition_variable published;
  core::FlatMap<NodeId, std::shared_ptr<const SourceTree>> trees;
};

Topology::Topology(std::shared_ptr<const CompactTopology> compact)
    : compact_(std::move(compact)), trees_(std::make_shared<TreeCache>()) {
  if (compact_ == nullptr) throw std::invalid_argument("Topology: null network");
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
  if (local_paths_.empty()) return;
  auto merged = frozen_ != nullptr ? std::make_shared<PathMap>(*frozen_)
                                   : std::make_shared<PathMap>();
  merged->reserve(merged->size() + local_paths_.size());
  for (const auto& [key, paths] : local_paths_) merged->insert_or_assign(key, paths);
  frozen_ = std::move(merged);
  local_paths_.clear();
}

const Topology::SourceTree& Topology::source_tree(NodeId src) const {
  TreeCache& cache = *trees_;
  std::unique_lock lock(cache.mu);
  for (;;) {
    const auto [slot, claimed] = cache.trees.emplace(src, nullptr);
    if (claimed) break;
    if (slot->second != nullptr) return *slot->second;
    cache.published.wait(lock);
  }
  lock.unlock();

  auto tree = std::make_shared<SourceTree>();
  try {
    if (!bfs_depths(*this, src, tree->narrow)) {
      std::vector<std::uint16_t>().swap(tree->narrow);
      bfs_depths(*this, src, tree->wide);
    }
  } catch (...) {
    // Free the slot so a waiter builds the tree instead of waiting forever.
    lock.lock();
    cache.trees.erase(src);
    cache.published.notify_all();
    throw;
  }
  ++path_trees_built_;
  const SourceTree& ref = *tree;
  lock.lock();
  cache.trees.find(src)->second = std::move(tree);
  cache.published.notify_all();
  return ref;
}

const std::vector<std::vector<NodeId>>& Topology::equal_cost_paths(NodeId src,
                                                                   NodeId dst) const {
  const PathKey key{src, dst};
  if (frozen_ != nullptr) {
    auto it = frozen_->find(key);
    if (it != frozen_->end()) {
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

}  // namespace cen::sim
