#include "similarity/hub_labeling.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/check.h"

namespace sgnn::similarity {

namespace {

/// Shortest distance certified by two hub-sorted label lists (the minimum
/// dist sum over shared hubs), or -1 when they share no hub.
template <typename Labels>
int MergeQuery(const Labels& lu, const Labels& lv) {
  int best = -1;
  size_t i = 0, j = 0;
  while (i < lu.size() && j < lv.size()) {
    if (lu[i].hub == lv[j].hub) {
      const int d = lu[i].dist + lv[j].dist;
      if (best == -1 || d < best) best = d;
      ++i;
      ++j;
    } else if (lu[i].hub < lv[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

}  // namespace

using graph::CsrGraph;
using graph::NodeId;

HubLabeling::HubLabeling(const CsrGraph& graph) {
  const NodeId n = graph.num_nodes();
  labels_.resize(n);
  rank_to_node_.resize(n);
  std::iota(rank_to_node_.begin(), rank_to_node_.end(), 0);
  std::sort(rank_to_node_.begin(), rank_to_node_.end(),
            [&graph](NodeId a, NodeId b) {
              const auto da = graph.OutDegree(a), db = graph.OutDegree(b);
              return da != db ? da > db : a < b;
            });

  std::vector<int> dist(n, -1);
  std::vector<NodeId> touched;
  for (NodeId rank = 0; rank < n; ++rank) {
    const NodeId landmark = rank_to_node_[rank];
    // Pruned BFS from the landmark.
    std::queue<NodeId> frontier;
    dist[landmark] = 0;
    touched.clear();
    touched.push_back(landmark);
    frontier.push(landmark);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      const int du = dist[u];
      // Prune: if existing labels already certify a path of length <= du,
      // u (and its subtree via this landmark) gains nothing.
      // Only labels built so far (hubs of rank < current) exist yet.
      const int certified = MergeQuery(labels_[landmark], labels_[u]);
      if (certified != -1 && certified <= du) continue;
      labels_[u].push_back(Entry{rank, du});
      for (NodeId v : graph.Neighbors(u)) {
        if (dist[v] == -1) {
          dist[v] = du + 1;
          touched.push_back(v);
          frontier.push(v);
        }
      }
    }
    for (NodeId u : touched) dist[u] = -1;
  }
}

int HubLabeling::Query(NodeId u, NodeId v) const {
  SGNN_CHECK_LT(u, labels_.size());
  SGNN_CHECK_LT(v, labels_.size());
  if (u == v) return 0;
  return MergeQuery(labels_[u], labels_[v]);
}

int64_t HubLabeling::TotalLabelEntries() const {
  int64_t total = 0;
  for (const auto& label : labels_) total += static_cast<int64_t>(label.size());
  return total;
}

std::vector<NodeId> HubLabeling::Hubs(NodeId u) const {
  SGNN_CHECK_LT(u, labels_.size());
  std::vector<NodeId> hubs;
  hubs.reserve(labels_[u].size());
  for (const Entry& e : labels_[u]) hubs.push_back(rank_to_node_[e.hub]);
  return hubs;
}

}  // namespace sgnn::similarity
