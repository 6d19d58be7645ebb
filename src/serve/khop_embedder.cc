#include "serve/khop_embedder.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "graph/spmm.h"
#include "subgraph/khop.h"

namespace sgnn::serve {

using graph::NodeId;
using tensor::Matrix;

KHopEmbedder::KHopEmbedder(const graph::CsrGraph& graph,
                           const tensor::Matrix& features, int hops,
                           int64_t node_budget)
    : graph_(graph),
      features_(features),
      hops_(hops),
      node_budget_(node_budget) {
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(node_budget, 0);
  SGNN_CHECK_EQ(features.rows(), static_cast<int64_t>(graph.num_nodes()));
  inv_sqrt_degree_.resize(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    // Renormalisation-trick degree: weighted degree of A plus the self loop.
    const double d = graph.WeightedDegree(u) + 1.0;
    inv_sqrt_degree_[u] = static_cast<float>(1.0 / std::sqrt(d));
  }
}

void KHopEmbedder::Embed(NodeId center, std::span<float> out) const {
  SGNN_CHECK_EQ(static_cast<int64_t>(out.size()), dim());
  const subgraph::EgoNet ego =
      subgraph::ExtractKHop(graph_, center, hops_, node_budget_);
  const int64_t k = static_cast<int64_t>(ego.nodes.size());
  const int64_t cols = dim();

  // Gather the ball's raw features (the request's feature-movement cost).
  Matrix cur(k, cols);
  for (int64_t i = 0; i < k; ++i) {
    auto src = features_.Row(static_cast<int64_t>(ego.nodes[i]));
    std::copy(src.begin(), src.end(), cur.Row(i).begin());
  }
  auto& counters = common::GlobalCounters();
  counters.floats_moved += static_cast<uint64_t>(k * cols);
  counters.Acquire(static_cast<uint64_t>(2 * k * cols));

  // Local S^K over the ball through the shared SpMM row body, with
  // global-degree coefficients: w * d_u^-1/2 * d_v^-1/2 per edge (float,
  // left to right) and d_u^-1/2 squared for the self loop. Only the center
  // row is read out, so boundary inexactness never surfaces (see header).
  const auto& sub = ego.subgraph;
  std::vector<float> coeff(static_cast<size_t>(sub.num_edges()));
  std::vector<float> self(static_cast<size_t>(k));
  for (int64_t u = 0; u < k; ++u) {
    const float inv_u = inv_sqrt_degree_[ego.nodes[u]];
    self[u] = inv_u * inv_u;
    for (int64_t e = sub.offsets()[u]; e < sub.offsets()[u + 1]; ++e) {
      coeff[e] = sub.weights()[e] * inv_u *
                 inv_sqrt_degree_[ego.nodes[sub.neighbors()[e]]];
    }
  }
  Matrix next(k, cols);
  for (int step = 0; step < hops_; ++step) {
    next.Zero();
    const graph::CsrSpmmView<graph::EdgeIndex> view{
        sub.offsets().data(), sub.neighbors().data(), coeff.data(),
        self.data(), cur.data(), next.data(), cols};
    graph::SpmmRows(view, 0, k, cols);
    std::swap(cur, next);
  }

  auto center_row = cur.Row(0);  // ego.nodes[0] == center by construction.
  std::copy(center_row.begin(), center_row.end(), out.begin());
  counters.Release(static_cast<uint64_t>(2 * k * cols));
}

}  // namespace sgnn::serve
