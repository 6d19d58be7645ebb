#ifndef SGNN_PPR_PUSH_H_
#define SGNN_PPR_PUSH_H_

#include <queue>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/status.h"
#include "graph/types.h"
#include "ppr/ppr.h"

namespace sgnn::ppr {

/// The one forward-push loop, over any adjacency tier. `ppr::ForwardPush`
/// runs it on a `CsrGraph`, `storage::ForwardPush` on mmap'd shards, so
/// the queue traversal — and with it every estimate bit and the push/edge
/// counts — is the same wherever the adjacency lives.
///
/// `Adjacency` gives `num_nodes()`, a resident `OutDegree(u)` for the
/// threshold checks, and `Status VisitRow(u, fn)`, which fetches u's row
/// once per actual push — so a faulting accessor faults per push, not per
/// queue pop — and calls `fn(neighbors, weights, weighted_degree)` (float
/// weights summed into a double in adjacency order).
template <typename Adjacency>
common::StatusOr<PushResult> ForwardPushOver(const Adjacency& adj,
                                             graph::NodeId source,
                                             double alpha, double r_max) {
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_GT(r_max, 0.0);
  SGNN_CHECK_LT(source, adj.num_nodes());
  const graph::NodeId n = adj.num_nodes();

  std::vector<double> p(n, 0.0);
  std::vector<double> r(n, 0.0);
  std::vector<bool> queued(n, false);
  std::queue<graph::NodeId> active;

  r[source] = 1.0;
  active.push(source);
  queued[source] = true;

  PushResult result;
  while (!active.empty()) {
    const graph::NodeId u = active.front();
    active.pop();
    queued[u] = false;
    const auto deg = adj.OutDegree(u);
    if (deg == 0) {
      // Dangling node: all residual mass settles here.
      p[u] += r[u];
      r[u] = 0.0;
      continue;
    }
    if (r[u] <= r_max * static_cast<double>(deg)) continue;
    const double ru = r[u];
    p[u] += alpha * ru;
    r[u] = 0.0;
    ++result.pushes;
    result.edges_touched += deg;
    common::Status visited = adj.VisitRow(
        u, [&](std::span<const graph::NodeId> nbrs,
               std::span<const float> ws, double w_deg) {
          const double spread = (1.0 - alpha) * ru / w_deg;
          for (size_t i = 0; i < nbrs.size(); ++i) {
            const graph::NodeId v = nbrs[i];
            r[v] += spread * ws[i];
            if (!queued[v] &&
                r[v] > r_max * static_cast<double>(adj.OutDegree(v))) {
              active.push(v);
              queued[v] = true;
            }
          }
        });
    if (!visited.ok()) return visited;
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    if (p[v] > 0.0) result.estimate.emplace_back(v, p[v]);
  }
  common::GlobalCounters().edges_touched +=
      static_cast<uint64_t>(result.edges_touched);
  return result;
}

}  // namespace sgnn::ppr

#endif  // SGNN_PPR_PUSH_H_
