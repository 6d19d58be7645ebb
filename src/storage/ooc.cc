#include "storage/ooc.h"

#include <utility>

#include "common/check.h"
#include "graph/spmm.h"
#include "par/par.h"
#include "ppr/push.h"
#include "sampling/assembly.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;
using graph::NodeId;
using graph::Normalization;

namespace {

/// `graph::SpmmRows` view over one pinned shard: rows are shard rows,
/// output and x rows are indexed by global id, and the per-edge float
/// coefficient is recomputed from the resident degree table with the
/// in-memory constructor's formula (`graph::EdgeCoefficient`).
struct ShardSpmmView {
  const int64_t* offsets;
  const NodeId* rows;
  const NodeId* neighbors;
  const float* weights;
  const double* degree;
  Normalization norm;
  const float* self_loop;  ///< Per global node; null = no self loops.
  const float* x;
  float* out;
  int64_t cols;

  int64_t EdgeBegin(int64_t r) const { return offsets[r]; }
  float* OutRow(int64_t r) const {
    return out + static_cast<int64_t>(rows[r]) * cols;
  }
  float Coefficient(int64_t r, int64_t e) const {
    // sgnn-lint: allow(billing/unbilled-kernel-loop): an accessor, not a
    // loop; graph::SpmmRows walks the edges and bills them.
    const double deg_v = degree[neighbors[e]];
    return graph::EdgeCoefficient(norm, weights[e], degree[rows[r]], deg_v);
  }
  const float* NeighborRow(int64_t e) const {
    return x + static_cast<int64_t>(neighbors[e]) * cols;
  }
  float SelfCoefficient(int64_t r) const {
    return self_loop == nullptr ? 0.0f : self_loop[rows[r]];
  }
  const float* SelfRow(int64_t r) const {
    return x + static_cast<int64_t>(rows[r]) * cols;
  }
};

/// `ppr::ForwardPushOver` accessor: degrees from the resident index, and
/// each row fetch pins the owning shard for the duration of one push.
struct ShardAdjacency {
  ShardedGraph* graph;

  NodeId num_nodes() const { return graph->num_nodes(); }
  graph::EdgeIndex OutDegree(NodeId u) const { return graph->OutDegree(u); }
  template <typename Fn>
  Status VisitRow(NodeId u, Fn&& fn) const {
    auto pin_or = graph->Pin(u);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    fn(pin.Neighbors(u), pin.Weights(u), pin.WeightedDegree(u));
    return Status::OK();
  }
};

}  // namespace

StatusOr<OocPropagator> OocPropagator::Create(ShardedGraph* graph,
                                              Normalization norm,
                                              bool add_self_loops) {
  SGNN_CHECK(graph != nullptr);
  OocPropagator prop;
  prop.graph_ = graph;
  prop.norm_ = norm;
  const NodeId n = graph->num_nodes();
  prop.degree_.assign(n, 0.0);
  // One streaming pass builds the degree table the per-edge coefficients
  // need (kColumn/kSymmetric read degree[v] for neighbours in *other*
  // shards, so the table must cover all nodes — O(n) doubles resident).
  for (int s = 0; s < graph->num_shards(); ++s) {
    auto pin_or = graph->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    par::ParallelFor(
        "storage.prop.degrees", graph::EdgeShards(pin.local_offsets()),
        [&](int, par::Range range) {
          for (int64_t r = range.begin; r < range.end; ++r) {
            // Float weights accumulate into a double in adjacency order —
            // the exact `CsrGraph::WeightedDegree` arithmetic.
            double acc = 0.0;
            for (float w : pin.WeightsLocal(r)) acc += w;
            prop.degree_[pin.rows()[static_cast<size_t>(r)]] =
                acc + (add_self_loops ? 1.0 : 0.0);
          }
        });
  }
  if (add_self_loops) {
    prop.self_loop_coeff_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      prop.self_loop_coeff_[u] = graph::LoopCoefficient(norm, prop.degree_[u]);
    }
  }
  return prop;
}

Status OocPropagator::Apply(const tensor::Matrix& x,
                            tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK(graph_ != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_->num_nodes()));
  const int64_t cols = x.cols();
  *out = tensor::Matrix(x.rows(), cols);
  for (int s = 0; s < graph_->num_shards(); ++s) {
    auto pin_or = graph_->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    const ShardSpmmView view{
        pin.local_offsets().data(),
        pin.rows().data(),
        pin.neighbors().data(),
        pin.weights().data(),
        degree_.data(),
        norm_,
        self_loop_coeff_.empty() ? nullptr : self_loop_coeff_.data(),
        x.data(),
        out->data(),
        cols};
    par::ParallelFor("storage.prop.apply",
                     graph::EdgeShards(pin.local_offsets()),
                     [&](int, par::Range range) {
                       graph::SpmmRows(view, range.begin, range.end, cols);
                     });
  }
  return Status::OK();
}

StatusOr<ppr::PushResult> ForwardPush(ShardedGraph* graph, NodeId source,
                                      double alpha, double r_max) {
  SGNN_CHECK(graph != nullptr);
  return ppr::ForwardPushOver(ShardAdjacency{graph}, source, alpha, r_max);
}

StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const NodeId> seeds, double alpha,
    double r_max) {
  std::vector<ppr::PushResult> results(seeds.size());
  // Sequential seeds: each push is a pure function of its seed (so the
  // values match the in-memory parallel batch exactly), and serialising
  // the cache access makes the load/eviction sequence — the thing the
  // budget meters — deterministic too.
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto result_or = ForwardPush(graph, seeds[i], alpha, r_max);
    if (!result_or.ok()) return result_or.status();
    results[i] = std::move(result_or).value();
  }
  return results;
}

StatusOr<sampling::MiniBatch> SampleNodeWise(ShardedGraph* graph,
                                             std::span<const NodeId> seeds,
                                             std::span<const int> fanouts,
                                             common::Rng* rng) {
  SGNN_CHECK(graph != nullptr);
  return sampling::SampleNodeWiseWith(
      seeds, fanouts, rng,
      [graph](uint64_t layer_base, int fanout, const std::vector<NodeId>& dst,
              sampling::LayerEdges* edges) -> Status {
        // Group destinations by shard and visit shards in ascending order,
        // so each shard is pinned once per layer.
        std::vector<std::vector<int64_t>> by_shard(
            static_cast<size_t>(graph->num_shards()));
        for (size_t i = 0; i < dst.size(); ++i) {
          by_shard[static_cast<size_t>(graph->shard_of(dst[i]))].push_back(
              static_cast<int64_t>(i));
        }
        for (int s = 0; s < graph->num_shards(); ++s) {
          const std::vector<int64_t>& bucket = by_shard[static_cast<size_t>(s)];
          if (bucket.empty()) continue;
          auto pin_or = graph->PinShard(s);
          if (!pin_or.ok()) return pin_or.status();
          const PinnedShard& pin = pin_or.value();
          par::ParallelFor(
              "storage.sample.node_wise", sampling::DstShards(bucket.size()),
              [&](int, par::Range range) {
                for (int64_t b = range.begin; b < range.end; ++b) {
                  const size_t i = static_cast<size_t>(bucket[b]);
                  sampling::SampleDestination(pin.Neighbors(dst[i]), dst[i],
                                              fanout, layer_base,
                                              &(*edges)[i]);
                }
              });
        }
        return Status::OK();
      });
}

}  // namespace sgnn::storage
