#include "graph/propagate.h"

#include "common/counters.h"
#include "graph/spmm.h"
#include "par/par.h"
#include "simd/simd.h"

namespace sgnn::graph {

Propagator::Propagator(const CsrGraph& graph, Normalization norm,
                       bool add_self_loops)
    : graph_(graph), norm_(norm) {
  const NodeId n = graph.num_nodes();
  const auto shards = EdgeShards(graph.offsets());
  std::vector<double> degree(n, 0.0);
  par::ParallelFor("prop.degrees", shards, [&](int, par::Range range) {
    for (int64_t u = range.begin; u < range.end; ++u) {
      degree[u] = graph.WeightedDegree(static_cast<NodeId>(u)) +
                  (add_self_loops ? 1.0 : 0.0);
    }
  });
  coeff_.resize(static_cast<size_t>(graph.num_edges()));
  par::ParallelFor("prop.coeffs", shards, [&](int, par::Range range) {
    for (int64_t uu = range.begin; uu < range.end; ++uu) {
      const NodeId u = static_cast<NodeId>(uu);
      auto nbrs = graph.Neighbors(u);
      auto ws = graph.Weights(u);
      const EdgeIndex base = graph.OffsetOf(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        coeff_[static_cast<size_t>(base) + i] =
            EdgeCoefficient(norm_, ws[i], degree[u], degree[nbrs[i]]);
      }
    }
  });
  if (add_self_loops) {
    self_loop_coeff_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      self_loop_coeff_[u] = LoopCoefficient(norm_, degree[u]);
    }
  }
}

void Propagator::Apply(const tensor::Matrix& x, tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  const int64_t cols = x.cols();
  *out = tensor::Matrix(x.rows(), cols);
  // Row-partitioned SpMM: each shard owns a contiguous block of output
  // rows and gathers from x, so no write is shared and no atomics are
  // needed; the row body is the shared `SpmmRows` (graph/spmm.h).
  const CsrSpmmView<EdgeIndex> view{
      graph_.offsets().data(),
      graph_.neighbors().data(),
      coeff_.data(),
      self_loop_coeff_.empty() ? nullptr : self_loop_coeff_.data(),
      x.data(),
      out->data(),
      cols};
  par::ParallelFor("prop.apply", EdgeShards(graph_.offsets()),
                   [&](int, par::Range range) {
                     SpmmRows(view, range.begin, range.end, cols);
                   });
}

void Propagator::ApplyVector(const std::vector<double>& x,
                             std::vector<double>* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.size(), static_cast<size_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  out->assign(x.size(), 0.0);
  par::ParallelFor(
      "prop.apply_vec", EdgeShards(graph_.offsets()),
      [&](int, par::Range range) {
        for (int64_t uu = range.begin; uu < range.end; ++uu) {
          const NodeId u = static_cast<NodeId>(uu);
          auto nbrs = graph_.Neighbors(u);
          const float* cs = coeff_.data() + graph_.OffsetOf(u);
          double acc = 0.0;
          for (size_t i = 0; i < nbrs.size(); ++i) acc += cs[i] * x[nbrs[i]];
          if (!self_loop_coeff_.empty()) acc += self_loop_coeff_[u] * x[u];
          (*out)[u] = acc;
        }
        common::GlobalCounters().edges_touched += static_cast<uint64_t>(
            graph_.OffsetOf(static_cast<NodeId>(range.end)) -
            graph_.OffsetOf(static_cast<NodeId>(range.begin)));
      });
}

void Propagator::ApplyTranspose(const tensor::Matrix& x,
                                tensor::Matrix* out) const {
  // Deliberately serial: the transpose scatters into rows indexed by the
  // *neighbour* ids, so row partitioning does not give disjoint writes.
  // Making this parallel would need a transposed CSR or atomics (which
  // break bit-determinism); the kernel is off the hot path.
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  const int64_t cols = x.cols();
  *out = tensor::Matrix(x.rows(), cols);
  const simd::KernelTable& kt = simd::Active();
  uint64_t applied = 0;
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    auto nbrs = graph_.Neighbors(u);
    const float* cs = coeff_.data() + graph_.OffsetOf(u);
    const float* xrow = x.data() + static_cast<int64_t>(u) * cols;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const float c = cs[i];
      if (c == 0.0f) continue;
      ++applied;
      kt.axpy(c, xrow, out->data() + static_cast<int64_t>(nbrs[i]) * cols,
              cols);
    }
    if (!self_loop_coeff_.empty() && self_loop_coeff_[u] != 0.0f) {
      ++applied;
      kt.axpy(self_loop_coeff_[u], xrow,
              out->data() + static_cast<int64_t>(u) * cols, cols);
    }
  }
  BillSpmm(static_cast<uint64_t>(graph_.num_edges()), applied, cols);
}

tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops) {
  SGNN_CHECK_GE(hops, 0);
  tensor::Matrix cur = x;
  tensor::Matrix next;
  for (int k = 0; k < hops; ++k) {
    prop.Apply(cur, &next);
    cur = std::move(next);
  }
  return cur;
}

}  // namespace sgnn::graph
