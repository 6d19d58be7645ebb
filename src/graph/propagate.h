#ifndef SGNN_GRAPH_PROPAGATE_H_
#define SGNN_GRAPH_PROPAGATE_H_

#include <cmath>
#include <vector>

#include "common/check.h"
#include "graph/csr_graph.h"
#include "tensor/matrix.h"

namespace sgnn::graph {

/// Adjacency normalisation used by graph propagation.
enum class Normalization {
  kNone,       ///< A
  kRow,        ///< D^-1 A            (random-walk / row-stochastic)
  kColumn,     ///< A D^-1            (PPR transition transpose)
  kSymmetric,  ///< D^-1/2 A D^-1/2   (GCN convolution)
};

/// The normalised coefficient of a stored edge u->v of weight `w`, given
/// the weighted degrees of both ends (self-loop +1 included): one double
/// expression, then one float cast. Every tier computes its coefficients
/// here — the in-memory `Propagator` once up front, `OocPropagator` per
/// edge on the fly — so they apply the identical float.
inline float EdgeCoefficient(Normalization norm, float w, double deg_u,
                             double deg_v) {
  auto inv = [](double d) { return d > 0.0 ? 1.0 / d : 0.0; };
  auto inv_sqrt = [](double d) { return d > 0.0 ? 1.0 / std::sqrt(d) : 0.0; };
  double c = w;
  switch (norm) {
    case Normalization::kNone:
      break;
    case Normalization::kRow:
      c *= inv(deg_u);
      break;
    case Normalization::kColumn:
      c *= inv(deg_v);
      break;
    case Normalization::kSymmetric:
      c *= inv_sqrt(deg_u) * inv_sqrt(deg_v);
      break;
  }
  return static_cast<float>(c);
}

/// The self-loop coefficient of a node of weighted degree `deg` (self-loop
/// +1 included): 1 unnormalised, 1/deg otherwise (the symmetric
/// 1/sqrt(d) * 1/sqrt(d) is taken as 1/d).
inline float LoopCoefficient(Normalization norm, double deg) {
  if (norm == Normalization::kNone) return 1.0f;
  return static_cast<float>(deg > 0.0 ? 1.0 / deg : 0.0);
}

/// Precomputed normalised sparse operator \hat{A}; the message-passing /
/// propagation kernel shared by all GNN models and decoupled methods.
///
/// With `add_self_loops`, the operator is built on A + I with degrees
/// incremented accordingly (the GCN "renormalisation trick"). Construction
/// normalises by *weighted* degree; zero-degree nodes propagate nothing.
class Propagator {
 public:
  Propagator(const CsrGraph& graph, Normalization norm, bool add_self_loops);

  /// out = \hat{A} x, dense feature version. `out` is overwritten.
  /// Instruments `common::GlobalCounters()` with edges touched and floats
  /// moved.
  void Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  /// Double-precision vector version (used by PPR / spectral iteration).
  void ApplyVector(const std::vector<double>& x, std::vector<double>* out) const;

  /// Applies the transpose operator \hat{A}^T (needed for backward passes
  /// on non-symmetric normalisations).
  void ApplyTranspose(const tensor::Matrix& x, tensor::Matrix* out) const;

  NodeId num_nodes() const { return graph_.num_nodes(); }
  EdgeIndex num_edges() const { return graph_.num_edges(); }
  Normalization normalization() const { return norm_; }
  bool self_loops() const { return self_loop_coeff_.size() > 0; }

  /// Normalised coefficient for the i-th stored edge of node u (aligned
  /// with `graph().Neighbors(u)`).
  std::span<const float> Coefficients(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return {coeff_.data() + graph_.OffsetOf(u),
            static_cast<size_t>(graph_.OutDegree(u))};
  }

  /// Self-loop coefficient of node u (0 when self loops are disabled).
  float SelfLoopCoefficient(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return self_loop_coeff_.empty() ? 0.0f : self_loop_coeff_[u];
  }

  const CsrGraph& graph() const { return graph_; }

 private:
  const CsrGraph& graph_;  // Not owned; must outlive the propagator.
  Normalization norm_;
  std::vector<float> coeff_;            // Per stored edge.
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Convenience: returns \hat{A}^k x by repeated application.
tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops);

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_PROPAGATE_H_
