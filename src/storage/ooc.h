#ifndef SGNN_STORAGE_OOC_H_
#define SGNN_STORAGE_OOC_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/propagate.h"
#include "ppr/ppr.h"
#include "sampling/block.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

namespace sgnn::storage {

/// Out-of-core counterparts of the in-memory kernels, streaming shards
/// through the `ShardedGraph` cache instead of holding the adjacency
/// resident. Each runs the in-memory kernel's own body — `graph::SpmmRows`,
/// `ppr::ForwardPushOver`, `sampling::SampleNodeWiseWith` — over a shard
/// accessor, so the outputs are byte-identical to the in-memory kernel for
/// any shard plan, budget and `SGNN_THREADS` (the argument is written once,
/// in graph/spmm.h); only the shard-fault/eviction counters change with
/// the budget. What is left here is orchestration: shards are pinned from
/// the calling thread in ascending order and parallelism fans out only
/// *inside* a pinned shard, which makes the load/eviction sequence
/// deterministic too.

/// Out-of-core `graph::Propagator`: the O(num_edges) coefficient array is
/// never materialised — each edge's coefficient is recomputed from a
/// resident O(num_nodes) degree table by `graph::EdgeCoefficient`, the
/// function the in-memory constructor uses.
class OocPropagator {
 public:
  /// Builds the resident degree/self-loop tables with one streaming pass
  /// over the shards (ascending order). Fails with the cache's status when
  /// a shard cannot be loaded. `graph` must outlive the propagator.
  static common::StatusOr<OocPropagator> Create(ShardedGraph* graph,
                                                graph::Normalization norm,
                                                bool add_self_loops);

  /// out = \hat{A} x, bit-identical to `Propagator::Apply`. Streams shards
  /// in ascending order; rows within the pinned shard fan out over
  /// `sgnn::par`. Bills edges/floats to `common::GlobalCounters` exactly
  /// like the in-memory kernel.
  SGNN_NODISCARD common::Status Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  graph::Normalization normalization() const { return norm_; }
  bool self_loops() const { return !self_loop_coeff_.empty(); }

  /// Public only for `StatusOr`; a default-constructed propagator is inert.
  OocPropagator() = default;

 private:
  ShardedGraph* graph_ = nullptr;
  graph::Normalization norm_ = graph::Normalization::kNone;
  std::vector<double> degree_;          // Weighted degree (+1 w/ self loops).
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Out-of-core `ppr::ForwardPush`: the same `ppr::ForwardPushOver` loop;
/// each push pins the owning shard, threshold checks read the resident
/// degree index.
SGNN_NODISCARD common::StatusOr<ppr::PushResult> ForwardPush(ShardedGraph* graph,
                                              graph::NodeId source,
                                              double alpha, double r_max);

/// Out-of-core `ppr::PushBatch`. Seeds run *sequentially* (unlike the
/// in-memory batch) so the eviction sequence is reproducible; per-seed
/// results are bit-identical to both `ppr::PushBatch` and per-seed
/// `ForwardPush`.
SGNN_NODISCARD common::StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds, double alpha,
    double r_max);

/// Out-of-core `sampling::SampleNodeWise`: the same layer loop and
/// per-destination draw, so the batch is byte-identical to the in-memory
/// sampler with an equal-state `rng`. Destinations are grouped by shard
/// and shards visited in ascending order.
SGNN_NODISCARD common::StatusOr<sampling::MiniBatch> SampleNodeWise(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds,
    std::span<const int> fanouts, common::Rng* rng);

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_OOC_H_
