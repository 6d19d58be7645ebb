#ifndef SGNN_SAMPLING_HISTORICAL_CACHE_H_
#define SGNN_SAMPLING_HISTORICAL_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "graph/types.h"
#include "tensor/matrix.h"

namespace sgnn::sampling {

/// Historical embedding cache (HDSGNN/GAS-style, §3.3.2 "Graph Variance"):
/// stores the last computed embedding of every node together with the step
/// it was written at, so samplers can substitute slightly stale cached
/// rows for out-of-batch neighbours instead of recursively expanding them.
class HistoricalEmbeddingCache {
 public:
  /// `dim` is the embedding width; entries start invalid.
  HistoricalEmbeddingCache(graph::NodeId num_nodes, int64_t dim);

  int64_t dim() const { return store_.cols(); }
  graph::NodeId num_nodes() const {
    return static_cast<graph::NodeId>(written_at_.size());
  }

  bool Has(graph::NodeId u) const { return written_at_[u] >= 0; }

  /// Staleness in steps of u's entry; -1 when absent.
  int64_t Staleness(graph::NodeId u, int64_t current_step) const {
    return Has(u) ? current_step - written_at_[u] : -1;
  }

  /// Writes u's embedding at `step`.
  void Put(graph::NodeId u, std::span<const float> embedding, int64_t step);

  /// Cached row of u; requires Has(u).
  std::span<const float> Get(graph::NodeId u) const {
    SGNN_CHECK(Has(u));
    return store_.Row(static_cast<int64_t>(u));
  }

  /// Fraction of requested nodes currently cached with staleness at most
  /// `max_staleness`: the cache's usefulness measure for a batch. The
  /// bound is *inclusive*: an entry whose staleness equals `max_staleness`
  /// exactly still counts as a hit (consumers test
  /// `Staleness(u) <= max_staleness`), so `max_staleness = 0` admits only
  /// entries written at the current step.
  double HitRate(std::span<const graph::NodeId> nodes, int64_t current_step,
                 int64_t max_staleness) const;

  /// Drops every entry.
  void Clear();

 private:
  tensor::Matrix store_;
  std::vector<int64_t> written_at_;  ///< -1 when invalid.
};

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_HISTORICAL_CACHE_H_
