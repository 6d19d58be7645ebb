#include "sampling/historical_cache.h"

#include <algorithm>

namespace sgnn::sampling {

HistoricalEmbeddingCache::HistoricalEmbeddingCache(graph::NodeId num_nodes,
                                                   int64_t dim)
    : store_(static_cast<int64_t>(num_nodes), dim),
      written_at_(num_nodes, -1) {}

void HistoricalEmbeddingCache::Put(graph::NodeId u,
                                   std::span<const float> embedding,
                                   int64_t step) {
  SGNN_CHECK_LT(u, written_at_.size());
  SGNN_CHECK_EQ(static_cast<int64_t>(embedding.size()), store_.cols());
  SGNN_CHECK_GE(step, 0);
  auto row = store_.Row(static_cast<int64_t>(u));
  std::copy(embedding.begin(), embedding.end(), row.begin());
  written_at_[u] = step;
}

double HistoricalEmbeddingCache::HitRate(std::span<const graph::NodeId> nodes,
                                         int64_t current_step,
                                         int64_t max_staleness) const {
  if (nodes.empty()) return 0.0;
  int64_t hits = 0;
  for (graph::NodeId u : nodes) {
    const int64_t staleness = Staleness(u, current_step);
    if (staleness >= 0 && staleness <= max_staleness) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(nodes.size());
}

void HistoricalEmbeddingCache::Clear() {
  std::fill(written_at_.begin(), written_at_.end(), -1);
  store_.Zero();
}

}  // namespace sgnn::sampling
