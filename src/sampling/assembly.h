#ifndef SGNN_SAMPLING_ASSEMBLY_H_
#define SGNN_SAMPLING_ASSEMBLY_H_

#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/types.h"
#include "par/par.h"
#include "sampling/block.h"

namespace sgnn::sampling {

/// The sampler core shared by the in-memory samplers and the out-of-core
/// sampler in `sgnn::storage`: the layer loop, the block assembly and the
/// node-wise per-destination draw exist once, so both produce
/// byte-identical blocks from the same `rng` state.

/// Per-destination sampled (neighbour, weight) lists of one layer.
using LayerEdges = std::vector<std::vector<std::pair<graph::NodeId, float>>>;

/// Uniform par shards over `num_dst` destinations, >= 256 per shard.
inline std::vector<par::Range> DstShards(size_t num_dst) {
  const int64_t n = static_cast<int64_t>(num_dst);
  return par::SplitUniform(n, par::ShardsFor(n, /*grain=*/256));
}

/// Assembles a `LayerSample` from per-destination sampled
/// (neighbour, weight) lists: `src` = dst (prefix, same order) followed by
/// newly seen neighbours in first-appearance order, `src_local`/`weights`
/// flattened in destination order. Pure assembly — no draws.
LayerSample AssembleLayer(std::span<const graph::NodeId> dst,
                          const LayerEdges& edges);

/// The node-wise draw for one destination `node` with neighbour list
/// `nbrs`, appended to `out`: the whole neighbourhood (weight 1/degree)
/// when the degree is at most `fanout`, otherwise `fanout` neighbours
/// without replacement (weight 1/fanout) from the keyed stream
/// `MixSeed(layer_base, node)`. The draw depends only on (layer_base,
/// node, nbrs), never on which thread or shard group runs it.
void SampleDestination(std::span<const graph::NodeId> nbrs,
                       graph::NodeId node, int fanout, uint64_t layer_base,
                       std::vector<std::pair<graph::NodeId, float>>* out);

/// The layer loop: from the seeds inward, `sample_layer(l, dst)` returns
/// layer l's block (or an error) and its `src` becomes the next frontier;
/// the blocks are packaged innermost-first.
template <typename SampleLayerFn>
common::StatusOr<MiniBatch> BuildBatch(std::span<const graph::NodeId> seeds,
                                       int num_layers,
                                       SampleLayerFn&& sample_layer) {
  SGNN_CHECK_GE(num_layers, 1);
  SGNN_CHECK(!seeds.empty());
  std::vector<LayerSample> outer_first;
  std::vector<graph::NodeId> frontier(seeds.begin(), seeds.end());
  for (int l = 0; l < num_layers; ++l) {
    common::StatusOr<LayerSample> layer_or = sample_layer(l, frontier);
    if (!layer_or.ok()) return layer_or.status();
    frontier = layer_or.value().src;
    outer_first.push_back(std::move(layer_or).value());
  }
  MiniBatch batch;
  batch.layers.assign(std::make_move_iterator(outer_first.rbegin()),
                      std::make_move_iterator(outer_first.rend()));
  return batch;
}

/// Node-wise sampling over any adjacency. Per layer: one caller-side
/// engine draw seeds `layer_base`, then `fill(layer_base, fanout, dst,
/// &edges)` runs `SampleDestination` for every `dst[i]` into `edges[i]` —
/// in any grouping, on any thread — and may fail (a shard fault). The
/// keyed draws make the grouping invisible in the output.
template <typename FillFn>
common::StatusOr<MiniBatch> SampleNodeWiseWith(
    std::span<const graph::NodeId> seeds, std::span<const int> fanouts,
    common::Rng* rng, FillFn&& fill) {
  SGNN_CHECK(rng != nullptr);
  return BuildBatch(
      seeds, static_cast<int>(fanouts.size()),
      [&](int l, const std::vector<graph::NodeId>& dst)
          -> common::StatusOr<LayerSample> {
        const int fanout = fanouts[static_cast<size_t>(l)];
        SGNN_CHECK_GE(fanout, 1);
        const uint64_t layer_base = rng->engine()();
        LayerEdges edges(dst.size());
        SGNN_RETURN_IF_ERROR(fill(layer_base, fanout, dst, &edges));
        return AssembleLayer(dst, edges);
      });
}

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_ASSEMBLY_H_
