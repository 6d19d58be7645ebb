#ifndef SGNN_GRAPH_SPMM_H_
#define SGNN_GRAPH_SPMM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/counters.h"
#include "graph/types.h"
#include "par/par.h"
#include "simd/simd.h"

namespace sgnn::graph {

/// The one SpMM row body, `out = \hat{A} x` over a range of CSR rows. Every
/// adjacency tier runs it: `Propagator::Apply` (RAM), `OocPropagator::Apply`
/// (a pinned mmap'd shard) and the `dist` worker (its owned rows), so the
/// tiers differ only in how a `View` locates rows, not in arithmetic.
///
/// Bit-identity contract, stated once for all tiers. Per output element the
/// accumulation is: zero, then one `axpy` per stored edge with a nonzero
/// float coefficient in ascending edge order, then the nonzero self-loop
/// term last. Each `axpy` lane is an unfused, exactly rounded mul then add
/// (simd contract #1; the project builds with `-ffp-contract=off`), the
/// coefficient floats come from `EdgeCoefficient`/`LoopCoefficient`
/// (graph/propagate.h) and a tier's rows are whole CSR rows. So the output
/// bytes are a pure function of (graph, normalisation, x): the same for
/// every tier, shard plan, resident budget, worker count, `SGNN_THREADS`
/// and SIMD backend. The column-blocked panel schedule below reorders only
/// *which* element is updated next, never the edge order within one
/// element, so it is bit-neutral too.
///
/// `View` contract, for view rows r in [begin, end):
///   int64_t EdgeBegin(int64_t r) const;  // row r's edges: [EdgeBegin(r),
///                                        //   EdgeBegin(r + 1)), monotone
///   float* OutRow(int64_t r) const;      // zeroed output row, cols floats
///   float Coefficient(int64_t r, int64_t e) const;
///   const float* NeighborRow(int64_t e) const;  // x row of e's neighbour
///   float SelfCoefficient(int64_t r) const;     // 0 = no self-loop term
///   const float* SelfRow(int64_t r) const;      // x row of r's own node

/// Cache-blocked CSR schedule for wide-feature SpMM. Skewed degree
/// distributions make the x-row gather the bottleneck: a hub neighbour's
/// row is re-fetched from memory once per referencing output row when the
/// full row (cols * 4 bytes) no longer fits alongside the working set. The
/// blocked schedule walks output rows in panels of ~kSpmmPanelEdges edges
/// and feature columns in blocks of kSpmmColBlock floats, so each gathered
/// x-row *slice* is a few cache lines and the panel's hub slices stay
/// resident across the rows that share them. Engaged only above
/// kSpmmColBlockEngage columns; narrow rows already fit and the re-scanned
/// coefficient stream would be pure overhead.
inline constexpr int64_t kSpmmColBlock = 64;         ///< Floats per block.
inline constexpr int64_t kSpmmColBlockEngage = 128;  ///< Engage above.
inline constexpr int64_t kSpmmPanelEdges = 4096;     ///< Edges per panel.

/// Edge-balanced par shards over a CSR offset array (size rows + 1), at
/// least 32K edges each. Geometry depends only on the offsets, never on
/// the worker count, and every tier uses it, so intra-shard geometry
/// matches row for row.
inline std::vector<par::Range> EdgeShards(std::span<const int64_t> offsets) {
  return par::RowRanges(offsets,
                        par::ShardsFor(offsets.back(), /*grain=*/32 * 1024));
}

/// Bills an SpMM pass over `edges` stored edges, `applied` of which (plus
/// engaged self loops) ran an axpy row of width `cols`, to
/// `common::GlobalCounters()`: edges walked, `edges * cols` floats moved,
/// and logical bytes — the coefficient and index streams per edge plus,
/// per applied row, the gathered x slice and the output row (read and
/// written).
inline void BillSpmm(uint64_t edges, uint64_t applied, int64_t cols) {
  const uint64_t ucols = static_cast<uint64_t>(cols);
  auto& counters = common::GlobalCounters();
  counters.edges_touched += edges;
  counters.floats_moved += edges * ucols;
  counters.BillBytes(edges * (sizeof(float) + sizeof(NodeId)) +
                         applied * 2u * ucols * sizeof(float),
                     applied * ucols * sizeof(float));
}

/// Computes rows [begin, end) of `view` and bills them (`BillSpmm`). Runs
/// on the calling thread; callers shard with `par::ParallelFor` (or not at
/// all, as in a forked worker).
template <typename View>
void SpmmRows(const View& view, int64_t begin, int64_t end, int64_t cols) {
  const simd::KernelTable& kt = simd::Active();
  // Applied axpy rows (nonzero edge coefficients + engaged self-loops):
  // the data-movement term of the byte bill.
  uint64_t applied = 0;
  auto row_block = [&](int64_t r, int64_t j0, int64_t bw) {
    float* orow = view.OutRow(r) + j0;
    const int64_t edge_end = view.EdgeBegin(r + 1);
    for (int64_t e = view.EdgeBegin(r); e < edge_end; ++e) {
      const float c = view.Coefficient(r, e);
      if (c == 0.0f) continue;
      ++applied;
      kt.axpy(c, view.NeighborRow(e) + j0, orow, bw);
    }
    const float self = view.SelfCoefficient(r);
    if (self != 0.0f) {
      ++applied;
      kt.axpy(self, view.SelfRow(r) + j0, orow, bw);
    }
  };
  if (cols > kSpmmColBlockEngage) {
    for (int64_t p0 = begin; p0 < end;) {
      // Grow the panel until its edge mass reaches the budget (always at
      // least one row, so a hub row becomes its own panel).
      int64_t p1 = p0;
      const int64_t panel_base = view.EdgeBegin(p0);
      while (p1 < end &&
             (p1 == p0 || view.EdgeBegin(p1) - panel_base < kSpmmPanelEdges)) {
        ++p1;
      }
      for (int64_t j0 = 0; j0 < cols; j0 += kSpmmColBlock) {
        const int64_t bw = std::min(kSpmmColBlock, cols - j0);
        for (int64_t r = p0; r < p1; ++r) row_block(r, j0, bw);
      }
      p0 = p1;
    }
    // The column loop visits each (row, edge) pair once per block; the
    // bill wants whole rows, so rescale.
    applied /= static_cast<uint64_t>((cols + kSpmmColBlock - 1) /
                                     kSpmmColBlock);
  } else {
    for (int64_t r = begin; r < end; ++r) row_block(r, 0, cols);
  }
  BillSpmm(static_cast<uint64_t>(view.EdgeBegin(end) - view.EdgeBegin(begin)),
           applied, cols);
}

/// The plain CSR view: per-edge coefficients and x-row indices stored
/// aligned with `offsets`, one output row per CSR row. The in-memory
/// `Propagator` indexes x by global node id; the `dist` worker by local
/// slot (owned rows first, then halo rows).
template <typename Offset>
struct CsrSpmmView {
  const Offset* offsets;       ///< Size rows + 1.
  const NodeId* x_index;       ///< Per edge: row of x to gather.
  const float* coefficients;   ///< Per edge.
  const float* self_loop;      ///< Per row; null = no self-loop terms.
  const float* x;
  float* out;
  int64_t cols;

  int64_t EdgeBegin(int64_t r) const {
    return static_cast<int64_t>(offsets[r]);
  }
  float* OutRow(int64_t r) const { return out + r * cols; }
  float Coefficient(int64_t, int64_t e) const { return coefficients[e]; }
  const float* NeighborRow(int64_t e) const {
    return x + static_cast<int64_t>(x_index[e]) * cols;
  }
  float SelfCoefficient(int64_t r) const {
    return self_loop == nullptr ? 0.0f : self_loop[r];
  }
  const float* SelfRow(int64_t r) const { return x + r * cols; }
};

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_SPMM_H_
