// Shared schedules of the per-lane batched sparse accumulation
// (sparse_accum_rows_multi) and of the dense input GEMM (gemm_rows),
// parameterized over a backend's chain-pass primitive so the scalar
// control flow exists exactly once.
//
// The schedule is position-major: the per-lane CSR lists of a block of
// lanes are merge-iterated in ascending position order, up to
// kMultiGroup union positions at a time, and each lane chains its own
// non-zero members of the group into one j-tiled pass over its out
// row. Two effects make this the fastest schedule at serving shapes
// (measured against lane-major streaming and out-register tiling —
// docs/architecture.md): the group's packed rows are streamed once,
// contiguously, and stay L1-hot for every lane that kept them, and one
// out-row load/store carries up to kMultiGroup chained FMAs instead of
// one. Exactness (docs/exactness.md): each output element (b, j) still
// accumulates as one serial chain in ascending position order — groups
// ascend, entries within a group ascend, and lanes never share an
// accumulator — and work stays proportional to the per-lane kept
// counts (a lane contributes FMAs only for its own entries).
//
// `ChainPass` supplies the arithmetic:
//   struct MyChainPass {
//     template <int C, bool Ow>
//     static void pass(float* y, Index jt, Index je,
//                      const float* const* rows, const float* vals);
//   };
// pass<C, false> must accumulate y[j] += vals[0]*rows[0][j] + ... (C
// entries, in index order, one serial chain per element) over [jt, je).
// pass<C, true> is the overwrite flavour: the chain starts from +0.0f
// instead of y[j] — bit-identical to zero-filling y first, because the
// accumulate flavour's first madd over a zero-filled y is exactly
// madd(vals[0], rows[0][j], +0.0f).
//
// The Overwrite = true schedule computes out = (instead of out +=) so
// the caller can skip the per-step zero fill of the staging matrix
// (256 KB per step at batch 8, dh 1000 — the engine's kPreH): per lane,
// the first merge round that touches the lane runs the overwrite
// flavour across all j-tiles, later rounds accumulate, and lanes no
// round touches (no kept entries) are zero-filled at the end so every
// output element is always written.
#pragma once

#include "num/types.h"

namespace zss::num::simd {

// How many lanes one merge pass covers (bounds the schedule's stack
// scratch; backends may not heap-allocate), how many ascending union
// positions are chained into one pass over a lane's out row, and the
// j-tile that keeps a group's working set (up to kMultiGroup row
// chunks plus the out chunk, ~9 KB) L1-resident across every lane of
// the block.
inline constexpr Index kMultiLaneBlock = 32;
inline constexpr Index kMultiGroup = 8;
inline constexpr Index kMultiJTile = 256;

// The schedule is generic over the value type VT and the accumulator
// type AT so the int8/i32 kernels (VT = int8_t, AT = int32_t) reuse the
// exact same merge control flow as fp32 (VT = AT = float). For integer
// instantiations the "chain" wording above is a stricter guarantee than
// the contract needs — i32 wraparound addition is associative, so any
// grouping would be bit-identical — but sharing the schedule keeps the
// work-proportionality and cache behaviour identical across types.
template <typename ChainPass, bool Ow, typename VT = float,
          typename AT = float>
inline void multi_dispatch_pass(int c, AT* __restrict y, Index jt,
                                Index je, const VT* const* __restrict gr,
                                const VT* __restrict gv) {
  switch (c) {
    case 1:
      ChainPass::template pass<1, Ow>(y, jt, je, gr, gv);
      break;
    case 2:
      ChainPass::template pass<2, Ow>(y, jt, je, gr, gv);
      break;
    case 3:
      ChainPass::template pass<3, Ow>(y, jt, je, gr, gv);
      break;
    case 4:
      ChainPass::template pass<4, Ow>(y, jt, je, gr, gv);
      break;
    case 5:
      ChainPass::template pass<5, Ow>(y, jt, je, gr, gv);
      break;
    case 6:
      ChainPass::template pass<6, Ow>(y, jt, je, gr, gv);
      break;
    case 7:
      ChainPass::template pass<7, Ow>(y, jt, je, gr, gv);
      break;
    default:
      ChainPass::template pass<8, Ow>(y, jt, je, gr, gv);
      break;
  }
}

// One merged group over every j-tile: lane q of the block [b0, b0+nb)
// chains its gcnt[q] gathered rows grow[q]/gval[q] into out row b0+q,
// so each tile of the group's rows is read from memory once and stays
// L1-hot for every lane. In Overwrite mode a lane still marked virgin
// runs the overwrite flavour on every tile of this group and is
// un-marked only after the full j loop.
template <typename ChainPass, bool Overwrite, typename VT, typename AT>
inline void multi_group_tiles(AT* __restrict out, Index b0, Index nb, Index n,
                              const VT* const (*grow)[kMultiGroup],
                              const VT (*gval)[kMultiGroup], const int* gcnt,
                              bool* virgin) {
  for (Index jt = 0; jt < n; jt += kMultiJTile) {
    const Index je = jt + kMultiJTile < n ? jt + kMultiJTile : n;
    for (Index q = 0; q < nb; ++q) {
      if (gcnt[q] == 0) continue;
      AT* __restrict y = out + (b0 + q) * n;
      if constexpr (Overwrite) {
        if (virgin[q]) {
          multi_dispatch_pass<ChainPass, true>(gcnt[q], y, jt, je, grow[q],
                                               gval[q]);
          continue;
        }
      }
      multi_dispatch_pass<ChainPass, false>(gcnt[q], y, jt, je, grow[q],
                                            gval[q]);
    }
  }
  if constexpr (Overwrite) {
    for (Index q = 0; q < nb; ++q) {
      if (gcnt[q] > 0) virgin[q] = false;
    }
  }
}

// Lanes no group touched were never written; they owe the caller the
// zero fill it skipped.
template <typename AT>
inline void multi_zero_fill_virgin(AT* __restrict out, Index b0, Index nb,
                                   Index n, const bool* virgin) {
  for (Index q = 0; q < nb; ++q) {
    if (!virgin[q]) continue;
    AT* __restrict y = out + (b0 + q) * n;
    for (Index j = 0; j < n; ++j) y[j] = AT{};
  }
}

template <typename ChainPass, bool Overwrite = false, typename VT = float,
          typename AT = float>
inline void sparse_accum_rows_multi_schedule(
    const VT* __restrict packed, const Index* __restrict positions,
    const Index* __restrict row_start, const VT* __restrict values,
    AT* __restrict out, Index batch, Index n) {
  for (Index b0 = 0; b0 < batch; b0 += kMultiLaneBlock) {
    const Index nb = batch - b0 < kMultiLaneBlock ? batch - b0
                                                  : kMultiLaneBlock;
    Index cur[kMultiLaneBlock];
    for (Index q = 0; q < nb; ++q) cur[q] = row_start[b0 + q];
    // Overwrite mode: a lane is "virgin" until its first contributing
    // merge round.
    bool virgin[kMultiLaneBlock];
    for (Index q = 0; q < nb; ++q) virgin[q] = true;
    for (;;) {
      const VT* grow[kMultiLaneBlock][kMultiGroup];
      VT gval[kMultiLaneBlock][kMultiGroup];
      int gcnt[kMultiLaneBlock] = {};
      Index ng = 0;
      while (ng < kMultiGroup) {
        Index mn = -1;
        for (Index q = 0; q < nb; ++q) {
          if (cur[q] >= row_start[b0 + q + 1]) continue;
          const Index p = positions[cur[q]];
          if (mn < 0 || p < mn) mn = p;
        }
        if (mn < 0) break;
        const VT* __restrict row = packed + mn * n;
        for (Index q = 0; q < nb; ++q) {
          if (cur[q] < row_start[b0 + q + 1] && positions[cur[q]] == mn) {
            grow[q][gcnt[q]] = row;
            gval[q][gcnt[q]] = values[cur[q]];
            ++gcnt[q];
            ++cur[q];
          }
        }
        ++ng;
      }
      if (ng == 0) break;
      multi_group_tiles<ChainPass, Overwrite>(out, b0, nb, n, grow, gval,
                                              gcnt, virgin);
    }
    if constexpr (Overwrite) multi_zero_fill_virgin(out, b0, nb, n, virgin);
  }
}

// Dense twin of the schedule above, the body of every backend's
// gemm_rows: C (m x n) = A (m x k) * B (k x n), every element of C
// written (C is treated as uninitialized). Rows of A play the lanes and
// k the positions: per block of kMultiLaneBlock rows, kMultiGroup
// consecutive k at a time, each row gathers its own non-zero a[i][k]
// (the exact-zero skip stays per element) and the group's B rows are
// streamed once per block — L1-hot for every row — instead of once per
// row as an i-k-j loop does. Each c[i][j] is still one serial chain
// over ascending non-zero k starting from +0.0f (the first
// contributing group overwrites), rows with no non-zero entry are
// zero-filled, so the result is 0-ULP num::reference::gemm.
template <typename ChainPass>
inline void gemm_rows_schedule(const float* __restrict a,
                               const float* __restrict b, float* __restrict c,
                               Index m, Index k, Index n) {
  for (Index i0 = 0; i0 < m; i0 += kMultiLaneBlock) {
    const Index nb = m - i0 < kMultiLaneBlock ? m - i0 : kMultiLaneBlock;
    bool virgin[kMultiLaneBlock];
    for (Index q = 0; q < nb; ++q) virgin[q] = true;
    for (Index k0 = 0; k0 < k; k0 += kMultiGroup) {
      const Index ke = k0 + kMultiGroup < k ? k0 + kMultiGroup : k;
      const float* grow[kMultiLaneBlock][kMultiGroup];
      float gval[kMultiLaneBlock][kMultiGroup];
      int gcnt[kMultiLaneBlock] = {};
      for (Index q = 0; q < nb; ++q) {
        const float* __restrict arow = a + (i0 + q) * k;
        for (Index kk = k0; kk < ke; ++kk) {
          if (arow[kk] == 0.0f) continue;  // same skip as the reference
          grow[q][gcnt[q]] = b + kk * n;
          gval[q][gcnt[q]++] = arow[kk];
        }
      }
      multi_group_tiles<ChainPass, true>(c, i0, nb, n, grow, gval, gcnt,
                                         virgin);
    }
    multi_zero_fill_virgin(c, i0, nb, n, virgin);
  }
}

}  // namespace zss::num::simd
