// Equivalence of every available kernel backend against the unblocked
// reference loops, across odd shapes and batch sizes. The suite is
// parameterized over (shape x backend): each case pins one backend via
// simd::set_backend_for_testing and asserts the public num:: kernels
// reproduce num::reference within 0 ULP. That contract — one serial
// ascending-position multiply-accumulate chain per output element, all
// through the same FMA flavour — is what makes step() and step_dense()
// bit-identical; docs/exactness.md derives it and explains what a new
// backend must guarantee.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "num/kernels.h"
#include "num/parallel.h"
#include "num/reference_kernels.h"
#include "num/rng.h"
#include "num/simd/backend.h"
#include "num/simd/multi_schedule.h"

namespace zss::num {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0);
}

// The LSTM shapes the engine exercises: dh state positions against a
// (4dh x dh) recurrent matrix, B batch lanes.
struct Shape {
  Index dh;
  Index batch;
};

using KernelParam = std::tuple<Shape, const simd::KernelBackend*>;

class BackendKernelTest : public ::testing::TestWithParam<KernelParam> {
 protected:
  void SetUp() override {
    simd::set_backend_for_testing(std::get<1>(GetParam()));
  }
  void TearDown() override { simd::set_backend_for_testing(nullptr); }

  Shape shape() const { return std::get<0>(GetParam()); }
};

std::string param_name(const ::testing::TestParamInfo<KernelParam>& info) {
  const auto& [shape, backend] = info.param;
  return "dh" + std::to_string(shape.dh) + "b" + std::to_string(shape.batch) +
         "_" + backend->name;
}

// gemm against the reference with two traps: the backend's C starts
// as NaN garbage, so an element gemm_rows leaves unwritten poisons the
// comparison, and every B row that no row of A uses (all its A entries
// are exact +-0) is filled with +-inf and NaN, which the exact-zero skip
// must keep out of C as the reference does.
void expect_gemm_matches_reference(const Matrix& a, Matrix b) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float poison[] = {inf, -inf, nan};
  for (Index kk = 0; kk < a.cols(); ++kk) {
    bool used = false;
    for (Index i = 0; i < a.rows(); ++i) used = used || a(i, kk) != 0.0f;
    if (used) continue;
    for (Index j = 0; j < b.cols(); ++j) b(kk, j) = poison[(kk + j) % 3];
  }
  Matrix c_backend(a.rows(), b.cols(), nan);
  gemm(a, b, c_backend);
  Matrix c_ref;
  reference::gemm(a, b, c_ref);
  expect_bitwise_equal(c_backend, c_ref);
  for (const float v : c_backend.flat()) ASSERT_TRUE(std::isfinite(v));
}

TEST_P(BackendKernelTest, GemmMatchesReference) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch));
  const Matrix a = random_matrix(batch, dh, rng);
  const Matrix b = random_matrix(dh, 4 * dh, rng);
  expect_gemm_matches_reference(a, b);

  // One-hot rows (the char-LM input path).
  Matrix one_hot(batch, dh, 0.0f);
  for (Index i = 0; i < batch; ++i) one_hot(i, (i * 7) % dh) = 1.0f;
  expect_gemm_matches_reference(one_hot, b);

  // ~90% zeros, half of them -0.0f (skipped like +0.0f), and one row
  // with no non-zero entry at all, which must come out as +0.0f.
  Matrix sparse(batch, dh);
  for (Index i = 0; i < batch; ++i) {
    for (Index kk = 0; kk < dh; ++kk) {
      const bool zero = i == batch / 2 || rng.bernoulli(0.9);
      sparse(i, kk) = zero ? ((i + kk) % 2 == 0 ? 0.0f : -0.0f)
                           : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  expect_gemm_matches_reference(sparse, b);
}

TEST_P(BackendKernelTest, GemmABtMatchesReference) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 1));
  const Matrix a = random_matrix(batch, dh, rng);
  const Matrix b = random_matrix(4 * dh, dh, rng);
  Matrix c_backend;
  gemm_a_bt(a, b, c_backend);
  Matrix c_ref;
  reference::gemm_a_bt(a, b, c_ref);
  expect_bitwise_equal(c_backend, c_ref);
}

TEST_P(BackendKernelTest, GemmAtBAccumMatchesReference) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 2));
  const Matrix a = random_matrix(batch, dh, rng);
  const Matrix b = random_matrix(batch, 4 * dh, rng);
  Matrix c_blocked(dh, 4 * dh, 0.5f);  // non-zero start: accumulate
  Matrix c_ref = c_blocked;
  gemm_at_b_accum(a, b, c_blocked);
  reference::gemm_at_b_accum(a, b, c_ref);
  expect_bitwise_equal(c_blocked, c_ref);
}

TEST_P(BackendKernelTest, GemvMatchesReference) {
  const auto [dh, batch] = shape();
  (void)batch;
  Rng rng(static_cast<std::uint64_t>(dh * 100 + 3));
  const Matrix w = random_matrix(4 * dh, dh, rng);
  std::vector<float> x(static_cast<std::size_t>(dh));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y_backend(static_cast<std::size_t>(4 * dh));
  std::vector<float> y_ref(static_cast<std::size_t>(4 * dh));
  gemv(w, x, y_backend);
  reference::gemv(w, x, y_ref);
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    EXPECT_EQ(std::memcmp(&y_backend[i], &y_ref[i], sizeof(float)), 0) << i;
  }
}

TEST_P(BackendKernelTest, SparseAccumRowsMatchesReferenceBitwise) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 4));
  const Matrix packed = random_matrix(dh, 4 * dh, rng);
  // Keep ~40% of positions; values position-major with some zero lanes
  // (a lane kept only because another lane was non-zero).
  std::vector<Index> positions;
  std::vector<float> values;
  for (Index j = 0; j < dh; ++j) {
    if (dh > 1 && !rng.bernoulli(0.4)) continue;
    positions.push_back(j);
    for (Index b = 0; b < batch; ++b) {
      values.push_back(rng.bernoulli(0.25)
                           ? 0.0f
                           : static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
  }
  Matrix out_backend(batch, 4 * dh, 0.125f);
  Matrix out_ref = out_backend;
  sparse_accum_rows(packed, positions, values, out_backend);
  reference::sparse_accum_rows(packed, positions, values, out_ref);
  expect_bitwise_equal(out_backend, out_ref);  // 0 ULP
}

TEST_P(BackendKernelTest, SparseAccumRowsMultiMatchesReferenceBitwise) {
  // Per-lane CSR lists with a ragged mix of patterns across lanes:
  // ~40% kept on most lanes, one empty lane, one full lane, and one
  // single-position lane (when the batch has room for them). Every
  // backend must reproduce the reference lane-sequential accumulation
  // to 0 ULP whatever schedule (grouping, merging, tiling) it uses.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 7));
  const Matrix packed = random_matrix(dh, 4 * dh, rng);
  std::vector<Index> positions;
  std::vector<Index> row_start{0};
  std::vector<float> values;
  for (Index b = 0; b < batch; ++b) {
    if (b == 1) {
      // empty lane: contributes nothing, must not disturb neighbours
    } else if (b == 2) {
      for (Index j = 0; j < dh; ++j) {  // full lane
        positions.push_back(j);
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    } else if (b == 3) {
      positions.push_back(dh - 1);  // single position, at the edge
      values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    } else {
      for (Index j = 0; j < dh; ++j) {
        if (dh > 1 && !rng.bernoulli(0.4)) continue;
        positions.push_back(j);
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
  Matrix out_backend(batch, 4 * dh, 0.125f);  // non-zero start: accumulate
  Matrix out_ref = out_backend;
  sparse_accum_rows_multi(packed, positions, row_start, values, out_backend);
  reference::sparse_accum_rows_multi(packed, positions, row_start, values,
                                     out_ref);
  expect_bitwise_equal(out_backend, out_ref);  // 0 ULP
}

TEST_P(BackendKernelTest, SparseAccumRowsMultiAgreesWithIntersectedKernel) {
  // Feeding every lane the same kept list through the per-lane CSR
  // kernel must give the same bits as the position-major intersected
  // kernel with all-non-zero values: both are the identical per-element
  // ascending chains, just differently scheduled.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 8));
  const Matrix packed = random_matrix(dh, 4 * dh, rng);
  std::vector<Index> shared;
  for (Index j = 0; j < dh; j += 2) shared.push_back(j);
  // Position-major values for the intersected kernel...
  std::vector<float> values_pm;
  for (std::size_t e = 0; e < shared.size(); ++e) {
    for (Index b = 0; b < batch; ++b) {
      values_pm.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
  }
  // ...and the same values laid out lane-major for the CSR kernel.
  std::vector<Index> positions;
  std::vector<Index> row_start{0};
  std::vector<float> values_lm;
  for (Index b = 0; b < batch; ++b) {
    for (std::size_t e = 0; e < shared.size(); ++e) {
      positions.push_back(shared[e]);
      values_lm.push_back(values_pm[e * static_cast<std::size_t>(batch) +
                                   static_cast<std::size_t>(b)]);
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
  Matrix out_multi(batch, 4 * dh, 0.0f);
  Matrix out_inter(batch, 4 * dh, 0.0f);
  sparse_accum_rows_multi(packed, positions, row_start, values_lm, out_multi);
  sparse_accum_rows(packed, shared, values_pm, out_inter);
  expect_bitwise_equal(out_multi, out_inter);
}

// Ragged per-lane CSR lists mirroring the multi test's mix: ~40% kept
// on most lanes, one empty lane, one full lane, one single-position
// lane. Shared by the overwrite-flavour tests below.
void ragged_csr(Index dh, Index batch, Rng& rng, std::vector<Index>& positions,
                std::vector<Index>& row_start, std::vector<float>& values) {
  row_start.assign(1, 0);
  for (Index b = 0; b < batch; ++b) {
    if (b == 1) {
      // empty lane: the overwrite kernel must still zero it
    } else if (b == 2) {
      for (Index j = 0; j < dh; ++j) {
        positions.push_back(j);
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    } else if (b == 3) {
      positions.push_back(dh - 1);
      values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    } else {
      for (Index j = 0; j < dh; ++j) {
        if (dh > 1 && !rng.bernoulli(0.4)) continue;
        positions.push_back(j);
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
}

TEST_P(BackendKernelTest, SparseAccumRowsMultiOverwriteMatchesReference) {
  // Outputs are prefilled with NaN garbage: any element the kernel
  // forgets to write poisons the bitwise comparison, so passing proves
  // every element — including whole entry-less lanes — is overwritten.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 9));
  const Matrix packed = random_matrix(dh, 4 * dh, rng);
  std::vector<Index> positions;
  std::vector<Index> row_start;
  std::vector<float> values;
  ragged_csr(dh, batch, rng, positions, row_start, values);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Matrix out_backend(batch, 4 * dh, nan);
  Matrix out_ref(batch, 4 * dh, nan);
  sparse_accum_rows_multi_overwrite(packed, positions, row_start, values,
                                    out_backend);
  reference::sparse_accum_rows_multi_overwrite(packed, positions, row_start,
                                               values, out_ref);
  expect_bitwise_equal(out_backend, out_ref);  // 0 ULP, no NaN survives
}

TEST_P(BackendKernelTest, SparseAccumRowsMultiOverwriteEqualsZeroFillAccum) {
  // The defining identity from kernels.h: overwrite over garbage is
  // bit-identical to zero-filling the output and running the
  // accumulate flavour. This is what lets the engine's batched path
  // drop the per-step pre_h zero fill.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 9));
  const Matrix packed = random_matrix(dh, 4 * dh, rng);
  std::vector<Index> positions;
  std::vector<Index> row_start;
  std::vector<float> values;
  ragged_csr(dh, batch, rng, positions, row_start, values);
  Matrix out_ow(batch, 4 * dh, -7.0e33f);  // garbage prefill
  Matrix out_accum(batch, 4 * dh, 0.0f);   // the zero fill being elided
  sparse_accum_rows_multi_overwrite(packed, positions, row_start, values,
                                    out_ow);
  sparse_accum_rows_multi(packed, positions, row_start, values, out_accum);
  expect_bitwise_equal(out_ow, out_accum);
  // Entry-less lanes must come out as +0.0f bits, not just compare
  // equal (-0.0f == +0.0f would slip through operator==).
  if (batch > 1) {
    for (Index j = 0; j < 4 * dh; ++j) {
      const float z = out_ow(1, j);
      EXPECT_EQ(std::memcmp(&z, &(out_accum(1, j)), sizeof(float)), 0);
      EXPECT_EQ(z, 0.0f);
      EXPECT_FALSE(std::signbit(z)) << j;
    }
  }
}

TEST_P(BackendKernelTest, SparseAccumRowsMatchesColumnGather) {
  // The packed-row accumulation must equal the accelerator's column
  // gather over the original gate-major matrix bit-for-bit.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 5));
  const Matrix wh = random_matrix(4 * dh, dh, rng);
  Matrix packed;
  transpose(wh, packed);
  std::vector<Index> positions;
  std::vector<float> values;
  for (Index j = 0; j < dh; j += 2) {
    positions.push_back(j);
    for (Index b = 0; b < batch; ++b) {
      values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
  }
  Matrix out_packed(batch, 4 * dh, 0.0f);
  sparse_accum_rows(packed, positions, values, out_packed);
  Matrix out_cols(batch, 4 * dh, 0.0f);
  for (std::size_t e = 0; e < positions.size(); ++e) {
    for (Index b = 0; b < batch; ++b) {
      axpy_col(wh, positions[e],
               values[e * static_cast<std::size_t>(batch) +
                      static_cast<std::size_t>(b)],
               out_cols.row(b));
    }
  }
  expect_bitwise_equal(out_packed, out_cols);
}

TEST_P(BackendKernelTest, AxpyMatchesMaddChain) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 6));
  std::vector<float> x(static_cast<std::size_t>(4 * dh * batch));
  std::vector<float> y(x.size());
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y_ref = y;
  const float alpha = 0.75f;
  axpy(alpha, x, y);
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    y_ref[i] = madd(alpha, x[i], y_ref[i]);
  }
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    EXPECT_EQ(std::memcmp(&y[i], &y_ref[i], sizeof(float)), 0) << i;
  }
}

// Crosses every blocking boundary of the shared schedules at once:
// 4*dh = 2*kMultiJTile + 12 columns (two full j-tiles and a ragged
// tail), dh = k not a multiple of kMultiGroup, and a batch (the gemm's
// m) past one kMultiLaneBlock.
constexpr Shape kScheduleEdges{simd::kMultiJTile / 2 + 3,
                               simd::kMultiLaneBlock + 5};
static_assert((4 * kScheduleEdges.dh) % simd::kMultiJTile != 0 &&
              4 * kScheduleEdges.dh > 2 * simd::kMultiJTile &&
              kScheduleEdges.dh % simd::kMultiGroup != 0 &&
              kScheduleEdges.batch > simd::kMultiLaneBlock);

INSTANTIATE_TEST_SUITE_P(
    OddShapesAllBackends, BackendKernelTest,
    ::testing::Combine(::testing::Values(Shape{1, 1}, Shape{1, 2}, Shape{3, 1},
                                         Shape{3, 5}, Shape{17, 2},
                                         Shape{17, 5}, Shape{17, 40},
                                         Shape{64, 1}, Shape{64, 2},
                                         Shape{64, 5}, Shape{64, 33},
                                         kScheduleEdges),
                       ::testing::ValuesIn(simd::available_backends())),
    param_name);

TEST(ParallelKernelsTest, ThreadedGemmBitIdenticalToSingleThread) {
  Rng rng(77);
  const Matrix a = random_matrix(33, 65, rng);
  const Matrix b = random_matrix(65, 47, rng);
  const Matrix bt_like = random_matrix(47, 65, rng);

  ASSERT_EQ(num_threads(), 1);
  Matrix c1, c1_bt;
  gemm(a, b, c1);
  gemm_a_bt(a, bt_like, c1_bt);

  set_num_threads(4);
  Matrix c4, c4_bt;
  gemm(a, b, c4);
  gemm_a_bt(a, bt_like, c4_bt);
  set_num_threads(1);

  expect_bitwise_equal(c1, c4);
  expect_bitwise_equal(c1_bt, c4_bt);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  set_num_threads(3);
  std::vector<int> hits(100, 0);
  parallel_for(Index{0}, Index{100}, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  set_num_threads(1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TransposeTest, RoundTripsAndMatchesElements) {
  Rng rng(5);
  const Matrix m = random_matrix(33, 17, rng);
  Matrix t;
  transpose(m, t);
  ASSERT_EQ(t.rows(), 17);
  ASSERT_EQ(t.cols(), 33);
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) EXPECT_EQ(t(j, i), m(i, j));
  }
  Matrix back;
  transpose(t, back);
  expect_bitwise_equal(back, m);
}

}  // namespace
}  // namespace zss::num
