// Ablation A5 — kernel microbenchmarks (google-benchmark): the software
// building blocks whose costs the simulator and trainer are built on.
//
// The output header carries a "zss_kernel_backend" context line naming
// the SIMD backend the default-dispatched benchmarks ran on, so JSONs
// from different machines (or ZSS_KERNEL_BACKEND settings) stay
// comparable. The BM_*PerBackend benchmarks additionally pin each
// available backend in turn and label the rows accordingly.
#include <benchmark/benchmark.h>

#include "accel/scheduler.h"
#include "accel/synthetic.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "nn/packed_weights.h"
#include "num/kernels.h"
#include "num/reference_kernels.h"
#include "num/rng.h"
#include "num/simd/backend.h"
#include "quant/quantize.h"
#include "sparse/encoding.h"

namespace {

using namespace zss;

num::Matrix random_matrix(num::Index rows, num::Index cols,
                          std::uint64_t seed) {
  num::Rng rng(seed);
  num::Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void BM_GemvDense(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  const auto w = random_matrix(4 * n, n, 1);
  std::vector<float> x(static_cast<std::size_t>(n), 0.5f);
  std::vector<float> y(static_cast<std::size_t>(4 * n));
  for (auto _ : state) {
    num::gemv(w, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n);
}
BENCHMARK(BM_GemvDense)->Arg(128)->Arg(256)->Arg(512);

void BM_SparseColumnGemv(benchmark::State& state) {
  // The skip-aware matvec at 90% sparsity: accumulate 10% of columns.
  const auto n = static_cast<num::Index>(state.range(0));
  const auto w = random_matrix(4 * n, n, 2);
  num::Rng rng(3);
  std::vector<num::Index> kept;
  for (num::Index j = 0; j < n; ++j) {
    if (rng.bernoulli(0.1)) kept.push_back(j);
  }
  std::vector<float> y(static_cast<std::size_t>(4 * n), 0.0f);
  for (auto _ : state) {
    for (num::Index j : kept) num::axpy_col(w, j, 0.5f, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<num::Index>(kept.size()) * 4 * n);
}
BENCHMARK(BM_SparseColumnGemv)->Arg(128)->Arg(256)->Arg(512);

// The packed-row sparse accumulation at 90% sparsity — same work as
// BM_SparseColumnGemv, but streaming contiguous transposed rows instead
// of stride-4n column gathers.
void BM_SparseAccumRowsPacked(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  const auto w = random_matrix(4 * n, n, 2);
  num::Matrix packed;
  num::transpose(w, packed);
  num::Rng rng(3);
  std::vector<num::Index> kept;
  for (num::Index j = 0; j < n; ++j) {
    if (rng.bernoulli(0.1)) kept.push_back(j);
  }
  const std::vector<float> values(kept.size(), 0.5f);
  num::Matrix out(1, 4 * n, 0.0f);
  for (auto _ : state) {
    num::sparse_accum_rows(packed, kept, values, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<num::Index>(kept.size()) * 4 * n);
}
BENCHMARK(BM_SparseAccumRowsPacked)->Arg(128)->Arg(256)->Arg(512);

// Blocked gemm_a_bt (the dense recurrent/BPTT shape) against the seed's
// scalar one-dot-per-element kernel — the acceptance target is >= 2x at
// dh = 512 on the same machine.
void BM_GemmABtBlocked(benchmark::State& state) {
  const auto dh = static_cast<num::Index>(state.range(0));
  const auto a = random_matrix(8, dh, 20);
  const auto b = random_matrix(4 * dh, dh, 21);
  num::Matrix c;
  for (auto _ : state) {
    num::gemm_a_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 4 * dh * dh);
}
BENCHMARK(BM_GemmABtBlocked)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmABtSeedScalar(benchmark::State& state) {
  const auto dh = static_cast<num::Index>(state.range(0));
  const auto a = random_matrix(8, dh, 20);
  const auto b = random_matrix(4 * dh, dh, 21);
  num::Matrix c;
  for (auto _ : state) {
    num::reference::gemm_a_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 4 * dh * dh);
}
BENCHMARK(BM_GemmABtSeedScalar)->Arg(128)->Arg(256)->Arg(512);

void BM_GemvBlockedVsSeed(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  const auto w = random_matrix(4 * n, n, 22);
  std::vector<float> x(static_cast<std::size_t>(n), 0.5f);
  std::vector<float> y(static_cast<std::size_t>(4 * n));
  const bool blocked = state.range(1) != 0;
  for (auto _ : state) {
    if (blocked) {
      num::gemv(w, x, y);
    } else {
      num::reference::gemv(w, x, y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n);
}
BENCHMARK(BM_GemvBlockedVsSeed)
    ->Args({512, 0})
    ->Args({512, 1});

void BM_QuantizedGemv(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  const auto w = random_matrix(4 * n, n, 4);
  num::MatrixI8 wq;
  const auto wp = quant::quantize_matrix(w, wq);
  std::vector<std::int8_t> xq(static_cast<std::size_t>(n), 42);
  std::vector<float> y(static_cast<std::size_t>(4 * n));
  for (auto _ : state) {
    quant::qgemv(wq, wp, xq, quant::QuantParams{0.01f}, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n);
}
BENCHMARK(BM_QuantizedGemv)->Arg(128)->Arg(256);

void BM_StatePruner(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  const core::StatePruner pruner(core::PrunerConfig::target(0.95));
  const auto h = random_matrix(8, n, 5);
  num::Matrix out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pruner.prune(h, out));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
BENCHMARK(BM_StatePruner)->Arg(256)->Arg(1024);

void BM_Encoder(benchmark::State& state) {
  const auto n = static_cast<num::Index>(state.range(0));
  num::Rng rng(6);
  num::Matrix h(8, n, 0.0f);
  for (float& v : h.flat()) {
    if (rng.bernoulli(0.1)) v = static_cast<float>(rng.normal());
  }
  const sparse::EncoderConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::encode(h, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
BENCHMARK(BM_Encoder)->Arg(256)->Arg(1024);

void BM_LstmCellForward(benchmark::State& state) {
  const auto dh = static_cast<num::Index>(state.range(0));
  num::Rng rng(7);
  nn::LstmCell cell(64, dh, rng);
  const auto x = random_matrix(8, 64, 8);
  const auto h = random_matrix(8, dh, 9);
  const auto c = random_matrix(8, dh, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.forward(x, h, c, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * 8 * 4 * dh * (64 + dh));
}
BENCHMARK(BM_LstmCellForward)->Arg(64)->Arg(128)->Arg(256);

void BM_LstmCellTrainStep(benchmark::State& state) {
  const auto dh = static_cast<num::Index>(state.range(0));
  num::Rng rng(11);
  nn::LstmCell cell(64, dh, rng);
  const auto x = random_matrix(8, 64, 12);
  const auto h = random_matrix(8, dh, 13);
  const auto c = random_matrix(8, dh, 14);
  const num::Matrix dh_grad(8, dh, 0.1f);
  const num::Matrix dc_grad(8, dh, 0.0f);
  for (auto _ : state) {
    nn::LstmStepCache cache;
    benchmark::DoNotOptimize(cell.forward(x, h, c, &cache));
    benchmark::DoNotOptimize(cell.backward(cache, dh_grad, dc_grad));
  }
  state.SetItemsProcessed(state.iterations() * 8 * 4 * dh * (64 + dh) * 3);
}
BENCHMARK(BM_LstmCellTrainStep)->Arg(64)->Arg(128);

void BM_SchedulerTimestep(benchmark::State& state) {
  const accel::AcceleratorConfig cfg;
  const accel::Scheduler sched(cfg);
  const auto shape = accel::WorkloadShape::ptb_char(8);
  num::Rng rng(15);
  const auto mask = accel::mask_from_intersected_sparsity(shape, 0.81, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run_timestep(shape, mask));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerTimestep);

// The two kernels the SIMD backends exist for, each pinned to one
// backend (state.label names it). Comparing rows of this benchmark on
// one machine is the apples-to-apples scalar-vs-avx2 number.
void BM_GemmABtPerBackend(benchmark::State& state,
                          const num::simd::KernelBackend* backend) {
  num::simd::set_backend_for_testing(backend);
  const num::Index dh = 512;
  const auto a = random_matrix(8, dh, 20);
  const auto b = random_matrix(4 * dh, dh, 21);
  num::Matrix c;
  for (auto _ : state) {
    num::gemm_a_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 4 * dh * dh);
  state.SetLabel(backend->name);
  num::simd::set_backend_for_testing(nullptr);
}

// The engine's input-path gemm (x · wxt) at its Wx shapes: m = batch
// (1 or 8), k = dx (256 for an embedding-fed first layer, 512 for a
// stacked layer fed by a 512-wide one), n = 4 * dh = 2048. Items are
// MACs, so items_per_second reads as MAC/s; BM_GemmReference is the
// unblocked num::reference loop on the same shapes.
void BM_GemmPerBackend(benchmark::State& state,
                       const num::simd::KernelBackend* backend) {
  num::simd::set_backend_for_testing(backend);
  const num::Index m = state.range(0);
  const num::Index k = state.range(1);
  const num::Index n = 2048;
  const auto a = random_matrix(m, k, 22);
  const auto b = random_matrix(k, n, 23);
  num::Matrix c;
  for (auto _ : state) {
    num::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel(backend->name);
  num::simd::set_backend_for_testing(nullptr);
}

void BM_GemmReference(benchmark::State& state) {
  const num::Index m = state.range(0);
  const num::Index k = state.range(1);
  const num::Index n = 2048;
  const auto a = random_matrix(m, k, 22);
  const auto b = random_matrix(k, n, 23);
  num::Matrix c;
  for (auto _ : state) {
    num::reference::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmReference)->ArgsProduct({{1, 8}, {256, 512}});

void BM_SparseAccumRowsPerBackend(benchmark::State& state,
                                  const num::simd::KernelBackend* backend) {
  num::simd::set_backend_for_testing(backend);
  const num::Index dh = 512;
  const auto w = random_matrix(4 * dh, dh, 2);
  num::Matrix packed;
  num::transpose(w, packed);
  num::Rng rng(3);
  std::vector<num::Index> kept;
  for (num::Index j = 0; j < dh; ++j) {
    if (rng.bernoulli(0.1)) kept.push_back(j);
  }
  const std::vector<float> values(kept.size(), 0.5f);
  num::Matrix out(1, 4 * dh, 0.0f);
  for (auto _ : state) {
    num::sparse_accum_rows(packed, kept, values, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<num::Index>(kept.size()) * 4 * dh);
  state.SetLabel(backend->name);
  num::simd::set_backend_for_testing(nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("zss_kernel_backend",
                              zss::num::simd::active_backend().name);
  for (const auto* backend : zss::num::simd::available_backends()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_GemmPerBackend/") + backend->name).c_str(),
        BM_GemmPerBackend, backend)
        ->ArgsProduct({{1, 8}, {256, 512}});
    benchmark::RegisterBenchmark(
        (std::string("BM_GemmABtPerBackend/dh512/") + backend->name).c_str(),
        BM_GemmABtPerBackend, backend);
    benchmark::RegisterBenchmark(
        (std::string("BM_SparseAccumRowsPerBackend/dh512/") + backend->name)
            .c_str(),
        BM_SparseAccumRowsPerBackend, backend);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
