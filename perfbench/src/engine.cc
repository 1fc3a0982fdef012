#include "engine.h"

#include <algorithm>
#include <cstdint>

#include "num/kernels.h"
#include "num/rng.h"
#include "quant/quantize.h"
#include "sparse/encoding.h"

namespace perfbench {

namespace zc = zss::core;

zss::serve::ServeModel StackModel::serve_model() const {
  zss::serve::ServeModel sm;
  sm.cells = cells;
  sm.pruners = pruner_ptrs;
  sm.embedding = embedding();
  sm.name = name;
  sm.vocab = vocab;
  return sm;
}

void StackModel::input_rows(std::span<const zn::Index> tokens,
                            zn::Matrix& x) const {
  const auto B = static_cast<zn::Index>(tokens.size());
  if (embedding() != nullptr) {
    embedding()->forward(tokens, x);
    return;
  }
  x.reshape(B, input_dim());
  x.fill(0.0f);
  for (zn::Index r = 0; r < B; ++r) {
    x(r, tokens[static_cast<std::size_t>(r)] % input_dim()) = 1.0f;
  }
}

namespace {

void finish_pointers(StackModel& m) {
  m.cells.clear();
  m.pruner_ptrs.clear();
  m.pruners.clear();
  for (const auto& c : m.loaded.cells) m.cells.push_back(c.get());
  for (const float t : m.thresholds) {
    m.pruners.emplace_back(zc::PrunerConfig::fixed(t));
  }
  for (const auto& p : m.pruners) m.pruner_ptrs.push_back(&p);
}

}  // namespace

void build_random_model(StackModel& m, std::uint64_t seed, zn::Index vocab,
                        zn::Index embed_dim, zn::Index hidden,
                        zn::Index layers, double sparsity,
                        zn::Index calib_steps) {
  zn::Rng rng(seed);
  m.vocab = vocab;
  if (embed_dim > 0) {
    m.loaded.embedding = std::make_unique<zss::nn::Embedding>(vocab, embed_dim, rng);
  }
  const zn::Index dx = embed_dim > 0 ? embed_dim : vocab;
  for (zn::Index l = 0; l < layers; ++l) {
    m.loaded.cells.push_back(
        std::make_unique<zss::nn::LstmCell>(l == 0 ? dx : hidden, hidden, rng));
  }
  m.thresholds.assign(static_cast<std::size_t>(layers), 0.0f);
  finish_pointers(m);

  // Calibration: target-sparsity pruners set each step's threshold to
  // the batch quantile of |h|; their mean over the second half of the
  // steps (the state has left its all-zero start) becomes the fixed
  // threshold (a serving shard refuses batch-dependent pruning).
  std::deque<zc::StatePruner> target;
  std::vector<const zc::StatePruner*> target_ptrs;
  for (zn::Index l = 0; l < layers; ++l) {
    target.emplace_back(zc::PrunerConfig::target(sparsity));
  }
  for (const auto& p : target) target_ptrs.push_back(&p);
  zc::StackedEngine calib(m.cells, target_ptrs);
  const zn::Index B = 8;
  std::vector<zn::Matrix> h(static_cast<std::size_t>(layers), zn::Matrix(B, hidden));
  std::vector<zn::Matrix> c = h;
  std::vector<zn::Matrix> dense(static_cast<std::size_t>(layers));
  std::vector<double> sum(static_cast<std::size_t>(layers), 0.0);
  std::vector<zn::Index> tokens(static_cast<std::size_t>(B));
  std::vector<float> scratch;
  zn::Matrix x;
  for (zn::Index t = 0; t < calib_steps; ++t) {
    for (zn::Index b = 0; b < B; ++b) {
      tokens[static_cast<std::size_t>(b)] =
          static_cast<zn::Index>(mix3(seed, 0xca11b, static_cast<std::uint64_t>(t * B + b)) %
                                 static_cast<std::uint64_t>(vocab));
    }
    m.input_rows(tokens, x);
    for (zn::Index l = 0; l < layers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      calib.step_layer(l, l == 0 ? x : dense[li - 1], h[li], c[li], &dense[li]);
      if (2 * t >= calib_steps) {
        sum[li] += target[li].effective_threshold(dense[li], scratch);
      }
    }
  }
  for (zn::Index l = 0; l < layers; ++l) {
    m.thresholds[static_cast<std::size_t>(l)] = static_cast<float>(
        sum[static_cast<std::size_t>(l)] / static_cast<double>(calib_steps - calib_steps / 2));
  }
  finish_pointers(m);
}

bool load_model_file(const std::string& path, StackModel& m,
                     std::string* error) {
  if (!zc::load_model(path, m.loaded, error)) return false;
  m.thresholds = m.loaded.spec.thresholds;
  m.vocab = static_cast<zn::Index>(m.loaded.spec.vocab);
  m.name = path;
  finish_pointers(m);
  return true;
}

bool save_model_file(const std::string& path, StackModel& m, std::string* error) {
  zn::Rng rng(kModelSeed ^ 0xc1a55);
  if (!m.loaded.classifier) {
    m.loaded.classifier =
        std::make_unique<zss::nn::Linear>(m.hidden(), m.vocab, rng);
  }
  zc::ModelSpec spec;
  spec.layers = static_cast<std::uint32_t>(m.layers());
  spec.hidden = static_cast<std::uint32_t>(m.hidden());
  spec.input_dim = static_cast<std::uint32_t>(m.input_dim());
  spec.vocab = static_cast<std::uint32_t>(m.vocab);
  spec.embed_dim = m.embedding() != nullptr
                       ? static_cast<std::uint32_t>(m.embedding()->dim())
                       : 0;
  spec.has_quant_grid = 1;
  const zc::QuantConfig q8 = zc::QuantConfig::int8();
  spec.quant_pre_clip = q8.pre_clip;
  spec.quant_c_clip = static_cast<std::uint32_t>(q8.c_clip);
  spec.thresholds = m.thresholds;
  std::vector<zss::nn::Parameter*> params;
  if (m.loaded.embedding) params.push_back(&m.loaded.embedding->table());
  for (auto& cell : m.loaded.cells) {
    for (auto* p : cell->parameters()) params.push_back(p);
  }
  for (auto* p : m.loaded.classifier->parameters()) params.push_back(p);
  const auto expected = zc::expected_parameters(spec);
  if (expected.size() != params.size()) {
    if (error) *error = "parameter count differs from the canonical list";
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->name = expected[i].name;
  return zc::save_model(path, spec, params, error);
}

namespace {

// Times fn() and records it as a span; returns nanoseconds.
template <typename F>
std::int64_t timed(Tracer* tracer, const char* name, const char* layer,
                   std::int32_t parent, F&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  if (tracer != nullptr) tracer->add(name, layer, parent, t0, t1);
  return t1 - t0;
}

}  // namespace

LayerProbe probe_layer(const zc::SparseLstmEngine& engine,
                       const std::vector<LayerSample>& samples,
                       std::int64_t budget_ns, Tracer* tracer,
                       std::int32_t parent) {
  LayerProbe out;
  if (samples.empty()) return out;
  const zn::Index B = samples.front().h.rows();
  const zn::Index dh = samples.front().h.cols();
  const zn::Index dx = samples.front().in.cols();
  const bool quant = engine.quantized();

  std::vector<double> wx, wh, enc;
  zn::Matrix pre, pre_h;
  zss::sparse::LaneEncodedState<float> lanes;
  zss::sparse::LaneEncodedState<std::int8_t> lanes8;
  zn::MatrixI8 xq, hq;
  zn::MatrixI32 pre8, pre_h8;
  const zss::quant::QuantParams grid{zss::nn::PackedLstmWeightsI8::kStateScale};

  const std::int64_t deadline = now_ns() + budget_ns;
  std::size_t i = 0;
  double kept_sum = 0.0, nnz_sum = 0.0, rows_sum = 0.0;
  // At least two passes over the samples; then until the budget is spent.
  while (i < 2 * samples.size() || now_ns() < deadline) {
    const LayerSample& s = samples[i % samples.size()];
    ++i;
    if (!quant) {
      pre.reshape(B, 4 * dh);
      pre_h.reshape(B, 4 * dh);
      wx.push_back(static_cast<double>(timed(tracer, "num.wx_gemm", "num", parent, [&] {
        zn::gemm(s.in, engine.packed_weights().wxt, pre);
      })));
      enc.push_back(static_cast<double>(timed(tracer, "sparse.encode", "sparse", parent, [&] {
        zss::sparse::encode_lanes_into(s.h, lanes);
      })));
      wh.push_back(static_cast<double>(timed(tracer, "num.wh_accum", "num", parent, [&] {
        zn::sparse_accum_rows_multi_overwrite(engine.packed_weights().wht, lanes.positions,
                                              lanes.row_start, lanes.values, pre_h);
      })));
      kept_sum += static_cast<double>(lanes.total_kept());
      for (zn::Index j = 0; j < dx; ++j) {
        zn::Index nz = 0;
        for (zn::Index r = 0; r < B; ++r) nz += s.in(r, j) != 0.0f ? 1 : 0;
        nnz_sum += static_cast<double>(nz);
        rows_sum += nz > 0 ? 1.0 : 0.0;
      }
    } else {
      const auto* w8 = engine.packed_weights_i8();
      // The kernels' int8 operands (untimed: part of the step's other work).
      xq.reshape(B, dx);
      zss::quant::quantize(s.in.flat(), grid, xq.flat());
      hq.reshape(B, dh);
      zss::quant::quantize(s.h.flat(), grid, hq.flat());
      pre_h8.reshape(B, 4 * dh);
      pre_h8.fill(0);
      wx.push_back(static_cast<double>(timed(tracer, "num.i8.wx_gemm", "num", parent, [&] {
        zn::gemm_a_bt_i8(xq, w8->wx, pre8);
      })));
      enc.push_back(static_cast<double>(timed(tracer, "sparse.encode", "sparse", parent, [&] {
        zss::sparse::encode_lanes_into(hq, lanes8);
      })));
      wh.push_back(static_cast<double>(timed(tracer, "num.i8.wh_accum", "num", parent, [&] {
        zn::sparse_accum_rows_multi_i8(w8->wht, lanes8.positions, lanes8.row_start,
                                       lanes8.values, pre_h8);
      })));
      kept_sum += static_cast<double>(lanes8.total_kept());
      nnz_sum += static_cast<double>(B * dx);  // the int8 GEMM skips nothing
      rows_sum += static_cast<double>(dx);
    }
  }
  const double calls = static_cast<double>(i);
  out.wx_us = median(wx) / 1e3;
  out.wh_us = median(wh) / 1e3;
  out.encode_us = median(enc) / 1e3;
  out.kept_lanes_positions = kept_sum / calls;
  const double g = 4.0 * static_cast<double>(dh);
  const double wsize = quant ? 1.0 : 4.0;
  const double vsize = quant ? 1.0 : 4.0;
  // fp32 gemm skips exact-zero inputs (a one-hot row costs one weight
  // row); its effectual work is nnz(x) x 4dh.
  out.wx_macs = nnz_sum / calls * g;
  // Bytes each call must move at least once: the input, every weight
  // row the kernel reads (fp32 reads only rows of non-zero input
  // columns), and the i32/f32 output.
  out.wx_bytes = static_cast<double>(B * dx) * vsize + rows_sum / calls * g * wsize +
                 static_cast<double>(B) * g * 4.0;
  out.wh_macs = out.kept_lanes_positions * g;
  out.wh_bytes = out.kept_lanes_positions * (g * wsize + vsize + sizeof(zn::Index)) +
                 static_cast<double>(B) * g * 4.0;
  return out;
}

std::vector<std::vector<LayerSample>> capture_samples(zc::StackedEngine& engine,
                                                      const StackModel& m,
                                                      std::uint64_t seed, zn::Index batch,
                                                      zn::Index warm, zn::Index count) {
  const zn::Index L = engine.layers();
  std::vector<std::vector<LayerSample>> samples(static_cast<std::size_t>(L));
  std::vector<zn::Matrix> h(static_cast<std::size_t>(L), zn::Matrix(batch, m.hidden()));
  std::vector<zn::Matrix> c = h;
  std::vector<zn::Matrix> dense(static_cast<std::size_t>(L));
  std::vector<zn::Index> tokens(static_cast<std::size_t>(batch));
  zn::Matrix x;
  for (zn::Index t = 0; t < warm + count; ++t) {
    for (zn::Index b = 0; b < batch; ++b) {
      tokens[static_cast<std::size_t>(b)] = static_cast<zn::Index>(
          mix3(seed, 0x9a3b1e + static_cast<std::uint64_t>(b), static_cast<std::uint64_t>(t)) %
          static_cast<std::uint64_t>(m.vocab));
    }
    m.input_rows(tokens, x);
    for (zn::Index l = 0; l < L; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const zn::Matrix& in = l == 0 ? x : dense[li - 1];
      if (t >= warm) samples[li].push_back({in, h[li], c[li]});
      engine.step_layer(l, in, h[li], c[li], &dense[li]);
    }
  }
  return samples;
}

std::vector<LayerProbe> report_probes(const zc::StackedEngine& engine,
                                      const std::vector<std::vector<LayerSample>>& samples,
                                      std::int64_t budget_ns, Tracer* tracer, Report& rep) {
  const zn::Index L = engine.layers();
  const std::int32_t root = tracer != nullptr ? tracer->begin("probe", "bench") : -1;
  std::vector<LayerProbe> out;
  LayerProbe sum;
  for (zn::Index l = 0; l < L; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const LayerProbe p =
        probe_layer(engine.layer_engine(l), samples[li], budget_ns * 9 / 10 / L, tracer, root);
    const std::string k = "core.layer" + std::to_string(l) + ".";
    rep.set(k + "wx_us", p.wx_us);
    rep.set(k + "wh_us", p.wh_us);
    rep.set(k + "encode_us", p.encode_us);
    sum.wx_us += p.wx_us;
    sum.wh_us += p.wh_us;
    sum.encode_us += p.encode_us;
    sum.wx_macs += p.wx_macs;
    sum.wh_macs += p.wh_macs;
    sum.wx_bytes += p.wx_bytes;
    sum.wh_bytes += p.wh_bytes;
    out.push_back(p);
  }
  const double triad = triad_gbs(budget_ns / 10);
  if (tracer != nullptr) tracer->end(root);
  const std::string pre = engine.quantized() ? "num.i8." : "num.";
  rep.set(pre + "wx_gemm_us", sum.wx_us);
  rep.set(pre + "wx_gemm_gmacs", sum.wx_macs / sum.wx_us / 1e3);
  rep.set(pre + "wx_gemm_bytes", sum.wx_bytes);
  rep.set(pre + "wh_accum_us", sum.wh_us);
  rep.set(pre + "wh_accum_gmacs", sum.wh_macs / sum.wh_us / 1e3);
  rep.set(pre + "wh_accum_bytes", sum.wh_bytes);
  rep.set("num.triad_gbs", triad);
  rep.set("num.wh_accum_roofline_frac", sum.wh_bytes / sum.wh_us / 1e3 / triad);
  rep.set("sparse.encode_us", sum.encode_us);
  return out;
}

double triad_gbs(std::int64_t budget_ns) {
  // 16 MB per array: past the private L2, so the roof is the shared
  // cache / memory path the packed Wh rows of a 512-wide stack (4 MB a
  // layer) stream from.
  const std::size_t n = std::size_t{4} << 20;
  std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  std::vector<double> gbs;
  const std::int64_t deadline = now_ns() + budget_ns;
  float s = 0.5f;
  while (gbs.size() < 3 || (now_ns() < deadline && gbs.size() < 200)) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const std::int64_t t1 = now_ns();
    gbs.push_back(3.0 * static_cast<double>(n) * sizeof(float) /
                  static_cast<double>(t1 - t0));
    s = a[n / 2] * 1e-9f + 0.5f;  // keep the loop observable
  }
  return median(gbs);
}

}  // namespace perfbench
