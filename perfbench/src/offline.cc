// offline_fp32 / offline_int8: a 3 x 512 stacked LSTM over a 64 x 256
// embedding, pruned to 0.9 state sparsity per layer, stepping 8
// independent token streams as one batch through StackedEngine::step.
//
// Why these workloads: this is the char-LM shape of the ROADMAP. The
// input GEMM (never skipped) is most of the effectual MACs per step, so
// dense-kernel work and skip work both show, while serve and store do
// nothing. The int8 twin is the only workload that runs the int8
// kernels; a change to one datapath predicts no change on the other.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "core/quantized_reference.h"
#include "engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace zc = zss::core;

constexpr zn::Index kVocab = 64;
constexpr zn::Index kEmbed = 256;
constexpr zn::Index kHidden = 512;
constexpr zn::Index kLayers = 3;
constexpr zn::Index kBatch = 8;
constexpr double kSparsity = 0.9;
constexpr zn::Index kCalibSteps = 48;
constexpr int kReps = 5;
constexpr int kReloads = 2;  // checkpoint reloads per repetition

/// One token stream per lane; token t of lane b is a pure function of
/// the seed (the library sees only these generated tokens).
zn::Index token_of(std::uint64_t seed, zn::Index lane, zn::Index t) {
  return static_cast<zn::Index>(
      mix3(seed, static_cast<std::uint64_t>(lane), static_cast<std::uint64_t>(t)) %
      static_cast<std::uint64_t>(kVocab));
}

/// The model, its engine and the per-lane recurrent state, under one
/// lifetime (the engine borrows the model's cells and pruners).
struct Stack {
  std::unique_ptr<StackModel> owned;  // null when sharing another's model
  const StackModel* model = nullptr;
  std::optional<zc::StackedEngine> engine;
  std::vector<zn::Matrix> h, c;
  zn::Matrix x, top;
  std::vector<zn::Index> tokens;
  zn::Index t = 0;  // next timestep of the streams

  void init(const zc::QuantConfig& quant, zn::Index batch) {
    engine.emplace(model->cells, model->pruner_ptrs, zss::sparse::EncoderConfig{}, quant);
    engine->reserve(batch);
    h.assign(static_cast<std::size_t>(model->layers()), zn::Matrix(batch, model->hidden()));
    c = h;
    tokens.assign(static_cast<std::size_t>(batch), 0);
  }

  /// Builds the next step's inputs (the embedding gather is part of the
  /// stack a token passes through).
  void next_input(std::uint64_t seed, zn::Index lane0 = 0) {
    for (std::size_t b = 0; b < tokens.size(); ++b) {
      tokens[b] = token_of(seed, lane0 + static_cast<zn::Index>(b), t);
    }
    ++t;
    model->input_rows(tokens, x);
  }

  void step(std::uint64_t seed, zn::Index lane0 = 0) {
    next_input(seed, lane0);
    engine->step(x, h, c, &top);
  }
};

bool same_bits(const zn::Matrix& a, const zn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.flat().begin(), a.flat().end(), b.flat().begin(),
                    [](float u, float v) {
                      return std::bit_cast<std::uint32_t>(u) ==
                             std::bit_cast<std::uint32_t>(v);
                    });
}

bool same_bits(const std::vector<zn::Matrix>& a, const std::vector<zn::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

struct Snapshot {
  std::vector<zn::Matrix> h, c;
  zn::Matrix x;  // the next step's input
};

Snapshot snapshot(Stack& s, std::uint64_t seed, zn::Index lane0) {
  Snapshot snap{s.h, s.c, {}};
  const zn::Index t = s.t;
  s.next_input(seed, lane0);
  s.t = t;  // peek only: the stream does not advance
  snap.x = s.x;
  return snap;
}

/// Oracles on one snapshot: step() == step_dense() bit for bit; the
/// layer-by-layer step_layer chain == step(); int8 layers == the
/// QuantizedLstmReference twin.
void check_snapshot(Report& rep, Stack& s, const Snapshot& snap, bool quant,
                    const char* where) {
  zc::StackedEngine& eng = *s.engine;
  auto h1 = snap.h, c1 = snap.c;
  auto h2 = snap.h, c2 = snap.c;
  zn::Matrix top1, top2;
  eng.step(snap.x, h1, c1, &top1);
  eng.step_dense(snap.x, h2, c2, &top2);
  rep.check(same_bits(h1, h2) && same_bits(c1, c2) && same_bits(top1, top2),
            std::string("step == step_dense bitwise (") + where + ")");

  auto h3 = snap.h, c3 = snap.c;
  std::vector<zn::Matrix> dense(snap.h.size());
  std::vector<zn::Matrix> in_of(snap.h.size());
  for (zn::Index l = 0; l < eng.layers(); ++l) {
    const auto li = static_cast<std::size_t>(l);
    in_of[li] = l == 0 ? snap.x : dense[li - 1];
    eng.step_layer(l, in_of[li], h3[li], c3[li], &dense[li]);
  }
  rep.check(same_bits(h1, h3) && same_bits(c1, c3),
            std::string("step_layer chain == step bitwise (") + where + ")");
  if (!quant) return;
  bool twin_ok = true;
  for (zn::Index l = 0; l < eng.layers(); ++l) {
    const auto li = static_cast<std::size_t>(l);
    zc::QuantizedLstmReference ref(*s.model->cells[li], *s.model->pruner_ptrs[li],
                                   eng.layer_engine(l).quant_config());
    zn::Matrix hr = snap.h[li], cr = snap.c[li];
    ref.step(in_of[li], hr, cr);
    twin_ok = twin_ok && same_bits(hr, h3[li]) && same_bits(cr, c3[li]);
  }
  rep.check(twin_ok, std::string("int8 layers == QuantizedLstmReference (") + where + ")");
}

/// Builds the random model, the engine and runs one step: what a user
/// pays before the first token comes out.
std::unique_ptr<Stack> setup_stack(std::uint64_t seed, const zc::QuantConfig& quant) {
  auto s = std::make_unique<Stack>();
  s->owned = std::make_unique<StackModel>();
  s->model = s->owned.get();
  build_random_model(*s->owned, kModelSeed, kVocab, kEmbed, kHidden, kLayers, kSparsity,
                     kCalibSteps);
  s->init(quant, kBatch);
  s->step(seed);
  return s;
}

/// Closed-loop batch-B stepping for `ns`; returns lane-steps/s and
/// appends each step's latency (µs) to `lat` when non-null.
double run_rep(Stack& s, std::uint64_t seed, zn::Index lane0, std::int64_t ns,
               std::vector<double>* lat) {
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  zn::Index steps = 0;
  while (t - t0 < ns) {
    s.step(seed, lane0);
    const std::int64_t t1 = now_ns();
    if (lat != nullptr) lat->push_back(ns_to_us(t1 - t));
    t = t1;
    ++steps;
  }
  return static_cast<double>(steps * static_cast<zn::Index>(s.tokens.size())) /
         (static_cast<double>(t - t0) / 1e9);
}

void untraced(const Options& opt, bool quant_on, Report& rep) {
  const zc::QuantConfig quant = quant_on ? zc::QuantConfig::int8() : zc::QuantConfig{};
  const std::uint64_t seed = opt.seed;
  const auto seconds_since = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e9;
  };

  std::vector<double> setup, recovery;
  std::int64_t t0 = now_ns();
  const std::unique_ptr<Stack> s = setup_stack(seed, quant);
  setup.push_back(seconds_since(t0));
  const std::string ckpt = opt.work_dir + "/offline.zssm";
  std::string error;
  rep.check(save_model_file(ckpt, *s->owned, &error), "checkpoint saved " + error);

  // Batch-1: one more stream served alone, closed loop — the request
  // rate one engine sustains unbatched (the paper's regime).
  Stack one;
  one.model = s->model;
  one.init(quant, 1);

  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  run_rep(*s, seed, 0, budget / 50, nullptr);  // warm-up
  run_rep(one, seed, kBatch, budget / 100, nullptr);
  s->engine->reset_stats();
  // kReps rounds, so that every figure is sampled across the run: a
  // batch-8 repetition (the workload, 80% of the budget in all), a
  // batch-1 repetition (15%), one timed set-up of a fresh stack, and
  // kReloads timed reloads of the checkpoint (recovery). Each reload is
  // checked by one step from the round's snapshot, bit-identical to the
  // live engine's.
  std::vector<double> rates, rates1;
  std::vector<std::vector<double>> lat(kReps);
  std::vector<Snapshot> snaps, snaps1;
  for (int r = 0; r < kReps; ++r) {
    snaps.push_back(snapshot(*s, seed, 0));
    rates.push_back(run_rep(*s, seed, 0, budget * 8 / 10 / kReps, &lat[static_cast<std::size_t>(r)]));
    snaps1.push_back(snapshot(one, seed, kBatch));
    rates1.push_back(run_rep(one, seed, kBatch, budget * 15 / 100 / kReps, nullptr));
    {
      t0 = now_ns();
      const std::unique_ptr<Stack> fresh = setup_stack(seed, quant);
      setup.push_back(seconds_since(t0));
    }
    for (int i = 0; i < kReloads; ++i) {
      t0 = now_ns();
      Stack back;
      back.owned = std::make_unique<StackModel>();
      back.model = back.owned.get();
      if (!load_model_file(ckpt, *back.owned, &error)) {
        rep.check(false, "checkpoint reload: " + error);
        return;
      }
      back.init(quant, kBatch);
      const Snapshot& snap = snaps.back();
      back.h = snap.h;
      back.c = snap.c;
      back.engine->step(snap.x, back.h, back.c, &back.top);
      recovery.push_back(seconds_since(t0));
      auto h = snap.h, c = snap.c;
      zn::Matrix top;
      s->engine->step(snap.x, h, c, &top);
      rep.check(same_bits(h, back.h) && same_bits(c, back.c) && same_bits(top, back.top),
                "reloaded engine == live engine bitwise");
    }
  }
  const zc::InferenceStats st = s->engine->stats();
  rep.attempted += static_cast<std::uint64_t>(st.steps / kLayers) *
                       static_cast<std::uint64_t>(kBatch) +
                   static_cast<std::uint64_t>(one.t);
  // Host noise comes in episodes of 10-20 s, so each timing is that of
  // the quietest repetition, the one that repeats from run to run: the
  // fastest for throughput, the one with the lowest p99 for step time.
  // Set-up is the median; recovery the fast tenth of the reloads, those
  // of a quiet host.
  rep.set("tokens_per_s", *std::max_element(rates.begin(), rates.end()));
  const auto best = std::min_element(lat.begin(), lat.end(), [](const auto& x, const auto& y) {
    return quantile(x, 0.99) < quantile(y, 0.99);
  });
  rep.set("latency_p50_us", quantile(*best, 0.5));
  rep.set("latency_p99_us", quantile(*best, 0.99));
  rep.set("max_rate_rps", *std::max_element(rates1.begin(), rates1.end()));
  rep.set("setup_s", median(setup));
  rep.set("recovery_s", quantile(recovery, 0.1));

  std::string per_rep;
  char buf[96];
  for (int r = 0; r < kReps; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    std::snprintf(buf, sizeof buf, " %.1f/%.1f/%.1f/%.1f", rates[ri], quantile(lat[ri], 0.5),
                  quantile(lat[ri], 0.99), rates1[ri]);
    per_rep += buf;
  }
  rep.note("repetitions (batch-8 lane-steps/s / p50 us / p99 us / batch-1 steps/s):" + per_rep +
           "; " + std::to_string(best->size()) + " steps in the reported one");
  rep.note("skip: effectual_state_mac_frac=" +
           std::to_string(static_cast<double>(st.state_macs_effectual) /
                          static_cast<double>(st.state_macs_total)) +
           " lane_sparsity=" + std::to_string(st.observed_lane_sparsity()));

  for (const Snapshot& snap : snaps) check_snapshot(rep, *s, snap, quant_on, "batch 8");
  check_snapshot(rep, one, snaps1.back(), quant_on, "batch 1");
}

void traced(const Options& opt, bool quant_on, Report& rep) {
  const zc::QuantConfig quant = quant_on ? zc::QuantConfig::int8() : zc::QuantConfig{};
  const std::uint64_t seed = opt.seed;
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  auto s = setup_stack(seed, quant);
  run_rep(*s, seed, 0, budget / 50, nullptr);

  Tracer run(1 << 16);
  Tracer probes(1 << 18);

  // A/B: the step loop untraced (A) and with one span per step (B), in
  // alternating chunks so drift in the evolving state cancels out of
  // their ratio, the tracing overhead.
  s->engine->reset_stats();
  std::int64_t a_ns = 0, b_ns = 0;
  zn::Index a_steps = 0, b_steps = 0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    const std::int64_t chunk_ns = budget * 2 / 100;
    std::int64_t t0 = now_ns();
    while (now_ns() - t0 < chunk_ns) {
      s->step(seed);
      ++a_steps;
    }
    a_ns += now_ns() - t0;
    t0 = now_ns();
    while (now_ns() - t0 < chunk_ns) {
      const std::int32_t id = run.begin("core.step", "core");
      s->step(seed);
      run.end(id);
      ++b_steps;
    }
    b_ns += now_ns() - t0;
  }
  const double rate_a = static_cast<double>(a_steps) / static_cast<double>(a_ns);
  const double rate_b = static_cast<double>(b_steps) / static_cast<double>(b_ns);
  const zc::InferenceStats st = s->engine->stats();
  std::vector<double> lane_sparsity;
  for (zn::Index l = 0; l < kLayers; ++l) {
    lane_sparsity.push_back(s->engine->layer_engine(l).stats().observed_lane_sparsity());
  }
  rep.set("trace.overhead_frac", rate_a / rate_b - 1.0);
  const double step_us = run.median_us("core.step");
  rep.set("core.step_us", step_us);

  // C: the same stream layer by layer (step_layer), one span per layer;
  // every 8th step also captures each layer's starting state for the
  // kernel probes (captured steps carry no spans).
  static const char* const kLayerSpan[] = {"core.layer0.step", "core.layer1.step",
                                           "core.layer2.step"};
  std::vector<std::vector<LayerSample>> samples(static_cast<std::size_t>(kLayers));
  std::vector<zn::Matrix> dense(static_cast<std::size_t>(kLayers));
  const std::int64_t c0 = now_ns();
  for (zn::Index n = 0; now_ns() - c0 < budget * 15 / 100; ++n) {
    const bool capture = n % 8 == 0 && samples[0].size() < 24;
    s->next_input(seed);
    const std::int32_t parent = capture ? -1 : run.begin("core.stacked", "bench");
    for (zn::Index l = 0; l < kLayers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const zn::Matrix& in = l == 0 ? s->x : dense[li - 1];
      if (capture) samples[li].push_back({in, s->h[li], s->c[li]});
      const std::int32_t id = capture ? -1 : run.begin(kLayerSpan[li], "core", parent);
      s->engine->step_layer(l, in, s->h[li], s->c[li], &dense[li]);
      run.end(id);
    }
    run.end(parent);
  }

  // D: the dense reference on a copy of the state.
  {
    auto h = s->h, c = s->c;
    zn::Matrix top;
    const std::int64_t d0 = now_ns();
    zn::Index t = s->t;
    while (now_ns() - d0 < budget * 10 / 100) {
      for (zn::Index b = 0; b < kBatch; ++b) {
        s->tokens[static_cast<std::size_t>(b)] = token_of(seed, b, t);
      }
      ++t;
      s->model->input_rows(s->tokens, s->x);
      const std::int32_t id = run.begin("core.dense_step", "core");
      s->engine->step_dense(s->x, h, c, &top);
      run.end(id);
    }
  }

  // E: kernel probes per layer on the captured states, then the triad.
  const std::vector<LayerProbe> p =
      report_probes(*s->engine, samples, budget * 27 / 100, &probes, rep);
  double layer_sum = 0.0;
  for (zn::Index l = 0; l < kLayers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::string k = "core.layer" + std::to_string(l) + ".";
    const double layer_us = run.median_us(kLayerSpan[li]);
    layer_sum += layer_us;
    rep.set(k + "step_us", layer_us);
    rep.set(k + "lane_sparsity", lane_sparsity[li]);
    // What the kernel stages leave of the layer step: the nonlinearity,
    // the prune and copies, and any gap between probe and step.
    rep.set(k + "other_us", layer_us - (p[li].wx_us + p[li].wh_us + p[li].encode_us));
  }
  rep.set("core.layers_residual_frac", (layer_sum - step_us) / step_us);

  const double lane_steps = static_cast<double>(st.steps / kLayers * kBatch);
  const double input = static_cast<double>(st.input_macs);
  const double state_total = static_cast<double>(st.state_macs_total);
  const double state_eff = static_cast<double>(st.state_macs_effectual);
  const double dense_us = run.median_us("core.dense_step");
  rep.set("core.effectual_macs_per_token", (input + state_eff) / lane_steps);
  rep.set("core.dense_step_us", dense_us);
  rep.set("core.wall_speedup", dense_us / step_us);
  rep.set("core.state_mac_speedup", state_total / state_eff);
  rep.set("core.total_mac_speedup", (input + state_total) / (input + state_eff));
  rep.note("reconcile: layers vs step (core.layers_residual_frac); wall " + std::to_string(dense_us / step_us) +
           "x vs state-MAC " + std::to_string(state_total / state_eff) + "x vs total-MAC " +
           std::to_string((input + state_total) / (input + state_eff)) + "x");

  set_self_fractions(run, rep);
  rep.attempted += static_cast<std::uint64_t>(s->t * kBatch);
  write_traces(opt, {&run, &probes}, rep);
}

}  // namespace

void run_offline(const Options& opt, bool quant, Report& rep) {
  if (opt.trace) {
    traced(opt, quant, rep);
  } else {
    untraced(opt, quant, rep);
  }
}

}  // namespace perfbench
