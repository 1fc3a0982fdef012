// The engine-side half of the benchmark: building or loading a stacked
// model, and the kernel probes that time each stage of one engine layer
// step on inputs captured from a run.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/model_io.h"
#include "core/sparse_inference.h"
#include "core/stacked_engine.h"
#include "core/state_pruner.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"
#include "num/matrix.h"
#include "serve/model.h"

namespace perfbench {

namespace zn = zss::num;

/// A stacked model and its fixed per-layer pruners: either seeded
/// random modules or a loaded checkpoint. Pointer lists view the owned
/// modules, so a StackModel is built in place and never moved.
struct StackModel {
  StackModel() = default;
  StackModel(const StackModel&) = delete;
  StackModel& operator=(const StackModel&) = delete;

  zss::core::LoadedModel loaded;  // embedding/cells/classifier live here
  std::deque<zss::core::StatePruner> pruners;
  std::vector<const zss::nn::LstmCell*> cells;
  std::vector<const zss::core::StatePruner*> pruner_ptrs;
  std::vector<float> thresholds;
  zn::Index vocab = 0;
  std::string name = "random";

  zn::Index layers() const { return static_cast<zn::Index>(cells.size()); }
  zn::Index hidden() const { return cells.front()->hidden_dim(); }
  zn::Index input_dim() const { return cells.front()->input_dim(); }
  const zss::nn::Embedding* embedding() const { return loaded.embedding.get(); }
  zss::serve::ServeModel serve_model() const;

  /// Model inputs for one step: embedding rows, or one-hot rows of
  /// width input_dim() (token mod input_dim, as the serving shard does).
  void input_rows(std::span<const zn::Index> tokens, zn::Matrix& x) const;
};

/// Seed of every random model the benchmark builds. Models are fixed, as
/// a trained checkpoint would be; a run's --seed picks only its inputs.
inline constexpr std::uint64_t kModelSeed = 0x2019'0521;

/// Seeded random stack: `layers` cells of width `hidden` over a
/// `vocab` x `embed_dim` embedding (embed_dim 0 = one-hot inputs of
/// width vocab). Each layer's fixed threshold is calibrated so that its
/// stored state is `sparsity` zeros: a target-sparsity pruner runs
/// `calib_steps` batch-8 steps on seeded tokens and the mean of its
/// per-step thresholds becomes the layer's fixed threshold.
void build_random_model(StackModel& m, std::uint64_t seed, zn::Index vocab,
                        zn::Index embed_dim, zn::Index hidden,
                        zn::Index layers, double sparsity,
                        zn::Index calib_steps);

/// Loads a ZSSM v2 checkpoint with its recorded per-layer thresholds.
bool load_model_file(const std::string& path, StackModel& m,
                     std::string* error);

/// Saves a random model built above as a ZSSM v2 checkpoint (a seeded
/// random classifier fills the format's required head).
bool save_model_file(const std::string& path, StackModel& m, std::string* error);

/// The state one layer step started from, captured during a run.
struct LayerSample {
  zn::Matrix in;  // model input (layer 0) or the lower layer's dense h
  zn::Matrix h;   // stored (pruned) state before the step
  zn::Matrix c;
};

/// Per-call medians of one layer's kernel stages, replayed on captured
/// samples in the step's own order (wx, encode, wh) so each kernel meets
/// the cache state it meets in a real step. The rest of the step (bias,
/// gates, cell update, prune, copies) is not replayed: the offline
/// workloads take it as step_layer minus these stages.
struct LayerProbe {
  double wx_us = 0, wh_us = 0, encode_us = 0;
  double wx_macs = 0, wh_macs = 0;    // per call, effectual
  double wx_bytes = 0, wh_bytes = 0;  // per call, from tensor sizes
  double kept_lanes_positions = 0;    // per call, summed over lanes
};

LayerProbe probe_layer(const zss::core::SparseLstmEngine& engine,
                       const std::vector<LayerSample>& samples,
                       std::int64_t budget_ns, Tracer* tracer,
                       std::int32_t parent);

/// Steps a fresh `batch`-lane state through `engine` on seeded tokens:
/// `warm` steps, then `count` steps whose per-layer starting states are
/// captured.
std::vector<std::vector<LayerSample>> capture_samples(zss::core::StackedEngine& engine,
                                                      const StackModel& m,
                                                      std::uint64_t seed, zn::Index batch,
                                                      zn::Index warm, zn::Index count);

/// Probes every layer (budget split evenly), runs the triad, and sets
/// the num.*, sparse.encode_us and core.layer<l>.{wx,wh,encode}_us
/// metrics (num.i8.* for a quantized engine). Returns the per-layer
/// probes.
std::vector<LayerProbe> report_probes(const zss::core::StackedEngine& engine,
                                      const std::vector<std::vector<LayerSample>>& samples,
                                      std::int64_t budget_ns, Tracer* tracer, Report& rep);

/// STREAM triad a[i] = b[i] + s * c[i] over three 16 MB arrays (past
/// the private L2, where the packed weights of a 512-wide stack also
/// live); median GB/s over repetitions, 3 arrays counted.
double triad_gbs(std::int64_t budget_ns);

}  // namespace perfbench
