#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/quant/int8_backend.h"
#include "core/variability/lifetime.h"
#include "eval/experiment.h"
#include "eval/fleet.h"
#include "eval/runner.h"
#include "eval/store.h"
#include "pim/tiling.h"
#include "tensor/conv_ops.h"
#include "tensor/int_ops.h"
#include "tensor/parallel_for.h"
#include "workloads.h"

namespace perfbench {

using namespace qavat;

namespace {

// Per-kernel and per-layer timing budget (seconds of measured calls per
// thread count, after one warm-up call).
constexpr double kMinSeconds = 0.1;
constexpr int kMinReps = 5;

// Monte-Carlo chips per noise-batched forward (EvalConfig's default).
constexpr index_t kChipBatch = 8;

const VarianceModel kWp = VarianceModel::kWeightProportional;

struct TrainedKind {
  ModelKind kind;
  std::string name;
  std::unique_ptr<Module> model;  // trained, eval mode, never mutated
  SplitDataset data;
};

// Images at [0, n) of `d`, each repeated `copies` times chip-major (the
// evaluator's tiling of one test chunk across a chip group).
Tensor tiled_images(const Dataset& d, index_t n, index_t copies) {
  std::vector<index_t> idx;
  for (index_t c = 0; c < copies; ++c) {
    for (index_t i = 0; i < n; ++i) idx.push_back(i);
  }
  return d.gather_images(idx);
}

// Size every quant layer of `m` for a chip group and sample chip `slot`
// of the group from Rng(seed, slot) — the evaluator's per-chip draw.
void sample_group(Module& m, const VariabilityConfig& cfg, std::uint64_t seed) {
  auto qs = m.quant_layers();
  for (QuantLayerBase* q : qs) ensure_noise_batch(*q, kChipBatch);
  for (index_t slot = 0; slot < kChipBatch; ++slot) {
    Rng rng(seed, static_cast<std::uint64_t>(slot));
    for (QuantLayerBase* q : qs) sample_variability_slot(*q, cfg, rng, slot);
  }
}

const TrainedKind& find_kind(const std::vector<TrainedKind>& ks, ModelKind k) {
  for (const TrainedKind& t : ks) {
    if (t.kind == k) return t;
  }
  return ks.front();
}

// ------------------------------------------------------------- data/train

void replay_data(Report& report) {
  for (ModelKind kind :
       {ModelKind::kLeNet5s, ModelKind::kVGG11s, ModelKind::kResNet18s}) {
    const std::string name = to_string(kind);
    index_t sink = 0;
    const double s = time_median(
        [&] {
          Span span("data", "synth." + name);
          sink += make_dataset_for(kind).train.size();
        },
        3, 0.0);
    report.set("data.synth_s." + name, s, "s");
  }
}

// One clean QAT training per model kind through Session::train_model,
// at the workloads' bit widths (LeNet-5s A4W2 as in fleet_mixed,
// VGG-11s / ResNet-18s A8W4 as in table2_deploy). The trained models
// feed every later replay.
std::vector<TrainedKind> replay_train(std::uint64_t seed, Report& report,
                                      Outcome& outcome) {
  disable_store();
  clear_experiment_caches(false);
  Session session;
  std::vector<TrainedKind> out;
  const struct {
    ModelKind kind;
    index_t a, w;
  } rows[] = {{ModelKind::kLeNet5s, 4, 2},
              {ModelKind::kVGG11s, 8, 4},
              {ModelKind::kResNet18s, 8, 4}};
  for (const auto& row : rows) {
    ScenarioSpec spec =
        ScenarioSpec::base(row.kind, row.a, row.w, ScenarioAlgo::kQAT);
    spec.model_cfg.init_seed = derive_seed(seed, 11, static_cast<int>(row.kind));
    spec.train.seed = derive_seed(seed, 12, static_cast<int>(row.kind));
    const std::string name = to_string(row.kind);
    const SplitDataset& data = session.dataset(row.kind);
    const auto t0 = Clock::now();
    TrainedModel tm;
    {
      Span span("train", "train_model." + name);
      tm = session.train_model(spec);
    }
    const double s = seconds_since(t0);
    report.set("train.s." + name, s, "s");
    report.set("train.images_per_s." + name,
               static_cast<double>(spec.train.epochs * data.train.size()) / s,
               "1/s");
    outcome.check(tm.trained && tm.clean_test_acc >= 0.0 &&
                      tm.clean_test_acc <= 1.0,
                  1,
                  "replay train " + name);
    out.push_back({row.kind, name, std::move(tm.model), data});
  }
  return out;
}

// ------------------------------------------------------------ runner/store

// The LeNet-5s rows of the table1 grid (6 specs, 7 train phases) through
// Session::run_all cold then warm in a private store, then every
// artifact they produced re-loaded and re-saved through the store_*
// functions.
void replay_runner_store(std::uint64_t seed, const std::string& scratch,
                         Report& report, Outcome& outcome) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& s : table1_specs(seed)) {
    if (s.model == ModelKind::kLeNet5s) specs.push_back(s);
  }
  use_fresh_store(scratch, "replay-runner");
  clear_experiment_caches(false);
  Session cold;
  cold.dataset(ModelKind::kLeNet5s);
  const index_t runs0 = training_runs();
  const auto t0 = Clock::now();
  std::vector<ScenarioResult> rc;
  {
    Span span("runner", "run_all.cold");
    rc = cold.run_all(specs);
  }
  const double wall = seconds_since(t0);
  const SessionCounters c = cold.counters();
  report.set("runner.train_s", c.train_seconds, "s");
  report.set("runner.eval_s", c.eval_seconds, "s");
  const double hidden = c.train_seconds + c.eval_seconds - wall;
  report.set("runner.overlap_frac",
             c.eval_seconds > 0.0
                 ? std::clamp(hidden / c.eval_seconds, 0.0, 1.0)
                 : 0.0,
             "frac");
  report.set("runner.train_runs", static_cast<double>(training_runs() - runs0),
             "count");
  report.set("runner.evals_computed", static_cast<double>(c.evals_computed),
             "count");

  clear_experiment_caches(false);
  Session warm;
  const index_t runs1 = training_runs();
  std::vector<ScenarioResult> rw;
  {
    Span span("runner", "run_all.warm");
    rw = warm.run_all(specs);
  }
  const SessionCounters cw = warm.counters();
  report.set("runner.warm_train_runs",
             static_cast<double>(training_runs() - runs1), "count");
  report.set("runner.model_store_hits",
             static_cast<double>(cw.model_store_hits), "count");
  bool same = rw.size() == rc.size() && cw.evals_computed == 0;
  for (std::size_t i = 0; same && i < rw.size(); ++i) {
    same = rw[i].mean_acc == rc[i].mean_acc &&
           rw[i].mc.per_chip_acc == rc[i].mc.per_chip_acc;
  }
  outcome.check(same, static_cast<long long>(specs.size()),
                "replay runner warm differs from cold");

  // Every (bucket, key) unit the specs produced, loaded back...
  std::set<std::pair<std::string, std::string>> units;
  for (const ScenarioSpec& s : specs) {
    for (const ClaimUnitRef& u : cold.claim_units(s)) {
      units.emplace(u.bucket, u.key);
    }
  }
  struct Artifact {
    std::string bucket, key;
    StateDict sd;
    std::vector<double> values;
  };
  std::vector<Artifact> arts;
  std::vector<double> load_s;
  long long bytes_read = 0;
  bool loads_ok = true;
  for (const auto& u : units) {
    Artifact a{u.first, u.second, {}, {}};
    bytes_read += file_bytes(store_artifact_path(a.bucket.c_str(), a.key));
    const auto tl = Clock::now();
    {
      Span span("store", "load." + a.bucket);
      loads_ok &= a.bucket == "evals"
                      ? store_load_doubles("evals", a.key, &a.values)
                      : store_load_state(a.bucket.c_str(), a.key, &a.sd);
    }
    load_s.push_back(seconds_since(tl));
    arts.push_back(std::move(a));
  }
  // ...and saved into a second private store.
  use_fresh_store(scratch, "replay-save");
  std::vector<double> save_s;
  long long bytes_written = 0;
  bool saves_ok = true;
  for (const Artifact& a : arts) {
    const auto ts = Clock::now();
    {
      Span span("store", "save." + a.bucket);
      saves_ok &= a.bucket == "evals"
                      ? store_save_doubles("evals", a.key, a.values)
                      : store_save_state(a.bucket.c_str(), a.key, a.sd);
    }
    save_s.push_back(seconds_since(ts));
    bytes_written += file_bytes(store_artifact_path(a.bucket.c_str(), a.key));
  }
  outcome.check(loads_ok && saves_ok && !arts.empty(),
                static_cast<long long>(arts.size()), "replay store load/save");
  report.set("store.loads", static_cast<double>(arts.size()), "count");
  report.set("store.load_ms", median(load_s) * 1e3, "ms");
  report.set("store.bytes_read", static_cast<double>(bytes_read), "bytes");
  report.set("store.saves", static_cast<double>(arts.size()), "count");
  report.set("store.save_ms", median(save_s) * 1e3, "ms");
  report.set("store.bytes_written", static_cast<double>(bytes_written),
             "bytes");
  const StoreStats st = store_stats();
  report.set("store.writes_failed", static_cast<double>(st.writes_failed),
             "count");
  report.set("store.loads_corrupt", static_cast<double>(st.loads_corrupt),
             "count");
  report.set("store.claims_reclaimed",
             static_cast<double>(st.claims_reclaimed), "count");
  disable_store();
}

// ------------------------------------------------------------------ models

// Model forward/backward at the workloads' shapes; returns name -> ms.
std::vector<std::pair<std::string, double>> replay_models(
    const std::vector<TrainedKind>& ks, std::uint64_t seed) {
  std::vector<std::pair<std::string, double>> out;
  for (const TrainedKind& t : ks) {
    // Training step shape: batch 32, forward then backward.
    auto m = clone_model(*t.model);
    m->set_training(true);
    std::vector<index_t> idx(32);
    for (index_t i = 0; i < 32; ++i) idx[static_cast<std::size_t>(i)] = i;
    const Tensor x = t.data.train.gather_images(idx);
    const std::vector<index_t> y = t.data.train.gather_labels(idx);
    std::vector<double> fwd, bwd;
    double total = 0.0;
    for (int rep = 0; rep <= kMinReps || total < kMinSeconds; ++rep) {
      m->zero_grad();
      const auto t0 = Clock::now();
      Tensor logits;
      {
        Span span("models", "forward." + t.name);
        logits = m->forward(x);
      }
      const double f = seconds_since(t0);
      Tensor grad;
      softmax_xent(logits, y, &grad);
      const auto t1 = Clock::now();
      {
        Span span("models", "backward." + t.name);
        m->backward(grad);
      }
      const double b = seconds_since(t1);
      if (rep == 0) continue;  // warm-up
      fwd.push_back(f);
      bwd.push_back(b);
      total += f + b;
    }
    out.emplace_back("models.fwd_ms." + t.name, median(fwd) * 1e3);
    out.emplace_back("models.bwd_ms." + t.name, median(bwd) * 1e3);

    // Monte-Carlo shape: one chip group of 8, batch_size 64 / 8 = 8 test
    // rows per chip, effective weights cached across chunks.
    auto e = clone_model(*t.model);
    sample_group(*e, VariabilityConfig::mixed(kWp, 0.3), seed);
    const Tensor xb = tiled_images(t.data.test, 8, kChipBatch);
    out.emplace_back("models.fwd_batched_ms." + t.name,
                     time_median(
                         [&] {
                           Span span("models", "forward_batched." + t.name);
                           e->forward(xb);
                         },
                         kMinReps, kMinSeconds) *
                         1e3);
  }

  // Fleet step shape (fleet_mixed): a NoiseState revision per step, then
  // 50 rows per chip in chunks of 50 / 8 = 6 rows across the chip group.
  const TrainedKind& lenet = find_kind(ks, ModelKind::kLeNet5s);
  auto f = clone_model(*lenet.model);
  sample_group(*f, VariabilityConfig::within_only(kWp, 0.25), seed);
  const Tensor x6 = tiled_images(lenet.data.test, 6, kChipBatch);
  const Tensor x2 = tiled_images(lenet.data.test, 2, kChipBatch);
  auto fq = f->quant_layers();
  out.emplace_back(
      "models.fwd_ms.lenet5s_fleet",
      time_median(
          [&] {
            Span span("models", "forward_fleet_step.lenet5s");
            for (QuantLayerBase* q : fq) ++q->noise_state().revision;
            for (int c = 0; c < 8; ++c) f->forward(x6);
            f->forward(x2);
          },
          kMinReps, kMinSeconds) *
          1e3);
  return out;
}

// ------------------------------------------------------------------ tensor

struct KernelRow {
  std::string name;
  double ms = 0.0;
  double rate = 0.0;          // GMAC/s or GB/s
  const char* rate_unit = "";
  double ops_per_byte = -1;   // computed from shapes; < 0 = not reported
};

double bytes_f32(index_t elems) { return 4.0 * static_cast<double>(elems); }

// Kernels at the shapes of the ResNet-18s block-1 conv (16 -> 16 channels,
// 3x3, pad 1, 16x16 images): train batch 32 for the training kernels,
// one chip group of 8 x 8 images for the Monte-Carlo kernels. MACs and
// bytes are computed from the shapes, not measured.
std::vector<KernelRow> replay_kernels(std::uint64_t seed) {
  Rng rng(seed, 31);
  const ConvGeom g{32, 16, 16, 16, 3, 1, 1, 16, 16};
  const index_t M = g.rows(), K = g.ckk(), N = 16;
  Tensor x({g.n, g.c, g.h, g.w});
  fill_uniform(x, rng, 0.0, 1.0);
  Tensor cols, gx, w({N, K}), gy({M, N}), y, dcols, dw;
  fill_uniform(w, rng, -1.0, 1.0);
  fill_uniform(gy, rng, -1.0, 1.0);
  im2col(x, g, cols);

  std::vector<KernelRow> rows;
  auto time_kernel = [&](const std::string& name, const std::function<void()>& fn) {
    return time_median(
               [&] {
                 Span span("tensor", name);
                 fn();
               },
               kMinReps, kMinSeconds) *
           1e3;
  };
  auto gemm_row = [&](const std::string& name, double ms, double macs,
                      double bytes) {
    rows.push_back({name, ms, macs / (ms * 1e-3) / 1e9, "GMAC/s",
                    2.0 * macs / bytes});
  };
  auto move_row = [&](const std::string& name, double ms, double bytes) {
    rows.push_back({name, ms, bytes / (ms * 1e-3) / 1e9, "GB/s", -1});
  };

  const double macs = static_cast<double>(M * N * K);
  gemm_row("gemm_nt", time_kernel("gemm_nt", [&] { matmul_nt_into(cols, w, y); }),
           macs, bytes_f32(M * K + N * K + M * N));
  gemm_row("gemm_nn", time_kernel("gemm_nn", [&] { matmul_into(gy, w, dcols); }),
           macs, bytes_f32(M * N + N * K + M * K));
  gemm_row("gemm_tn", time_kernel("gemm_tn", [&] { matmul_tn_into(gy, cols, dw); }),
           macs, bytes_f32(M * N + M * K + N * K));
  move_row("im2col", time_kernel("im2col", [&] { im2col(x, g, cols); }),
           bytes_f32(x.size() + M * K));
  move_row("col2im", time_kernel("col2im", [&] { col2im(cols, g, gx); }),
           bytes_f32(M * K + x.size()));
  std::vector<index_t> argmax;
  Tensor pooled;
  move_row("maxpool",
           time_kernel("maxpool", [&] { maxpool2d(x, 2, pooled, argmax); }),
           bytes_f32(x.size() + x.size() / 4) + 8.0 * (x.size() / 4));

  // Monte-Carlo shapes: 8 chips x (8 images x 256 positions) rows.
  const index_t rows_per_chip = 8 * 256;
  Tensor a({kChipBatch * rows_per_chip, K}), b({kChipBatch * N, K}), c;
  fill_uniform(a, rng, 0.0, 1.0);
  fill_uniform(b, rng, -1.0, 1.0);
  const double bmacs = static_cast<double>(kChipBatch * rows_per_chip * N * K);
  gemm_row("gemm_nt_batched",
           time_kernel("gemm_nt_batched",
                       [&] { matmul_nt_batched_into(a, b, kChipBatch, c); }),
           bmacs, bytes_f32(a.size() + b.size() + kChipBatch * rows_per_chip * N));

  // The int8 backend's per-chip prepacked s8 x s8 -> s32 GEMM.
  std::vector<std::int8_t> a8(static_cast<std::size_t>(a.size()));
  std::vector<std::int8_t> b8(static_cast<std::size_t>(b.size()));
  for (auto& v : a8) v = static_cast<std::int8_t>(rng.below(16));
  for (auto& v : b8) v = static_cast<std::int8_t>(rng.below(15) - 7);
  const index_t pbytes = packed_b_s8_bytes(N, K);
  std::vector<std::uint32_t> packed(
      static_cast<std::size_t>(kChipBatch * ((pbytes + 3) / 4)));
  std::vector<std::int32_t> sums(static_cast<std::size_t>(kChipBatch * N));
  std::vector<std::int32_t> c32(static_cast<std::size_t>(rows_per_chip * N));
  auto plane = [&](index_t chip) {
    return packed.data() + chip * ((pbytes + 3) / 4);
  };
  for (index_t chip = 0; chip < kChipBatch; ++chip) {
    pack_b_s8(b8.data() + chip * N * K, N, K, plane(chip),
              sums.data() + chip * N);
  }
  gemm_row("gemm_s8",
           time_kernel("gemm_s8",
                       [&] {
                         for (index_t chip = 0; chip < kChipBatch; ++chip) {
                           gemm_s8s8_s32_prepacked(
                               a8.data() + chip * rows_per_chip * K, plane(chip),
                               sums.data() + chip * N, c32.data(),
                               rows_per_chip, K, N);
                         }
                       }),
           bmacs,
           static_cast<double>(a8.size() + b8.size()) +
               4.0 * static_cast<double>(kChipBatch * rows_per_chip * N));
  return rows;
}

// ------------------------------------------------------- quant .. lifetime

void replay_small_layers(const std::vector<TrainedKind>& ks, std::uint64_t seed,
                         Report& report, Outcome& outcome) {
  const TrainedKind& resnet = find_kind(ks, ModelKind::kResNet18s);
  const VariabilityConfig mixed = VariabilityConfig::mixed(kWp, 0.3);

  // core/quant: cost of one NoiseState revision on the int8 path — the
  // effective-weight rebuild plus Int8Backend's plane refresh — as the
  // forward time with a revision bump minus the steady forward time.
  {
    auto m = clone_model(*resnet.model);
    sample_group(*m, mixed, seed);
    auto qs = m->quant_layers();
    std::vector<std::unique_ptr<Int8Backend>> backends;
    for (QuantLayerBase* q : qs) {
      backends.push_back(std::make_unique<Int8Backend>(*q, m->workspace()));
      q->set_analog_backend(backends.back().get());
    }
    const Tensor x = tiled_images(resnet.data.test, 1, kChipBatch);
    const double steady = time_median(
        [&] {
          Span span("quant", "int8_forward.steady");
          m->forward(x);
        },
        kMinReps, kMinSeconds);
    const double bumped = time_median(
        [&] {
          Span span("quant", "int8_forward.refresh");
          for (QuantLayerBase* q : qs) ++q->noise_state().revision;
          m->forward(x);
        },
        kMinReps, kMinSeconds);
    for (QuantLayerBase* q : qs) q->set_analog_backend(nullptr);
    report.set("quant.int8_refresh_planes_ms", (bumped - steady) * 1e3, "ms");
  }

  // core/variability: one chip's within-chip draws across every layer.
  {
    auto m = clone_model(*resnet.model);
    auto qs = m->quant_layers();
    for (QuantLayerBase* q : qs) ensure_noise_batch(*q, kChipBatch);
    const double s = time_median(
        [&] {
          Span span("variability", "sample_chips");
          for (index_t chip = 0; chip < kChipBatch; ++chip) {
            Rng rng(seed, static_cast<std::uint64_t>(chip));
            for (QuantLayerBase* q : qs) {
              sample_variability_slot_draws(*q, mixed, rng, chip);
            }
          }
        },
        kMinReps, kMinSeconds);
    report.set("variability.sample_us_per_chip", s / kChipBatch * 1e6, "us");
  }

  // core/selftune: one GTM readout of 1000 cells.
  {
    Rng rng(seed, 41);
    double acc = 0.0;
    constexpr int kCalls = 100000;
    const double s = time_median(
        [&] {
          Span span("selftune", "gtm_measure");
          for (int i = 0; i < kCalls; ++i) {
            acc += measure_eps_b(0.01, 0.2, 1000, rng);
          }
        },
        3, 0.05);
    outcome.check(std::isfinite(acc), 1, "selftune replay");
    report.set("selftune.gtm_measure_us", s / kCalls * 1e6, "us");
  }

  // pim: program every ResNet-18s layer onto one chip (with GTM columns),
  // and the tiled analog MVM of the block-1 conv at the eval shape.
  {
    auto qs = resnet.model->quant_layers();
    std::vector<Tensor> wd;
    for (QuantLayerBase* q : qs) wd.push_back(q->programmed_weight());
    CrossbarConfig ccfg;
    ccfg.variability = mixed;
    index_t chip_idx = 0;
    const double program = time_median(
        [&] {
          Span span("pim", "program_chip");
          PimChip chip(ccfg, seed, chip_idx++);
          std::vector<std::unique_ptr<TiledCrossbarLayer>> layers;
          for (std::size_t i = 0; i < qs.size(); ++i) {
            layers.push_back(std::make_unique<TiledCrossbarLayer>(
                chip, wd[i], TilePlan::make(qs[i]->fan_out(), qs[i]->fan_in()),
                true));
          }
        },
        kMinReps, kMinSeconds);
    report.set("pim.program_ms_per_chip", program * 1e3, "ms");

    QuantLayerBase* q = qs[1];
    PimChip chip(ccfg, seed, 0);
    TiledCrossbarLayer layer(chip, wd[1],
                             TilePlan::make(q->fan_out(), q->fan_in()));
    Tensor x({8 * 256, q->fan_in()}), y;
    Rng rng(seed, 43);
    fill_uniform(x, rng, 0.0, 1.0);
    const double s = time_median(
        [&] {
          Span span("pim", "tiled_mvm");
          layer.mvm_into(x, y);
        },
        kMinReps, kMinSeconds);
    report.set("pim.mvm_gmacs",
               static_cast<double>(x.dim(0) * q->fan_out() * q->fan_in()) / s /
                   1e9,
               "GMAC/s");
  }

  // core/variability/lifetime: fleet_mixed's 64 chips x 64 steps of
  // advance + maybe_retune, serially.
  {
    const LifetimeSpec lt = fleet_mixed_spec(seed).lifetime;
    const LifetimeModel lm(lt);
    std::vector<ChipLifetimeState> chips(static_cast<std::size_t>(lt.n_chips));
    const double s = time_median(
        [&] {
          Span span("lifetime", "steps");
          for (index_t c = 0; c < lt.n_chips; ++c) {
            Rng rng = LifetimeModel::init_rng(lt, c);
            lm.init(&chips[static_cast<std::size_t>(c)], rng);
          }
          for (index_t t = 1; t <= lt.n_steps; ++t) {
            for (index_t c = 0; c < lt.n_chips; ++c) {
              ChipLifetimeState& st = chips[static_cast<std::size_t>(c)];
              Rng rng = LifetimeModel::step_rng(lt, c, t);
              lm.advance(&st, rng);
              lm.maybe_retune(&st, t, rng);
            }
          }
        },
        kMinReps, 0.05);
    index_t retunes = 0;
    for (const ChipLifetimeState& st : chips) retunes += st.retunes;
    report.set("lifetime.step_ns_per_chip",
               s / static_cast<double>(lt.n_chips * lt.n_steps) * 1e9, "ns");
    report.set("lifetime.retunes", static_cast<double>(retunes), "count");
  }
}

// ------------------------------------------------------- evaluator, fleet

void replay_evaluator(const std::vector<TrainedKind>& ks, std::uint64_t seed,
                      Report& report, Outcome& outcome) {
  const VariabilityConfig vcfg = VariabilityConfig::mixed(kWp, 0.3);
  const SelfTuneConfig st{SelfTuneMode::kGtm, 1000, 1};
  for (EvalBackend backend : {EvalBackend::kWeightDomain, EvalBackend::kInt8,
                              EvalBackend::kCircuit}) {
    const std::string bname = to_string(backend);
    double seconds = 0.0, chip_images = 0.0;
    for (const TrainedKind& t : ks) {
      EvalConfig ecfg = default_eval_config(t.kind);
      ecfg.backend = backend;
      ecfg.seed = derive_seed(seed, 13, static_cast<int>(t.kind));
      const auto t0 = Clock::now();
      EvalStats stats;
      {
        Span span("evaluator", "evaluate_under_variability." + bname + "." + t.name);
        stats = evaluate_under_variability(*t.model, t.data.test, vcfg, ecfg, &st);
      }
      const double s = seconds_since(t0);
      report.set("evaluator.s." + bname + "." + t.name, s, "s");
      outcome.check(stats.n_chips == ecfg.n_chips &&
                        stats.accuracy.mean >= 0.0 && stats.accuracy.mean <= 1.0,
                    1, "replay eval " + bname + "." + t.name);
      seconds += s;
      chip_images += static_cast<double>(stats.n_chips) *
                     static_cast<double>(std::min(t.data.test.size(),
                                                  ecfg.max_test_samples));
    }
    report.set("mc.chip_images_per_s." + bname, chip_images / seconds, "1/s");
  }
}

void replay_fleet(std::uint64_t seed, Report& report, Outcome& outcome) {
  disable_store();
  FleetStudySpec spec = fleet_mixed_spec(seed);
  spec.lifetime.n_chips = 16;
  spec.lifetime.n_steps = 16;
  spec.lifetime.checkpoint_every = 8;
  Session session;
  session.dataset(spec.scenario.model);
  {
    Span span("train", "train_model.lenet5s");
    session.train_model(spec.scenario);
  }
  FleetEvaluator fleet(session);
  const auto t0 = Clock::now();
  FleetRunResult r;
  {
    Span span("fleet", "run");
    r = fleet.run(spec);
  }
  const double s = seconds_since(t0);
  const double windows = static_cast<double>(r.trajectory.checkpoints.size());
  outcome.check(windows == 2.0, 2, "replay fleet windows");
  report.set("fleet.run_s", s, "s");
  report.set("fleet.windows", windows, "count");
  report.set("fleet.chip_steps_per_s",
             static_cast<double>(spec.lifetime.n_chips * spec.lifetime.n_steps) / s,
             "1/s");
}

}  // namespace

void run_replay(std::uint64_t seed, const std::string& scratch,
                Report& report, Outcome& outcome) {
  set_num_threads(4);
  replay_data(report);
  const std::vector<TrainedKind> ks = replay_train(seed, report, outcome);
  replay_runner_store(seed, scratch, report, outcome);

  // Kernel and model replays at the workload thread count (4) and at 1;
  // <metric>.scaling = time at 1 thread / time at 4 threads.
  auto models4 = replay_models(ks, seed);
  auto kernels4 = replay_kernels(seed);
  {
    Span span("tensor", "pool_dispatch");
    long long hits[4] = {0, 0, 0, 0};
    constexpr int kDispatches = 2000;
    const double s = time_median(
        [&] {
          for (int i = 0; i < kDispatches; ++i) {
            parallel_for(index_t{0}, index_t{4}, index_t{1},
                         [&](index_t lo, index_t hi) {
                           for (index_t j = lo; j < hi; ++j) ++hits[j];
                         });
          }
        },
        kMinReps, 0.05);
    report.set("tensor.pool_dispatch_us", s / kDispatches * 1e6, "us");
  }
  set_num_threads(1);
  auto models1 = replay_models(ks, seed);
  auto kernels1 = replay_kernels(seed);
  set_num_threads(4);

  for (std::size_t i = 0; i < models4.size(); ++i) {
    report.set(models4[i].first, models4[i].second, "ms");
    report.set(models4[i].first + ".scaling",
               models1[i].second / models4[i].second, "x");
  }
  for (std::size_t i = 0; i < kernels4.size(); ++i) {
    const KernelRow& k = kernels4[i];
    const std::string p = "tensor." + k.name;
    report.set(p + ".ms", k.ms, "ms");
    report.set(p + (k.ops_per_byte >= 0 ? ".gmacs" : ".gbs"), k.rate,
               k.rate_unit);
    if (k.ops_per_byte >= 0) report.set(p + ".ops_per_byte", k.ops_per_byte, "op/B");
    report.set(p + ".scaling", kernels1[i].ms / k.ms, "x");
  }

  replay_small_layers(ks, seed, report, outcome);
  replay_evaluator(ks, seed, report, outcome);
  replay_fleet(seed, report, outcome);
  set_num_threads(0);
}

}  // namespace perfbench
