// Tier-1: batched Monte-Carlo evaluation must produce per-chip accuracies
// IDENTICAL to one-chip-per-forward evaluation (chip_batch 1, same
// seeds), for every chip_batch,
// both variance models, with and without self-tuning, and for any thread
// count. Chip lanes (one model clone per thread over a chip range) must
// keep that identity for every backend, must evaluate hand-built modules
// as themselves, must surface a lane's exception and must leave the
// caller's model untouched. Also covers the eval-only contract of the
// noise-batch axis, the NoiseState shape invariant and training's draw
// order.
#include <memory>
#include <stdexcept>

#include "core/variability/variability.h"
#include "eval/evaluator.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

// Inference-only flatten for the hand-built module below (the zoo's
// layers are internal to core/models).
class FlattenLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    y.reshape({x.dim(0), x.size() / x.dim(0)});
    return y;
  }
  Tensor backward(const Tensor&) override {
    throw std::logic_error("FlattenLayer: inference-only");
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FlattenLayer>();
  }
};

std::unique_ptr<Module> make_test_model(const SplitDataset& data) {
  ModelConfig mcfg;
  mcfg.a_bits = 4;
  mcfg.w_bits = 2;
  mcfg.in_channels = 1;
  mcfg.image_size = 12;
  mcfg.num_classes = data.test.num_classes;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  // Untrained weights are fine (we compare evaluations, not accuracy), but
  // exercise the full quantization pipeline: MMSE weight grids + a fixed
  // activation scale.
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(false);
  return model;
}

bool identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // exact — the contract is bit-identity
  }
  return true;
}

}  // namespace

int main() {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 32;  // unused
  dcfg.n_test = 96;
  SplitDataset data = make_synth_digits(dcfg);
  auto model = make_test_model(data);

  EvalConfig base;
  base.n_chips = 6;
  base.max_test_samples = 96;
  base.batch_size = 32;
  base.seed = 777;

  SelfTuneConfig st_gtm;
  st_gtm.mode = SelfTuneMode::kGtm;
  SelfTuneConfig st_ltm;
  st_ltm.mode = SelfTuneMode::kGtmLtm;
  st_ltm.ltm_columns = 4;

  const VarianceModel vms[] = {VarianceModel::kWeightProportional,
                               VarianceModel::kLayerFixed};
  const SelfTuneConfig* tunes[] = {nullptr, &st_gtm, &st_ltm};

  for (VarianceModel vm : vms) {
    for (const SelfTuneConfig* st : tunes) {
      const VariabilityConfig vcfg = VariabilityConfig::mixed(vm, 0.4);
      EvalConfig seq = base;
      seq.chip_batch = 1;
      const EvalStats ref =
          evaluate_under_variability(*model, data.test, vcfg, seq, st);
      CHECK(static_cast<index_t>(ref.per_chip_acc.size()) == base.n_chips);

      // chip_batch 3 (even split), 4 (ragged last group), 5 (ragged
      // single-chip last group, a batch-1 forward), 0 (default 8,
      // clamped to n_chips): all must reproduce the one-chip-per-forward
      // result.
      for (index_t cb : {index_t{3}, index_t{4}, index_t{5}, index_t{0}}) {
        EvalConfig batched = base;
        batched.chip_batch = cb;
        const EvalStats got =
            evaluate_under_variability(*model, data.test, vcfg, batched, st);
        CHECK(identical(got.per_chip_acc, ref.per_chip_acc));
        CHECK(got.accuracy.mean == ref.accuracy.mean);
        CHECK(got.accuracy.stddev == ref.accuracy.stddev);
      }
    }
  }

  // Zero-noise deployments must also agree (correction fields set but
  // inactive, identical across chips).
  {
    const VariabilityConfig off;  // sigma_w = sigma_b = 0
    EvalConfig seq = base;
    seq.chip_batch = 1;
    EvalConfig bat = base;
    bat.chip_batch = 4;
    const EvalStats a =
        evaluate_under_variability(*model, data.test, off, seq, &st_gtm);
    const EvalStats b =
        evaluate_under_variability(*model, data.test, off, bat, &st_gtm);
    CHECK(identical(a.per_chip_acc, b.per_chip_acc));
  }

  // Chip lanes: evaluate_under_variability splits the chips into
  // min(threads, n_chips) contiguous lanes, each on its own clone of the
  // model. Per-chip accuracies must not depend on the lane split, the
  // chip batch, the backend or its threading — n_chips 1 and 2 give fewer
  // chips than lanes, 7 a ragged split; both variance models with GTM and
  // GTM+LTM tuning — and the caller's model must come back without an
  // installed backend or an active noise state.
  {
    struct Deployment {
      VarianceModel vm;
      const SelfTuneConfig* st;
    };
    const Deployment deployments[] = {
        {VarianceModel::kWeightProportional, &st_gtm},
        {VarianceModel::kLayerFixed, &st_ltm}};
    const EvalBackend backends[] = {EvalBackend::kWeightDomain,
                                    EvalBackend::kInt8, EvalBackend::kCircuit};
    const index_t saved = num_threads();
    for (const Deployment& d : deployments) {
      const VariabilityConfig vcfg = VariabilityConfig::mixed(d.vm, 0.4);
      for (EvalBackend backend : backends) {
        for (index_t n_chips : {index_t{1}, index_t{2}, index_t{7}}) {
          EvalConfig cfg = base;
          cfg.backend = backend;
          cfg.n_chips = n_chips;
          cfg.max_test_samples = 48;
          cfg.chip_batch = 1;
          set_num_threads(1);
          const EvalStats ref =
              evaluate_under_variability(*model, data.test, vcfg, cfg, d.st);
          CHECK(static_cast<index_t>(ref.per_chip_acc.size()) == n_chips);
          for (index_t threads : {index_t{1}, index_t{2}, index_t{4}}) {
            set_num_threads(threads);
            for (index_t cb : {index_t{1}, index_t{3}, index_t{8}}) {
              cfg.chip_batch = cb;
              const EvalStats got = evaluate_under_variability(
                  *model, data.test, vcfg, cfg, d.st);
              CHECK(identical(got.per_chip_acc, ref.per_chip_acc));
              CHECK(got.accuracy.mean == ref.accuracy.mean);
            }
          }
        }
      }
    }
    set_num_threads(saved);
    for (QuantLayerBase* q : model->quant_layers()) {
      CHECK(q->analog_backend() == nullptr);
      CHECK(!q->noise_state().active);
      CHECK(q->noise_state().batch == 1);
    }
  }

  // A hand-built module — an MLP carrying the LeNet-5s tag, as the micro
  // benches build one — must evaluate as itself in every lane: with zero
  // variability every chip scores the module's own clean accuracy, and
  // noisy per-chip accuracies do not depend on the thread count.
  {
    ModelConfig mcfg;
    mcfg.num_classes = data.test.num_classes;
    Rng rng(11);
    auto mlp = std::make_unique<Module>(ModelKind::kLeNet5s, mcfg);
    mlp->add_layer(std::make_unique<FlattenLayer>());
    mlp->add_layer(std::make_unique<QuantLinear>(144, 48, 4, 2, rng));
    mlp->add_layer(
        std::make_unique<QuantLinear>(48, mcfg.num_classes, 4, 2, rng));
    for (QuantLayerBase* q : mlp->quant_layers()) {
      q->refresh_weight_scale();
      q->act_quantizer().set_scale(0.25f);
    }
    mlp->set_training(false);
    index_t hits = 0;
    softmax_xent(mlp->forward(data.test.images), data.test.labels, nullptr,
                 &hits);
    const double clean =
        static_cast<double>(hits) / static_cast<double>(data.test.size());

    const index_t saved = num_threads();
    set_num_threads(4);
    EvalConfig cfg = base;
    cfg.n_chips = 3;
    const EvalStats off =
        evaluate_under_variability(*mlp, data.test, VariabilityConfig{}, cfg);
    CHECK(static_cast<index_t>(off.per_chip_acc.size()) == cfg.n_chips);
    for (double acc : off.per_chip_acc) CHECK(acc == clean);

    const VariabilityConfig vcfg =
        VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
    for (EvalBackend backend : {EvalBackend::kWeightDomain, EvalBackend::kInt8,
                                EvalBackend::kCircuit}) {
      cfg.backend = backend;
      const EvalStats multi =
          evaluate_under_variability(*mlp, data.test, vcfg, cfg, &st_gtm);
      set_num_threads(1);
      const EvalStats single =
          evaluate_under_variability(*mlp, data.test, vcfg, cfg, &st_gtm);
      set_num_threads(4);
      CHECK(identical(multi.per_chip_acc, single.per_chip_acc));
    }
    set_num_threads(saved);
  }

  // A lane that throws (here: every lane, on images of the wrong size)
  // must surface the exception to the caller and leave the caller's
  // model evaluating exactly as before.
  {
    SynthDigitsConfig bad_cfg = dcfg;
    bad_cfg.image_size = 16;
    const SplitDataset bad = make_synth_digits(bad_cfg);
    const VariabilityConfig vcfg =
        VariabilityConfig::mixed(VarianceModel::kLayerFixed, 0.4);
    const index_t saved = num_threads();
    set_num_threads(4);
    for (EvalBackend backend : {EvalBackend::kWeightDomain, EvalBackend::kInt8,
                                EvalBackend::kCircuit}) {
      EvalConfig cfg = base;
      cfg.backend = backend;
      cfg.max_test_samples = 48;
      const EvalStats before =
          evaluate_under_variability(*model, data.test, vcfg, cfg, &st_ltm);
      bool threw = false;
      try {
        evaluate_under_variability(*model, bad.test, vcfg, cfg, &st_ltm);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      CHECK(threw);
      const EvalStats after =
          evaluate_under_variability(*model, data.test, vcfg, cfg, &st_ltm);
      CHECK(identical(after.per_chip_acc, before.per_chip_acc));
    }
    set_num_threads(saved);
  }

  // The noise-batch axis is eval-only: a batched backward must throw, and
  // a forward whose row count does not divide by the batch must throw.
  {
    Rng rng(3);
    QuantLinear layer(12, 5, 4, 2, rng);
    layer.set_training(false);
    ensure_noise_batch(layer, 4);
    const VariabilityConfig vcfg =
        VariabilityConfig::within_only(VarianceModel::kWeightProportional, 0.3);
    Rng noise_rng(4);
    for (index_t s = 0; s < 4; ++s) {
      sample_variability_slot(layer, vcfg, noise_rng, s);
    }
    Tensor x({8, 12});
    fill_normal(x, rng);
    Tensor y = layer.forward(x);
    CHECK(y.dim(0) == 8 && y.dim(1) == 5);
    bool threw = false;
    try {
      layer.backward(y);
    } catch (const std::logic_error&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    Tensor bad({6, 12});
    try {
      layer.forward(bad);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // One NoiseState shape: every chip-level vector holds `batch` entries
  // after construction, clear(), sample_variability (batch 1) and
  // ensure_noise_batch, and eps carries `batch` weight planes.
  {
    Rng rng(5);
    QuantLinear layer(6, 3, 4, 2, rng);
    layer.refresh_weight_scale();
    NoiseState& ns = layer.noise_state();
    const auto sized = [&ns] {
      const auto b = static_cast<std::size_t>(ns.batch);
      return ns.eps_b.size() == b && ns.eps_hat.size() == b &&
             ns.ltm_err.size() == b;
    };
    CHECK(ns.batch == 1 && sized());
    ensure_noise_batch(layer, 4);
    CHECK(ns.batch == 4 && sized() && ns.eps.size() == 4 * 18);
    ns.clear();
    CHECK(ns.batch == 1 && sized() && !ns.active);
    const VariabilityConfig vcfg =
        VariabilityConfig::mixed(VarianceModel::kLayerFixed, 0.3);
    ensure_noise_batch(layer, 4);
    sample_variability(layer, vcfg, rng);
    CHECK(ns.batch == 1 && sized() && ns.active && ns.eps.size() == 18);
    ensure_noise_batch(layer, 4);
    CHECK(ns.batch == 4 && sized() && ns.eps.size() == 4 * 18);
  }

  // Training's draw order: sample_variability fills eps with the first
  // fan_out * fan_in N(0, sigma_w) draws of its Rng, then eps_b[0] with
  // the next N(0, sigma_b) draw.
  {
    Rng init(6);
    QuantLinear layer(6, 3, 4, 2, init);
    layer.refresh_weight_scale();
    VariabilityConfig vcfg;
    vcfg.sigma_w = 0.2;
    vcfg.sigma_b = 0.1;
    Rng rng(99), ref(99);
    sample_variability(layer, vcfg, rng);
    const NoiseState& ns = layer.noise_state();
    CHECK(ns.eps.size() == 18);
    index_t mismatches = 0;
    for (index_t i = 0; i < 18; ++i) {
      const float want = static_cast<float>(ref.normal(0.0, vcfg.sigma_w));
      if (ns.eps.data()[i] != want) ++mismatches;
    }
    CHECK(mismatches == 0);
    CHECK(ns.eps_b[0] == static_cast<float>(ref.normal(0.0, vcfg.sigma_b)));
  }

  return qavat::test::finish("test_eval_batched");
}
