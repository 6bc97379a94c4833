// Tier-1 acceptance smoke: the full pipeline learns, and QAVAT-trained
// mean accuracy under within-chip variability (sigma_W = 0.3,
// weight-proportional) measurably exceeds the QAT-only baseline.
#include "eval/experiment.h"

#include "tests/test_common.h"

using namespace qavat;

int main() {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 2000;
  dcfg.n_test = 400;
  SplitDataset data = make_synth_digits(dcfg);

  const ModelKind kind = ModelKind::kLeNet5s;
  ModelConfig mcfg = default_model_config(kind, 4, 2);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  const VariabilityConfig env =
      VariabilityConfig::within_only(VarianceModel::kWeightProportional, 0.3);
  tcfg.train_noise = env;

  auto qat = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAT, data, tcfg), data);
  std::printf("QAT clean accuracy: %.3f\n", qat.clean_test_acc);
  CHECK(qat.clean_test_acc > 0.6);  // the pipeline actually learns

  EvalConfig ecfg;
  ecfg.n_chips = 30;
  EvalStats qat_noisy =
      evaluate_under_variability(*qat.model, data.test, env, ecfg);

  auto qavat = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  std::printf("QAVAT clean accuracy: %.3f\n", qavat.clean_test_acc);
  EvalStats qavat_noisy =
      evaluate_under_variability(*qavat.model, data.test, env, ecfg);

  std::printf("mean accuracy under sigma_W=0.3: QAT %.3f, QAVAT %.3f\n",
              qat_noisy.accuracy.mean, qavat_noisy.accuracy.mean);
  CHECK(qavat_noisy.accuracy.mean > 0.5);
  // The paper's core claim at smoke scale: variability-aware training
  // measurably beats quantization-aware training alone under deployment
  // noise.
  CHECK(qavat_noisy.accuracy.mean > qat_noisy.accuracy.mean + 0.01);

  // Determinism: a fresh evaluation through the eval cache reproduces
  // the first one exactly, and the second lookup is a cache hit.
  const EvalStats cached = with_eval_cache("smoke_qavat", [&] {
    return evaluate_under_variability(*qavat.model, data.test, env, ecfg);
  });
  CHECK(cached.per_chip_acc == qavat_noisy.per_chip_acc);
  bool computed = true;
  const EvalStats again =
      with_eval_cache("smoke_qavat", [] { return EvalStats{}; }, &computed);
  CHECK(!computed);
  CHECK(again.per_chip_acc == cached.per_chip_acc);
  return qavat::test::finish("test_train_smoke");
}
