// Serialization + artifact-store tests: StateDict/Module save->load
// bit-identity, ScenarioSpec JSON round-trip and key
// stability, read-through cache behavior, corrupted/partial-file
// recovery (the store falls back to retraining, never crashes), and
// clear_experiment_caches(drop_disk). Runs against a private temp store
// (QAVAT_STORE_DIR is set before any store call), so it never touches
// other tests' artifacts.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "eval/runner.h"
#include "eval/scenario.h"
#include "eval/store.h"
#include "tensor/serialize.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

bool tensors_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor random_tensor(std::vector<index_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (index_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

void test_state_dict_roundtrip_and_corruption() {
  Rng rng(2);
  StateDict sd;
  sd.add_tensor("w", random_tensor({4, 9}, rng));
  sd.add_tensor("b", random_tensor({4}, rng));
  sd.add_tensor("empty", Tensor{});  // the size-0 path
  sd.add_scalar("scale", 0.12345678901234567);
  sd.add_scalar("flag", 1.0);

  std::stringstream ss;
  save_state_dict(ss, sd);
  const std::string bytes = ss.str();

  StateDict back;
  CHECK(load_state_dict(ss, &back));
  CHECK(back.tensors.size() == 3);
  CHECK(back.scalars.size() == 2);
  CHECK(back.find_tensor("w") != nullptr &&
        tensors_equal(*back.find_tensor("w"), *sd.find_tensor("w")));
  CHECK(back.find_tensor("empty") != nullptr &&
        back.find_tensor("empty")->size() == 0);
  CHECK(back.find_scalar("scale") != nullptr &&
        *back.find_scalar("scale") == 0.12345678901234567);

  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{11},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream trunc(bytes.substr(0, cut));
    StateDict out;
    CHECK(!load_state_dict(trunc, &out));
  }
  // A flipped payload byte must fail the checksum.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x5a;
  std::stringstream cs(corrupt);
  StateDict out;
  CHECK(!load_state_dict(cs, &out));
  // Wrong magic.
  std::string wrong = bytes;
  wrong[0] = 'X';
  std::stringstream ws(wrong);
  CHECK(!load_state_dict(ws, &out));
}

void test_module_state_roundtrip() {
  ModelConfig mcfg = default_model_config(ModelKind::kLeNet5s, 4, 2);
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.5f);
  }
  model->set_training(false);

  std::stringstream ss;
  save_state_dict(ss, module_state_dict(*model));
  StateDict sd;
  CHECK(load_state_dict(ss, &sd));

  auto restored = make_model(ModelKind::kLeNet5s, mcfg);
  CHECK(load_module_state(*restored, sd));

  // Save -> load -> eval bit-identity: identical logits on a batch.
  Rng rng(3);
  Tensor x = random_tensor({4, 1, 12, 12}, rng);
  Tensor y1 = model->forward(x);
  Tensor y2 = restored->forward(x);
  CHECK(tensors_equal(y1, y2));

  // A mismatched target model must be rejected, not clobbered.
  ModelConfig other = mcfg;
  other.a_bits = 8;
  auto wrong = make_model(ModelKind::kLeNet5s, other);
  CHECK(!load_module_state(*wrong, sd));
}

void test_scenario_json_and_key() {
  ScenarioSpec spec;
  spec.model = ModelKind::kVGG11s;
  spec.model_cfg = default_model_config(ModelKind::kVGG11s, 8, 4);
  spec.algo = ScenarioAlgo::kQAVAT;
  spec.train.epochs = 3;
  spec.train.lr = 3e-3;
  spec.train.n_variation_samples = 5;
  spec.train.train_noise = VariabilityConfig::within_only(
      VarianceModel::kWeightProportional, 0.3);
  spec.deploy = VariabilityConfig::mixed(VarianceModel::kWeightProportional,
                                         0.3);
  spec.with_selftune(SelfTuneMode::kGtm, 1000, 1);
  spec.eval.n_chips = 8;
  spec.eval.max_test_samples = 200;
  spec.fast = true;

  // Key stability: this exact string is the persisted artifact identity;
  // changing it silently orphans every existing store. Bump
  // kScenarioSchemaVersion when the format must change.
  const std::string expect =
      "v1_vgg11s_A8W4_QAVAT_m[c3s16k10i77]"
      "_tr[e3_lr0.003_bs32_n5_rp1_su1_sd1_wpw0.3b0]"
      "_dp[wpw0.212132034356b0.212132034356]"
      "_st[gtm_g1000_l1]_ev[c8_t200_s1000_wd]_fast";
  if (spec.key() != expect) {
    std::printf("key mismatch:\n  got    %s\n  expect %s\n",
                spec.key().c_str(), expect.c_str());
  }
  CHECK(spec.key() == expect);

  // JSON round-trip preserves every keyed field and the exact key.
  ScenarioSpec back;
  CHECK(ScenarioSpec::from_json(spec.to_json(), &back));
  CHECK(back.key() == spec.key());
  CHECK(back.train.lr == spec.train.lr);
  CHECK(back.deploy.sigma_w == spec.deploy.sigma_w);
  CHECK(back.eval.n_chips == spec.eval.n_chips);
  CHECK(back.selftune.mode == SelfTuneMode::kGtm);
  CHECK(back.fast);

  // Malformed documents are rejected.
  CHECK(!ScenarioSpec::from_json("", &back));
  CHECK(!ScenarioSpec::from_json("{", &back));
  CHECK(!ScenarioSpec::from_json("{\"schema\":999}", &back));
  CHECK(!ScenarioSpec::from_json("{\"schema\":1,\"model\":\"nope\"}", &back));

  // The key separates what must never collide.
  ScenarioSpec full = spec;
  full.fast = false;
  CHECK(full.key() != spec.key());
  ScenarioSpec circuit = spec;
  circuit.eval.backend = EvalBackend::kCircuit;
  circuit.eval.tile_size = 128;
  CHECK(circuit.key() != spec.key());
  ScenarioSpec qat = spec;
  qat.algo = ScenarioAlgo::kQAT;
  CHECK(qat.key() != spec.key());
}

void test_store_read_through() {
  int calls = 0;
  EvalStats stats;
  stats.per_chip_acc = {0.5, 0.25, 1.0};
  stats.n_chips = 3;
  stats.accuracy = Stats::from(stats.per_chip_acc);
  const auto compute = [&] {
    ++calls;
    return stats;
  };
  const auto stale = [&] {
    ++calls;
    return EvalStats{};
  };
  bool computed = false;
  EvalStats got = with_eval_cache("test_store_eval", compute, &computed);
  CHECK(computed && calls == 1);
  // Memory hit.
  got = with_eval_cache("test_store_eval", stale, &computed);
  CHECK(!computed && calls == 1);
  CHECK(got.per_chip_acc == stats.per_chip_acc);
  // Disk hit after dropping the memory cache, via the per-chip vector.
  clear_experiment_caches();
  got = with_eval_cache("test_store_eval", stale, &computed);
  CHECK(!computed && calls == 1);
  CHECK(got.n_chips == 3);
  CHECK(got.per_chip_acc == stats.per_chip_acc);
  CHECK(got.accuracy.mean == stats.accuracy.mean);
  CHECK(got.accuracy.stddev == stats.accuracy.stddev);
}

void test_trained_model_store(const fs::path& store_dir) {
  // Tiny workload so the test trains in well under a second.
  SynthDigitsConfig dcfg;
  dcfg.n_train = 96;
  dcfg.n_test = 48;
  SplitDataset data = make_synth_digits(dcfg);
  const ModelKind kind = ModelKind::kLeNet5s;
  ModelConfig mcfg = default_model_config(kind, 4, 2);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.train_noise = VariabilityConfig::within_only(
      VarianceModel::kWeightProportional, 0.3);

  const index_t runs0 = training_runs();
  TrainedModel cold = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(cold.trained);
  CHECK(training_runs() == runs0 + 2);  // pretrain + fine-tune

  // Warm path: drop the memory cache, reload from disk — zero training,
  // bit-identical parameters.
  clear_experiment_caches();
  TrainedModel warm = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(!warm.trained);
  CHECK(warm.from_store);
  CHECK(training_runs() == runs0 + 2);
  CHECK(warm.clean_test_acc == cold.clean_test_acc);
  auto pc = cold.model->parameters();
  auto pw = warm.model->parameters();
  CHECK(pc.size() == pw.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    CHECK(tensors_equal(pc[i]->value, pw[i]->value));
  }

  // Corrupt every persisted model artifact (truncate to half): the store
  // must fall back to retraining — never crash, never return garbage —
  // and heal the artifacts.
  clear_experiment_caches();
  index_t damaged = 0;
  const fs::path models_dir =
      store_dir / "v1" / (fast_mode() ? "fast" : "full") / "models";
  CHECK(fs::exists(models_dir));
  for (const auto& entry : fs::recursive_directory_iterator(models_dir)) {
    if (!entry.is_regular_file()) continue;
    const auto size = entry.file_size();
    fs::resize_file(entry.path(), size / 2);
    ++damaged;
  }
  CHECK(damaged >= 2);  // pretrain + fine-tuned artifacts exist
  TrainedModel healed = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(healed.trained);
  CHECK(training_runs() == runs0 + 4);  // both phases retrained
  CHECK(healed.clean_test_acc == cold.clean_test_acc);  // deterministic retrain
  clear_experiment_caches();
  TrainedModel rewarmed = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(!rewarmed.trained);  // artifacts healed
  CHECK(training_runs() == runs0 + 4);

  // drop_disk wipes the schema subtree.
  clear_experiment_caches(/*drop_disk=*/true);
  CHECK(!fs::exists(store_dir / "v1"));
  TrainedModel recold = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(recold.trained);
  CHECK(training_runs() == runs0 + 6);
}

void test_key_filename() {
  // Safe keys map to themselves.
  CHECK(store_key_filename("v1_lenet5s_A4W2_tr[e2]_fast") ==
        "v1_lenet5s_A4W2_tr[e2]_fast");
  // Unsafe characters are mapped away and disambiguated by a hash.
  const std::string slashed = store_key_filename("a/b/../c");
  CHECK(slashed.find('/') == std::string::npos);
  CHECK(slashed != store_key_filename("a-b-..-c"));  // hash disambiguates
  // Over-long keys are capped below filesystem limits.
  const std::string long_key(400, 'k');
  CHECK(store_key_filename(long_key).size() < 255);
  CHECK(store_key_filename(long_key) !=
        store_key_filename(long_key + "x"));
}

}  // namespace

int main() {
  // Private store for this test binary; set before any store access.
  const fs::path store_dir =
      fs::temp_directory_path() /
      ("qavat_test_store_" + std::to_string(::getpid()));
  ::setenv("QAVAT_STORE_DIR", store_dir.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);
  CHECK(store_enabled());

  test_state_dict_roundtrip_and_corruption();
  test_module_state_roundtrip();
  test_scenario_json_and_key();
  test_store_read_through();
  test_trained_model_store(store_dir);
  test_key_filename();

  // QAVAT_STORE=0 disables persistence entirely.
  ::setenv("QAVAT_STORE", "0", 1);
  CHECK(!store_enabled());
  clear_experiment_caches();
  int calls = 0;
  const auto compute = [&] {
    ++calls;
    EvalStats s;
    s.per_chip_acc = {1.0};
    return s;
  };
  with_eval_cache("test_store_disabled", compute);
  clear_experiment_caches();
  with_eval_cache("test_store_disabled", compute);
  CHECK(calls == 2);  // no disk backing while disabled
  ::setenv("QAVAT_STORE", "1", 1);

  std::error_code ec;
  fs::remove_all(store_dir, ec);
  return qavat::test::finish("test_store");
}
