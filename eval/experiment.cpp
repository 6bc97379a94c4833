#include "eval/experiment.h"

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "eval/store.h"
#include "tensor/env.h"

namespace qavat {

bool fast_mode() {
  static const bool fast = env_flag("QAVAT_FAST", false);
  return fast;
}

namespace {

std::map<std::string, EvalStats>& eval_cache() {
  static std::map<std::string, EvalStats> cache;
  return cache;
}

// The model cache holds each trained model in its persisted form: the
// module_state_dict plus the "clean_test_acc" scalar, exactly the
// StateDict the store holds under the same key. It is the one piece of
// experiment state training lanes share, so it sits behind a mutex.
// Entries are never erased while a run is in flight (only
// clear_experiment_caches drops them), and std::map nodes are stable, so
// an entry found under the lock can be read after it is released.
struct ModelCache {
  std::mutex mu;
  std::map<std::string, StateDict> entries;
};

ModelCache& model_cache() {
  static ModelCache cache;
  return cache;
}

const StateDict* find_model(const std::string& key) {
  ModelCache& c = model_cache();
  std::lock_guard<std::mutex> lk(c.mu);
  auto it = c.entries.find(key);
  return it == c.entries.end() ? nullptr : &it->second;
}

void cache_model(const std::string& key, StateDict sd) {
  ModelCache& c = model_cache();
  std::lock_guard<std::mutex> lk(c.mu);
  c.entries.emplace(key, std::move(sd));
}

std::atomic<index_t>& training_runs_counter() {
  static std::atomic<index_t> runs{0};
  return runs;
}

// All cached training funnels through here so training_runs() counts
// every phase — the observable the CI warm-store gate asserts is zero.
TrainResult counted_train(Module& model, const Dataset& data, TrainAlgo algo,
                          const TrainConfig& cfg) {
  ++training_runs_counter();
  return train(model, data, algo, cfg);
}

// Materialize `unit`'s model from its persisted state; nullptr when the
// state does not match (kind, config).
std::unique_ptr<Module> restore(const TrainUnit& unit, const StateDict& sd) {
  auto model = make_model(unit.kind, unit.mcfg);
  if (!load_module_state(*model, sd)) return nullptr;
  return model;
}

std::string noise_key(const VariabilityConfig& v) {
  std::ostringstream os;
  os << (v.model == VarianceModel::kWeightProportional ? "wp" : "lf") << "_"
     << v.sigma_w << "_" << v.sigma_b;
  return os.str();
}

std::string train_key(ModelKind kind, const ModelConfig& mcfg, const char* algo,
                      const SplitDataset& data, const TrainConfig& tcfg) {
  std::ostringstream os;
  os << to_string(kind) << "_A" << mcfg.a_bits << "W" << mcfg.w_bits << "_nc"
     << mcfg.num_classes << "_c" << mcfg.in_channels << "s" << mcfg.image_size
     << "i" << mcfg.init_seed << "_" << algo << "_e" << tcfg.epochs << "_lr"
     << tcfg.lr << "_bs" << tcfg.batch_size << "_n" << tcfg.n_variation_samples
     << "_rp" << tcfg.reparam << "_su" << static_cast<int>(tcfg.scale_update)
     << "_sd" << tcfg.seed << "_" << noise_key(tcfg.train_noise) << "_d"
     << data.train.size() << "x" << data.test.size()
     << (fast_mode() ? "_fast" : "");
  return os.str();
}

TrainUnit make_unit(ModelKind kind, const ModelConfig& mcfg, ScenarioAlgo algo,
                    const SplitDataset& data, const TrainConfig& tcfg) {
  return {train_key(kind, mcfg, to_string(algo), data, tcfg), kind, mcfg, algo,
          tcfg};
}

// The QAT pretrain shared by every algorithm of a workload: the noise
// is cleared (and one variation sample kept) before keying.
TrainUnit pretrain_unit(ModelKind kind, const ModelConfig& mcfg,
                        const SplitDataset& data, const TrainConfig& tcfg) {
  TrainConfig pre = tcfg;
  pre.train_noise = VariabilityConfig{};
  pre.n_variation_samples = 1;
  return make_unit(kind, mcfg, ScenarioAlgo::kQAT, data, pre);
}

// Publish a freshly trained model as `unit`'s artifact. The model (with
// its workspace and training-batch caches) is captured and freed first;
// the clean evaluation then runs on a fresh restore, which carries
// exactly the captured state. Persisting is fail-soft: the store warns
// once on unwritable paths.
void publish_trained(const TrainUnit& unit, std::unique_ptr<Module> model,
                     const Dataset& test) {
  StateDict sd = module_state_dict(*model);
  model.reset();
  sd.add_scalar("clean_test_acc", evaluate_clean(*restore(unit, sd), test));
  store_save_state("models", unit.key, sd);
  cache_model(unit.key, std::move(sd));
}

}  // namespace

EvalStats with_eval_cache(const std::string& key,
                          const std::function<EvalStats()>& fn,
                          bool* computed) {
  if (computed != nullptr) *computed = false;
  auto& cache = eval_cache();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  EvalStats loaded;
  ClaimWait cw = claim_or_load("evals", key, [&](StoreLoadOutcome* o) {
    std::vector<double> per_chip;
    if (!store_load_doubles("evals", key, &per_chip, o)) return false;
    // The per-chip vector is the persisted artifact; the summary stats
    // recompute from the exact same doubles, so a warm hit is
    // bit-identical to the cold EvalStats.
    loaded.accuracy = Stats::from(per_chip);
    loaded.n_chips = static_cast<index_t>(per_chip.size());
    loaded.per_chip_acc = std::move(per_chip);
    return true;
  });
  if (cw.loaded) {
    return cache.emplace(key, std::move(loaded)).first->second;
  }
  EvalStats stats = fn();
  if (computed != nullptr) *computed = true;
  if (cw.saw_corrupt) store_note_retrain_after_corruption();
  store_save_doubles("evals", key, stats.per_chip_acc);
  return cache.emplace(key, std::move(stats)).first->second;
}

void clear_experiment_caches(bool drop_disk) {
  eval_cache().clear();
  {
    ModelCache& c = model_cache();
    std::lock_guard<std::mutex> lk(c.mu);
    c.entries.clear();
  }
  if (drop_disk) store_drop_all();
}

index_t training_runs() { return training_runs_counter().load(); }

std::vector<TrainUnit> training_units(ModelKind kind, const ModelConfig& mcfg,
                                      ScenarioAlgo algo,
                                      const SplitDataset& data,
                                      const TrainConfig& tcfg) {
  if (algo == ScenarioAlgo::kPTQVAT) {
    return {make_unit(kind, mcfg, ScenarioAlgo::kPTQVAT, data, tcfg)};
  }
  std::vector<TrainUnit> plan = {pretrain_unit(kind, mcfg, data, tcfg)};
  // Only a noisy QAVAT fine-tunes; kQAT and noise-free kQAVAT are the
  // pretrain itself.
  if (algo == ScenarioAlgo::kQAVAT && tcfg.train_noise.enabled()) {
    plan.push_back(make_unit(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg));
  }
  return plan;
}

UnitOutcome produce_unit(const TrainUnit& unit, const SplitDataset& data) {
  UnitOutcome out;
  if (find_model(unit.key) != nullptr) return out;
  // Read-through with the work-claim protocol: probe the disk store for
  // the finished model, and on a miss either claim the right to train it
  // or wait for the process that already did (DESIGN §14). A fine-tune
  // claims its own key before its pretrain's, so a waiter on the
  // fine-tune never needs the pretrain.
  ClaimWait cw = claim_or_load("models", unit.key, [&](StoreLoadOutcome* o) {
    // A state without the clean accuracy or for another (kind, config)
    // reads as a miss: the caller retrains, overwriting the bad artifact.
    StateDict sd;
    if (!store_load_state("models", unit.key, &sd, o) ||
        sd.find_scalar("clean_test_acc") == nullptr ||
        restore(unit, sd) == nullptr) {
      return false;
    }
    cache_model(unit.key, std::move(sd));
    return true;
  });
  if (cw.loaded) {
    out.from_store = true;
    return out;
  }
  std::unique_ptr<Module> model;
  if (unit.algo == ScenarioAlgo::kQAT) {
    model = make_model(unit.kind, unit.mcfg);
    counted_train(*model, data.train, TrainAlgo::kQAT, unit.tcfg);
  } else if (unit.algo == ScenarioAlgo::kQAVAT) {
    // Noisy-forward fine-tuning from the pretrained weights, at half the
    // learning rate. The pretrain is its own claim unit, trained by
    // exactly one process fleet-wide.
    const TrainUnit pre = pretrain_unit(unit.kind, unit.mcfg, data, unit.tcfg);
    produce_unit(pre, data);
    model = restore(pre, *find_model(pre.key));
    TrainConfig fine = unit.tcfg;
    fine.lr = unit.tcfg.lr * 0.5;
    counted_train(*model, data.train, TrainAlgo::kQAVAT, fine);
  } else {
    model = make_model(unit.kind, unit.mcfg);
    model->set_quant_enabled(false);
    // Same total budget as the two-phase recipe: float pretrain + float VAT.
    TrainConfig pre = unit.tcfg;
    pre.train_noise = VariabilityConfig{};
    counted_train(*model, data.train, TrainAlgo::kQAT, pre);
    TrainConfig vat = unit.tcfg;
    vat.lr = unit.tcfg.lr * 0.5;
    counted_train(*model, data.train, TrainAlgo::kQAVAT, vat);
    // Post-training quantization: MMSE weight grids; activation scales
    // were calibrated (EMA) during the float training forwards.
    model->set_quant_enabled(true);
    for (QuantLayerBase* q : model->quant_layers()) q->refresh_weight_scale();
  }
  out.trained = true;
  if (cw.saw_corrupt) store_note_retrain_after_corruption();
  publish_trained(unit, std::move(model), data.test);
  return out;  // cw's claim (if held) releases here, after the publish
}

bool unit_available(const TrainUnit& unit) {
  return find_model(unit.key) != nullptr || store_has("models", unit.key);
}

TrainedModel trained_model(const std::vector<TrainUnit>& plan,
                           const SplitDataset& data) {
  const UnitOutcome o = produce_unit(plan.back(), data);
  const StateDict& sd = *find_model(plan.back().key);
  TrainedModel out;
  out.model = restore(plan.back(), sd);
  out.clean_test_acc = *sd.find_scalar("clean_test_acc");
  out.trained = o.trained;
  out.from_store = o.from_store;
  return out;
}

ModelConfig default_model_config(ModelKind kind, index_t a_bits, index_t w_bits) {
  ModelConfig cfg;
  cfg.a_bits = a_bits;
  cfg.w_bits = w_bits;
  if (kind == ModelKind::kLeNet5s) {
    cfg.in_channels = 1;
    cfg.image_size = 12;
  } else {
    cfg.in_channels = 3;
    cfg.image_size = 16;
  }
  cfg.num_classes = 10;
  return cfg;
}

TrainConfig default_train_config(ModelKind kind) {
  TrainConfig cfg;
  cfg.lr = 3e-3;
  cfg.batch_size = 32;
  if (kind == ModelKind::kLeNet5s) {
    cfg.epochs = fast_mode() ? 2 : 5;
  } else {
    // The synthetic-image CNNs need a few epochs before accuracy leaves
    // chance level; 1 epoch would make every bench table vacuous.
    cfg.epochs = fast_mode() ? 3 : 6;
  }
  return cfg;
}

EvalConfig default_eval_config(ModelKind kind) {
  EvalConfig cfg;
  cfg.n_chips = fast_mode() ? 8 : 25;
  cfg.max_test_samples = fast_mode() ? 200 : (1 << 30);
  // Noise-batched Monte-Carlo: simulate 8 chips per forward by default
  // (identical per-chip results for any group size; see
  // eval/evaluator.h). QAVAT_CHIP_BATCH overrides.
  cfg.chip_batch = chip_batch_from_env();
  // QAVAT_EVAL_BACKEND=circuit routes every bench evaluation through the
  // tiled crossbar simulator (see eval/evaluator.h) at the default tile.
  cfg.backend = eval_backend_from_env();
  (void)kind;
  return cfg;
}

SplitDataset make_dataset_for(ModelKind kind) {
  if (kind == ModelKind::kLeNet5s) {
    SynthDigitsConfig cfg;
    cfg.n_train = fast_mode() ? 1500 : 3000;
    cfg.n_test = fast_mode() ? 300 : 500;
    return make_synth_digits(cfg);
  }
  SynthImagesConfig cfg;
  cfg.n_train = fast_mode() ? 1000 : 2500;
  cfg.n_test = fast_mode() ? 250 : 500;
  return make_synth_images(cfg);
}

}  // namespace qavat
