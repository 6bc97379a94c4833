#include "eval/experiment.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "eval/store.h"

namespace qavat {

bool fast_mode() {
  static const bool fast = [] {
    const char* v = std::getenv("QAVAT_FAST");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return fast;
}

namespace {

struct ModelSnapshot {
  ModelKind kind;
  ModelConfig cfg;
  std::vector<std::vector<float>> params;
  std::vector<float> weight_scales;
  std::vector<float> act_scales;
  std::vector<bool> quant_enabled;
  double clean_test_acc = 0.0;
};

std::map<std::string, double>& result_cache() {
  static std::map<std::string, double> cache;
  return cache;
}

std::map<std::string, EvalStats>& eval_cache() {
  static std::map<std::string, EvalStats> cache;
  return cache;
}

std::map<std::string, ModelSnapshot>& model_cache() {
  static std::map<std::string, ModelSnapshot> cache;
  return cache;
}

index_t& training_runs_counter() {
  static index_t runs = 0;
  return runs;
}

// All cached training funnels through here so training_runs() counts
// every phase — the observable the CI warm-store gate asserts is zero.
TrainResult counted_train(Module& model, const Dataset& data, TrainAlgo algo,
                          const TrainConfig& cfg) {
  ++training_runs_counter();
  return train(model, data, algo, cfg);
}

// Persist a trained model (plus its clean accuracy) under `key`;
// fail-soft, the store warns once on unwritable paths.
void persist_model(const std::string& key, Module& model, double clean_acc) {
  StateDict sd = module_state_dict(model);
  sd.add_scalar("clean_test_acc", clean_acc);
  store_save_state("models", key, sd);
}

// Store probe for a trained model: returns the materialized Module (and
// clean accuracy) on a valid artifact matching (kind, cfg), nullptr
// otherwise — any mismatch or corruption reads as a miss and the caller
// retrains (overwriting the bad artifact).
struct LoadedModel {
  std::unique_ptr<Module> model;
  double clean_test_acc = 0.0;
};

LoadedModel load_model_from_store(const std::string& key, ModelKind kind,
                                  const ModelConfig& cfg,
                                  StoreLoadOutcome* outcome = nullptr) {
  LoadedModel out;
  StateDict sd;
  if (!store_load_state("models", key, &sd, outcome)) return out;
  const double* acc = sd.find_scalar("clean_test_acc");
  if (acc == nullptr) return out;
  auto model = make_model(kind, cfg);
  if (!load_module_state(*model, sd)) return out;
  out.model = std::move(model);
  out.clean_test_acc = *acc;
  return out;
}

ModelSnapshot snapshot(Module& model, double clean_acc) {
  ModelSnapshot s;
  s.kind = model.kind();
  s.cfg = model.config();
  for (Param* p : model.parameters()) {
    s.params.emplace_back(p->value.data(), p->value.data() + p->value.size());
  }
  for (QuantLayerBase* q : model.quant_layers()) {
    s.weight_scales.push_back(q->weight_scale());
    s.act_scales.push_back(q->act_quantizer().scale());
    s.quant_enabled.push_back(q->quant_enabled());
  }
  s.clean_test_acc = clean_acc;
  return s;
}

std::unique_ptr<Module> restore(const ModelSnapshot& s) {
  auto model = make_model(s.kind, s.cfg);
  auto params = model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* dst = params[i]->value.data();
    for (std::size_t j = 0; j < s.params[i].size(); ++j) dst[j] = s.params[i][j];
  }
  auto qs = model->quant_layers();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i]->set_weight_scale(s.weight_scales[i]);
    qs[i]->act_quantizer().set_scale(s.act_scales[i]);
    qs[i]->set_quant_enabled(s.quant_enabled[i]);
  }
  model->set_training(false);
  return model;
}

std::string noise_key(const VariabilityConfig& v) {
  std::ostringstream os;
  os << (v.model == VarianceModel::kWeightProportional ? "wp" : "lf") << "_"
     << v.sigma_w << "_" << v.sigma_b;
  return os.str();
}

}  // namespace

std::string train_cache_key(ModelKind kind, const ModelConfig& mcfg,
                            const char* algo, const SplitDataset& data,
                            const TrainConfig& tcfg) {
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

namespace {

// Local alias: the public name is train_cache_key (eval/experiment.h);
// the cache bodies below predate the export and read better short.
inline std::string train_key(ModelKind kind, const ModelConfig& mcfg,
                             const char* algo, const SplitDataset& data,
                             const TrainConfig& tcfg) {
  return train_cache_key(kind, mcfg, algo, data, tcfg);
}

}  // namespace

double with_result_cache(const std::string& key,
                         const std::function<double()>& fn) {
  auto& cache = result_cache();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  double loaded = 0.0;
  ClaimWait cw = claim_or_load("results", key, [&](StoreLoadOutcome* o) {
    std::vector<double> persisted;
    if (!store_load_doubles("results", key, &persisted, o) ||
        persisted.size() != 1) {
      return false;
    }
    loaded = persisted[0];
    return true;
  });
  if (cw.loaded) {
    cache.emplace(key, loaded);
    return loaded;
  }
  const double value = fn();
  if (cw.saw_corrupt) store_note_retrain_after_corruption();
  cache.emplace(key, value);
  store_save_doubles("results", key, {value});
  return value;  // cw's claim (if held) releases here, after the publish
}

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
  result_cache().clear();
  eval_cache().clear();
  model_cache().clear();
  if (drop_disk) store_drop_all();
}

index_t training_runs() { return training_runs_counter(); }

TrainedModel train_cached(ModelKind kind, const ModelConfig& mcfg, TrainAlgo algo,
                          const SplitDataset& data, const TrainConfig& tcfg) {
  const std::string key = train_key(kind, mcfg, to_string(algo), data, tcfg);
  auto& cache = model_cache();
  TrainedModel out;
  auto it = cache.find(key);
  if (it == cache.end()) {
    // The fine-tuned artifact is its own claim unit: only kQAVAT with
    // training noise publishes under `key` — kQAT (and noise-free
    // kQAVAT) degenerate to the pretrain phase, whose artifact lives
    // under pre_key, so waiting on `key` for them would never end.
    const bool wants_finetune =
        algo == TrainAlgo::kQAVAT && tcfg.train_noise.enabled();
    StoreClaim key_claim;
    bool key_corrupt = false;
    if (wants_finetune) {
      // Read-through with the work-claim protocol: probe the disk store
      // for the finished model, and on a miss either claim the right to
      // train it or wait for the process that already did (DESIGN §14).
      ClaimWait cw = claim_or_load("models", key, [&](StoreLoadOutcome* o) {
        LoadedModel loaded = load_model_from_store(key, kind, mcfg, o);
        if (loaded.model == nullptr) return false;
        cache.emplace(key, snapshot(*loaded.model, loaded.clean_test_acc));
        out.clean_test_acc = loaded.clean_test_acc;
        out.model = std::move(loaded.model);
        out.from_store = true;
        return true;
      });
      if (cw.loaded) return out;
      key_claim = std::move(cw.claim);
      key_corrupt = cw.saw_corrupt;
    }
    // Phase 1: QAT pretraining, cached under its own (noise-free) key so
    // QAT and every QAVAT variant of the same workload share it — its
    // own claim unit, trained by exactly one process fleet-wide.
    TrainConfig pre = tcfg;
    pre.train_noise = VariabilityConfig{};
    pre.n_variation_samples = 1;
    const std::string pre_key = train_key(kind, mcfg, "QAT", data, pre);
    bool pre_from_store = false;
    auto pre_it = cache.find(pre_key);
    if (pre_it == cache.end()) {
      ClaimWait cw = claim_or_load("models", pre_key, [&](StoreLoadOutcome* o) {
        LoadedModel l = load_model_from_store(pre_key, kind, mcfg, o);
        if (l.model == nullptr) return false;
        pre_from_store = true;
        pre_it =
            cache.emplace(pre_key, snapshot(*l.model, l.clean_test_acc)).first;
        return true;
      });
      if (!cw.loaded) {
        auto model = make_model(kind, mcfg);
        counted_train(*model, data.train, TrainAlgo::kQAT, pre);
        out.trained = true;
        if (cw.saw_corrupt) store_note_retrain_after_corruption();
        const double acc = evaluate_clean(*model, data.test);
        pre_it = cache.emplace(pre_key, snapshot(*model, acc)).first;
        persist_model(pre_key, *model, acc);
        // cw's pre_key claim releases here, after the publish.
      }
    }
    if (wants_finetune) {
      // Phase 2: noisy-forward fine-tuning from the pretrained weights.
      auto model = restore(pre_it->second);
      TrainConfig fine = tcfg;
      fine.lr = tcfg.lr * 0.5;
      counted_train(*model, data.train, TrainAlgo::kQAVAT, fine);
      out.trained = true;
      if (key_corrupt) store_note_retrain_after_corruption();
      const double acc = evaluate_clean(*model, data.test);
      it = cache.emplace(key, snapshot(*model, acc)).first;
      persist_model(key, *model, acc);
      key_claim.release();  // publish done: waiters load the artifact now
    } else {
      // The alias stays memory-only — a warm run re-reaches the
      // pretrained artifact through pre_key without training. (For plain
      // kQAT, key == pre_key and this emplace finds the existing entry.)
      it = cache.emplace(key, pre_it->second).first;
      out.from_store = pre_from_store;
    }
  }
  out.model = restore(it->second);
  out.clean_test_acc = it->second.clean_test_acc;
  return out;
}

TrainedModel train_ptq_vat_cached(ModelKind kind, const ModelConfig& mcfg,
                                  const SplitDataset& data,
                                  const TrainConfig& tcfg) {
  const std::string key = train_key(kind, mcfg, "PTQVAT", data, tcfg);
  auto& cache = model_cache();
  TrainedModel out;
  auto it = cache.find(key);
  if (it == cache.end()) {
    ClaimWait cw = claim_or_load("models", key, [&](StoreLoadOutcome* o) {
      LoadedModel loaded = load_model_from_store(key, kind, mcfg, o);
      if (loaded.model == nullptr) return false;
      cache.emplace(key, snapshot(*loaded.model, loaded.clean_test_acc));
      out.clean_test_acc = loaded.clean_test_acc;
      out.model = std::move(loaded.model);
      out.from_store = true;
      return true;
    });
    if (cw.loaded) return out;
    auto model = make_model(kind, mcfg);
    model->set_quant_enabled(false);
    // Same total budget as the two-phase recipe: float pretrain + float VAT.
    TrainConfig pre = tcfg;
    pre.train_noise = VariabilityConfig{};
    counted_train(*model, data.train, TrainAlgo::kQAT, pre);
    TrainConfig vat = tcfg;
    vat.lr = tcfg.lr * 0.5;
    counted_train(*model, data.train, TrainAlgo::kQAVAT, vat);
    out.trained = true;
    // Post-training quantization: MMSE weight grids; activation scales
    // were calibrated (EMA) during the float training forwards.
    model->set_quant_enabled(true);
    for (QuantLayerBase* q : model->quant_layers()) q->refresh_weight_scale();
    if (cw.saw_corrupt) store_note_retrain_after_corruption();
    const double acc = evaluate_clean(*model, data.test);
    it = cache.emplace(key, snapshot(*model, acc)).first;
    persist_model(key, *model, acc);
    // cw's claim (if held) releases at scope exit, after the publish.
  }
  out.model = restore(it->second);
  out.clean_test_acc = it->second.clean_test_acc;
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
  // (identical per-chip results to sequential evaluation; see
  // eval/evaluator.h). QAVAT_CHIP_BATCH overrides, 1 = sequential.
  static const index_t chip_batch = [] {
    const char* v = std::getenv("QAVAT_CHIP_BATCH");
    if (v != nullptr && v[0] != '\0') {
      const long n = std::strtol(v, nullptr, 10);
      if (n > 0) return static_cast<index_t>(n);
    }
    return index_t{8};
  }();
  cfg.chip_batch = chip_batch;
  // QAVAT_EVAL_BACKEND=circuit routes every bench evaluation through the
  // tiled crossbar simulator (sequential; see eval/evaluator.h). The
  // tile size stays 0 here so the evaluator resolves QAVAT_TILE_SIZE.
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
