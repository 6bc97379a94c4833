#include "eval/scenario.h"

#include <cmath>

#include "eval/experiment.h"
#include "pim/tiling.h"

namespace qavat {

using namespace json;

const char* to_string(ScenarioAlgo a) {
  switch (a) {
    case ScenarioAlgo::kPTQVAT: return "PTQVAT";
    case ScenarioAlgo::kQAT: return "QAT";
    case ScenarioAlgo::kQAVAT: return "QAVAT";
  }
  return "?";
}

namespace {

std::string noise_token(const VariabilityConfig& v) {
  if (!v.enabled()) return "off";
  std::string s = v.model == VarianceModel::kWeightProportional ? "wp" : "lf";
  s += "w" + fmt_g(v.sigma_w) + "b" + fmt_g(v.sigma_b);
  return s;
}

const char* selftune_token(SelfTuneMode m) {
  switch (m) {
    case SelfTuneMode::kNone: return "none";
    case SelfTuneMode::kGtm: return "gtm";
    case SelfTuneMode::kGtmLtm: return "gtmltm";
  }
  return "?";
}

const char* variance_token(VarianceModel m) {
  return m == VarianceModel::kWeightProportional ? "wp" : "lf";
}

// ---------------------------------------------------------------- JSON

std::string noise_json(const VariabilityConfig& v) {
  std::string o = "{";
  json_kv(o, "model", variance_token(v.model), true);
  json_kv(o, "sigma_w", fmt_exact(v.sigma_w), false);
  json_kv(o, "sigma_b", fmt_exact(v.sigma_b), false, true);
  o += '}';
  return o;
}

bool read_noise(const Value& o, const char* name, VariabilityConfig* dst,
                std::string* err, const char* prefix = "") {
  const Value* v = o.find(name);
  if (v == nullptr) return true;
  const std::string path = std::string(prefix) + name + ".";
  if (v->kind != Value::kObj) {
    return fail_field(err, prefix, name, "expected an object");
  }
  return read_enum(*v, "model", {"wp", "lf"},
                   {VarianceModel::kWeightProportional,
                    VarianceModel::kLayerFixed},
                   &dst->model, err, path.c_str()) &&
         read_num(*v, "sigma_w", &dst->sigma_w, err, path.c_str()) &&
         read_num(*v, "sigma_b", &dst->sigma_b, err, path.c_str());
}

}  // namespace

std::string ScenarioSpec::key() const {
  std::string k = "v" + std::to_string(kScenarioSchemaVersion) + "_";
  k += to_string(model);
  k += "_A" + lld(model_cfg.a_bits) + "W" + lld(model_cfg.w_bits);
  k += "_";
  k += to_string(algo);
  k += "_m[c" + lld(model_cfg.in_channels) + "s" + lld(model_cfg.image_size) +
       "k" + lld(model_cfg.num_classes) + "i" +
       std::to_string(model_cfg.init_seed) + "]";
  k += "_tr[e" + lld(train.epochs) + "_lr" + fmt_g(train.lr) + "_bs" +
       lld(train.batch_size) + "_n" + lld(train.n_variation_samples) + "_rp" +
       (train.reparam ? "1" : "0") + "_su" +
       (train.scale_update == ScaleUpdatePolicy::kPerEpoch ? "1" : "0") +
       "_sd" + std::to_string(train.seed) + "_" + noise_token(train.train_noise) +
       "]";
  k += "_dp[" + noise_token(deploy) + "]";
  if (selftune_active()) {
    k += "_st[" + std::string(selftune_token(selftune.mode)) + "_g" +
         lld(selftune.gtm_cells) + "_l" + lld(selftune.ltm_columns) + "]";
  } else {
    k += "_st[none]";
  }
  k += "_ev[c" + lld(eval.n_chips) + "_t" + lld(eval.max_test_samples) + "_s" +
       std::to_string(eval.seed) + "_";
  if (eval.backend == EvalBackend::kCircuit) {
    // The tile grid changes which array each weight lands on and hence
    // the noise realizations: the effective tile size is part of the
    // result identity (0 resolves to the default exactly like the
    // evaluator does).
    const index_t tile =
        eval.tile_size > 0 ? eval.tile_size : kDefaultTileSize;
    k += "ckt" + lld(tile);
  } else if (eval.backend == EvalBackend::kInt8) {
    // The int8 requant grid perturbs per-chip logits relative to the
    // float weight-domain path, so its results are a distinct identity —
    // a cached weight-domain eval must never be served for an int8 run.
    k += "i8";
  } else {
    k += "wd";
  }
  k += "]";
  k += fast ? "_fast" : "_full";
  return k;
}

std::string ScenarioSpec::to_json() const {
  std::string o = "{";
  json_kv(o, "schema", std::to_string(kScenarioSchemaVersion), false);
  json_kv(o, "model", to_string(model), true);
  json_kv(o, "algo", to_string(algo), true);
  json_kv(o, "fast", fast ? "true" : "false", false);
  {
    std::string m = "{";
    json_kv(m, "a_bits", lld(model_cfg.a_bits), false);
    json_kv(m, "w_bits", lld(model_cfg.w_bits), false);
    json_kv(m, "in_channels", lld(model_cfg.in_channels), false);
    json_kv(m, "image_size", lld(model_cfg.image_size), false);
    json_kv(m, "num_classes", lld(model_cfg.num_classes), false);
    json_kv(m, "init_seed", std::to_string(model_cfg.init_seed), false, true);
    m += '}';
    json_kv(o, "model_cfg", m, false);
  }
  {
    std::string t = "{";
    json_kv(t, "epochs", lld(train.epochs), false);
    json_kv(t, "lr", fmt_exact(train.lr), false);
    json_kv(t, "batch_size", lld(train.batch_size), false);
    json_kv(t, "n_variation_samples", lld(train.n_variation_samples), false);
    json_kv(t, "reparam", train.reparam ? "true" : "false", false);
    json_kv(t, "scale_update",
            train.scale_update == ScaleUpdatePolicy::kPerEpoch ? "per_epoch"
                                                               : "init_only",
            true);
    json_kv(t, "seed", std::to_string(train.seed), false);
    json_kv(t, "noise", noise_json(train.train_noise), false, true);
    t += '}';
    json_kv(o, "train", t, false);
  }
  json_kv(o, "deploy", noise_json(deploy), false);
  {
    std::string s = "{";
    json_kv(s, "mode", selftune_token(selftune.mode), true);
    json_kv(s, "gtm_cells", lld(selftune.gtm_cells), false);
    json_kv(s, "ltm_columns", lld(selftune.ltm_columns), false, true);
    s += '}';
    json_kv(o, "selftune", s, false);
  }
  {
    std::string e = "{";
    json_kv(e, "n_chips", lld(eval.n_chips), false);
    json_kv(e, "max_test_samples", lld(eval.max_test_samples), false);
    json_kv(e, "batch_size", lld(eval.batch_size), false);
    json_kv(e, "seed", std::to_string(eval.seed), false);
    json_kv(e, "chip_batch", lld(eval.chip_batch), false);
    json_kv(e, "backend", to_string(eval.backend), true);
    json_kv(e, "tile_size", lld(eval.tile_size), false, true);
    e += '}';
    json_kv(o, "eval", e, false, true);
  }
  o += '}';
  return o;
}

bool ScenarioSpec::from_json(const std::string& text, ScenarioSpec* out,
                             std::string* error) {
  if (error != nullptr) error->clear();
  Value root;
  return parse_object(text, &root, error) && from_value(root, out, error);
}

bool ScenarioSpec::from_value(const Value& root, ScenarioSpec* out,
                              std::string* error) {
  if (error != nullptr) error->clear();
  if (root.kind != Value::kObj) {
    if (error != nullptr) *error = "expected an object";
    return false;
  }
  std::string* err = error;

  ScenarioSpec s;
  if (!read_schema(root, "schema", kScenarioSchemaVersion, err) ||
      !read_enum(root, "model", {"lenet5s", "vgg11s", "resnet18s"},
                 {ModelKind::kLeNet5s, ModelKind::kVGG11s,
                  ModelKind::kResNet18s},
                 &s.model, err) ||
      !read_enum(root, "algo", {"PTQVAT", "QAT", "QAVAT"},
                 {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT,
                  ScenarioAlgo::kQAVAT},
                 &s.algo, err) ||
      !read_bool(root, "fast", &s.fast, err)) {
    return false;
  }
  if (const Value* m = root.find("model_cfg")) {
    if (m->kind != Value::kObj) {
      return fail_field(err, "", "model_cfg", "expected an object");
    }
    if (!read_index(*m, "a_bits", &s.model_cfg.a_bits, err, "model_cfg.") ||
        !read_index(*m, "w_bits", &s.model_cfg.w_bits, err, "model_cfg.") ||
        !read_index(*m, "in_channels", &s.model_cfg.in_channels, err,
                    "model_cfg.") ||
        !read_index(*m, "image_size", &s.model_cfg.image_size, err,
                    "model_cfg.") ||
        !read_index(*m, "num_classes", &s.model_cfg.num_classes, err,
                    "model_cfg.") ||
        !read_u64(*m, "init_seed", &s.model_cfg.init_seed, err,
                  "model_cfg.")) {
      return false;
    }
  }
  if (const Value* t = root.find("train")) {
    if (t->kind != Value::kObj) {
      return fail_field(err, "", "train", "expected an object");
    }
    if (!read_index(*t, "epochs", &s.train.epochs, err, "train.") ||
        !read_num(*t, "lr", &s.train.lr, err, "train.") ||
        !read_index(*t, "batch_size", &s.train.batch_size, err, "train.") ||
        !read_index(*t, "n_variation_samples", &s.train.n_variation_samples,
                    err, "train.") ||
        !read_bool(*t, "reparam", &s.train.reparam, err, "train.") ||
        !read_u64(*t, "seed", &s.train.seed, err, "train.") ||
        !read_noise(*t, "noise", &s.train.train_noise, err, "train.") ||
        !read_enum(*t, "scale_update", {"per_epoch", "init_only"},
                   {ScaleUpdatePolicy::kPerEpoch, ScaleUpdatePolicy::kInitOnly},
                   &s.train.scale_update, err, "train.")) {
      return false;
    }
    // Training divides by its batch size.
    if (s.train.batch_size < 1) {
      return fail_field(err, "train.", "batch_size", "must be >= 1");
    }
  }
  if (!read_noise(root, "deploy", &s.deploy, err)) return false;
  if (const Value* st = root.find("selftune")) {
    if (st->kind != Value::kObj) {
      return fail_field(err, "", "selftune", "expected an object");
    }
    if (!read_enum(*st, "mode", {"none", "gtm", "gtmltm"},
                   {SelfTuneMode::kNone, SelfTuneMode::kGtm,
                    SelfTuneMode::kGtmLtm},
                   &s.selftune.mode, err, "selftune.") ||
        !read_index(*st, "gtm_cells", &s.selftune.gtm_cells, err,
                    "selftune.") ||
        !read_index(*st, "ltm_columns", &s.selftune.ltm_columns, err,
                    "selftune.")) {
      return false;
    }
  }
  if (const Value* e = root.find("eval")) {
    if (e->kind != Value::kObj) {
      return fail_field(err, "", "eval", "expected an object");
    }
    if (!read_index(*e, "n_chips", &s.eval.n_chips, err, "eval.") ||
        !read_index(*e, "max_test_samples", &s.eval.max_test_samples, err,
                    "eval.") ||
        !read_index(*e, "batch_size", &s.eval.batch_size, err, "eval.") ||
        !read_u64(*e, "seed", &s.eval.seed, err, "eval.") ||
        !read_index(*e, "chip_batch", &s.eval.chip_batch, err, "eval.") ||
        !read_index(*e, "tile_size", &s.eval.tile_size, err, "eval.") ||
        !read_enum(*e, "backend", {"weight_domain", "circuit", "int8"},
                   {EvalBackend::kWeightDomain, EvalBackend::kCircuit,
                    EvalBackend::kInt8},
                   &s.eval.backend, err, "eval.")) {
      return false;
    }
    // No chips means no accuracy to publish.
    if (s.eval.n_chips < 1) {
      return fail_field(err, "eval.", "n_chips", "must be >= 1");
    }
  }
  *out = std::move(s);
  return true;
}

ScenarioSpec ScenarioSpec::base(ModelKind kind, index_t a_bits, index_t w_bits,
                                ScenarioAlgo algo) {
  ScenarioSpec s;
  s.model = kind;
  s.model_cfg = default_model_config(kind, a_bits, w_bits);
  s.algo = algo;
  s.train = default_train_config(kind);
  s.eval = default_eval_config(kind);
  s.fast = fast_mode();
  return s;
}

ScenarioSpec ScenarioSpec::within(ModelKind kind, index_t a_bits,
                                  index_t w_bits, ScenarioAlgo algo,
                                  VarianceModel vm, double sigma) {
  ScenarioSpec s = base(kind, a_bits, w_bits, algo);
  s.deploy = VariabilityConfig::within_only(vm, sigma);
  s.train.train_noise = VariabilityConfig::within_only(vm, sigma);
  return s;
}

ScenarioSpec ScenarioSpec::mixed(ModelKind kind, index_t a_bits, index_t w_bits,
                                 ScenarioAlgo algo, VarianceModel vm,
                                 double sigma_tot) {
  ScenarioSpec s = base(kind, a_bits, w_bits, algo);
  s.deploy = VariabilityConfig::mixed(vm, sigma_tot);
  // §III.B deployment recipe: train with the within component only.
  s.train.train_noise =
      VariabilityConfig::within_only(vm, sigma_tot / std::sqrt(2.0));
  return s;
}

ScenarioSpec& ScenarioSpec::with_selftune(SelfTuneMode mode, index_t gtm_cells,
                                          index_t ltm_columns) {
  selftune.mode = mode;
  selftune.gtm_cells = gtm_cells;
  selftune.ltm_columns = ltm_columns;
  return *this;
}

}  // namespace qavat
