// Declarative experiment descriptor. A ScenarioSpec is the plain-data
// record of one full experiment point — model kind and bit widths,
// training recipe (algorithm, noise, sampling, seeds), deployment
// variability, self-tuning configuration, and the Monte-Carlo evaluation
// protocol (chips, samples, seed, backend) — everything that determines
// the numbers a bench prints. Its canonical key() is the cache/store
// identity replacing the hand-built strings benches used to key their
// cached results with, and to_json()/from_json() give a lossless
// round-trip so specs can be saved, diffed and replayed.
//
// Knobs that provably do not change results (chip_batch, eval batch
// size, thread counts — the DESIGN.md §7–8 bit-identity contracts) are
// deliberately excluded from the key, so a warm store hit is reached
// from any execution schedule.
#pragma once

#include <string>

#include "core/selftune/selftune.h"
#include "core/train/trainer.h"
#include "eval/evaluator.h"
#include "tensor/json.h"

namespace qavat {

/// Key-schema version baked into every ScenarioSpec key; bump when the
/// key format (or the meaning of any keyed field) changes so persisted
/// artifacts from older schemas can never be misread as current ones.
inline constexpr int kScenarioSchemaVersion = 1;

/// Training algorithm of a scenario. Extends TrainAlgo with the paper's
/// PTQ-VAT baseline (float VAT training + post-training quantization),
/// which the experiment layer trains through its own recipe.
enum class ScenarioAlgo { kPTQVAT, kQAT, kQAVAT };

/// Stable lowercase-free token used in keys and JSON ("PTQVAT", "QAT",
/// "QAVAT").
const char* to_string(ScenarioAlgo a);

/// Plain-data descriptor of one experiment point. Build with the named
/// constructors (which fill workload defaults from eval/experiment.h and
/// encode the paper's deployment recipes), then tweak fields directly.
struct ScenarioSpec {
  ModelKind model = ModelKind::kLeNet5s;  ///< model zoo entry
  ModelConfig model_cfg;                  ///< bits + geometry + init seed
  ScenarioAlgo algo = ScenarioAlgo::kQAVAT;  ///< training algorithm
  TrainConfig train;            ///< full recipe incl. train noise + seed
  VariabilityConfig deploy;     ///< deployment env; disabled = clean only
  SelfTuneConfig selftune{SelfTuneMode::kNone, 1000, 1};  ///< off by default
  EvalConfig eval;              ///< Monte-Carlo protocol + backend
  bool fast = false;            ///< budgets the spec was built under
                                ///< (QAVAT_FAST); part of the key so smoke
                                ///< artifacts never collide with full runs

  /// True when the spec requests an inference-time self-tuning module.
  bool selftune_active() const { return selftune.mode != SelfTuneMode::kNone; }

  /// Canonical, stable, space-free cache/store key. Schema-versioned
  /// ("v1_..."), suffixed "_fast"/"_full", and excluding the
  /// result-invariant execution knobs (chip_batch, eval batch size).
  std::string key() const;

  /// Lossless JSON encoding (doubles printed with round-trip precision).
  std::string to_json() const;

  /// Parse a to_json() document. Returns false — leaving *out untouched —
  /// on malformed JSON, an unknown enum token or a schema-version
  /// mismatch. Absent optional fields keep their defaults. On failure
  /// `*error` (optional) names the offending field and what was wrong
  /// with it (e.g. "train.lr: expected a number", "algo: unknown token
  /// 'QVT'"), so manifest validation can point at the exact field.
  static bool from_json(const std::string& text, ScenarioSpec* out,
                        std::string* error = nullptr);

  /// Decode an already-parsed document, with from_json's contract; a
  /// non-object fails with "expected an object". Documents that embed
  /// specs (manifests, fleet studies) parse once and decode each
  /// embedded spec from its value.
  static bool from_value(const json::Value& root, ScenarioSpec* out,
                         std::string* error = nullptr);

  /// Workload defaults for (kind, bits, algo): default model/train/eval
  /// configs, no deployment noise (clean-accuracy scenario), fast flag
  /// from the environment.
  static ScenarioSpec base(ModelKind kind, index_t a_bits, index_t w_bits,
                           ScenarioAlgo algo);

  /// base() + within-chip-only deployment at `sigma`, trained with
  /// matching within-chip sampling (the recipe every within-chip bench
  /// row uses; QAT/PTQ-VAT scenarios carry the same train config so the
  /// pretraining phase is shared across algorithms).
  static ScenarioSpec within(ModelKind kind, index_t a_bits, index_t w_bits,
                             ScenarioAlgo algo, VarianceModel vm, double sigma);

  /// base() + mixed-type deployment at `sigma_tot` (equal within/between
  /// components in quadrature), trained per the paper's self-tuning
  /// recipe: within-chip sampling only, at sigma_tot / sqrt(2).
  static ScenarioSpec mixed(ModelKind kind, index_t a_bits, index_t w_bits,
                            ScenarioAlgo algo, VarianceModel vm,
                            double sigma_tot);

  /// Fluent self-tuning setter: `spec.with_selftune(proper_mode(vm))`.
  ScenarioSpec& with_selftune(SelfTuneMode mode, index_t gtm_cells = 1000,
                              index_t ltm_columns = 1);
};

}  // namespace qavat
