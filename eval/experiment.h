// Experiment harness shared by all bench binaries: workload defaults per
// model kind, a process-wide model cache (training is the expensive step
// and many tables reuse the same trained model), a cache for Monte-Carlo
// evaluations, and the QAVAT_FAST=1 switch that shrinks every budget for
// smoke testing.
//
// Both caches are read-through layers over the on-disk artifact store
// (eval/store.h): a miss probes the store before computing, and every
// computed artifact is persisted, so a warm second run of any bench
// loads its trained models and Monte-Carlo results bit-identically
// instead of recomputing them. QAVAT_STORE=0 restores the old
// in-process-only behavior.
//
// Misses go through the store's work-claim protocol (DESIGN.md §14):
// the cache claims the right to produce the artifact, trains/evaluates,
// publishes, and releases — while waiters back off until the artifact
// appears (or the lease goes stale and is reclaimed). N concurrent
// processes sharing one store therefore train each unit exactly once.
// A corrupt artifact is quarantined by the store and recomputed here,
// counting toward StoreStats::retrains_after_corruption — corruption is
// healed, never served and never fatal.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/selftune/selftune.h"
#include "core/train/trainer.h"
#include "data/synth.h"
#include "eval/evaluator.h"
#include "eval/scenario.h"

namespace qavat {

/// The QAVAT_FAST flag (default 0; tensor/env.h rules), read once per
/// process: smaller datasets, fewer epochs, fewer Monte-Carlo chips.
bool fast_mode();

/// Memoize a full Monte-Carlo evaluation under `key`: the per-chip
/// accuracy vector persists (memory, then disk store) and the summary
/// stats are recomputed from it, so a warm hit reproduces the cold
/// EvalStats bit-identically. `*computed` (optional) reports whether fn
/// actually ran.
EvalStats with_eval_cache(const std::string& key,
                          const std::function<EvalStats()>& fn,
                          bool* computed = nullptr);

/// Drop all cached results and models (mainly for tests). With
/// `drop_disk`, also delete this schema's subtree of the on-disk store.
void clear_experiment_caches(bool drop_disk = false);

/// Number of train() invocations this process has executed through the
/// cached training entry points (QAT pretraining, QAVAT fine-tuning and
/// the PTQ-VAT phases each count once). A fully warm-store run stays at
/// 0 — the property the CI cold/warm gate asserts. Safe to read while
/// training lanes run.
index_t training_runs();

struct TrainedModel {
  std::unique_ptr<Module> model;
  double clean_test_acc = 0.0;
  bool trained = false;     ///< this call ran at least one train() phase
  bool from_store = false;  ///< requested model was loaded from disk
};

/// One cached training unit: the model artifact one recipe phase
/// produces, under its model-cache/store key — the claim unit the
/// work-claim protocol serializes producers on.
struct TrainUnit {
  std::string key;  ///< canonical model-cache/store key
  ModelKind kind = ModelKind::kLeNet5s;  ///< model zoo entry
  ModelConfig mcfg;                      ///< bits + geometry + init seed
  /// kQAT: the QAT pretrain (train noise cleared, one variation
  /// sample); kQAVAT: the noisy fine-tune of that pretrain at half the
  /// learning rate; kPTQVAT: float pretrain + float VAT + post-training
  /// quantization, one artifact.
  ScenarioAlgo algo = ScenarioAlgo::kQAT;
  TrainConfig tcfg;  ///< the config the key derives from
};

/// The one plan of a model request: its training units in production
/// order. kPTQVAT yields [PTQ-VAT]; kQAVAT with training noise yields
/// [QAT pretrain, QAVAT fine-tune]; kQAT and noise-free kQAVAT yield
/// [QAT pretrain]. The pretrain key ignores the train noise, so every
/// algorithm of one workload shares it. The last unit is the requested
/// model. trained_model, Session::claim_units and Session::run_all all
/// consume this plan.
std::vector<TrainUnit> training_units(ModelKind kind, const ModelConfig& mcfg,
                                      ScenarioAlgo algo,
                                      const SplitDataset& data,
                                      const TrainConfig& tcfg);

/// What produce_unit did to make a unit's model available.
struct UnitOutcome {
  bool trained = false;     ///< ran train() (a fine-tune counts its own
                            ///< phase; an inline pretrain is included)
  bool from_store = false;  ///< loaded the unit's artifact from the store
};

/// Make `unit`'s model available in the model cache: a memory hit, a
/// store load, or training under the work-claim protocol (then publish
/// to memory and store). A fine-tune whose pretrain is not cached yet
/// produces the pretrain first, inline. The clean test accuracy is
/// measured on a fresh restore of the trained model, after the
/// training model and its batch caches are freed. Thread-safe for
/// distinct units: training lanes call it concurrently.
UnitOutcome produce_unit(const TrainUnit& unit, const SplitDataset& data);

/// True when producing `unit` would train nothing: its model is in the
/// memory cache or published in the store. Advisory, like any store
/// probe — a corrupt artifact still makes produce_unit train.
bool unit_available(const TrainUnit& unit);

/// The requested (last) unit of `plan` as a private clone, produced
/// through produce_unit, with the provenance of producing it. Callers
/// may mutate or reset the model freely. kPTQVAT plans give the paper's
/// "VAT" baseline: variability-aware training of the *float* model, then
/// post-training quantization with MMSE scales.
TrainedModel trained_model(const std::vector<TrainUnit>& plan,
                           const SplitDataset& data);

ModelConfig default_model_config(ModelKind kind, index_t a_bits, index_t w_bits);
TrainConfig default_train_config(ModelKind kind);
EvalConfig default_eval_config(ModelKind kind);
SplitDataset make_dataset_for(ModelKind kind);

}  // namespace qavat
