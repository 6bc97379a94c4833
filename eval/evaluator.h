// Deployment evaluation. The weight-domain abstraction injects
// variability directly on each quant layer's effective weights (fast);
// the circuit backend programs the same weights onto tiled crossbar
// arrays (pim/tiling.h) and routes every analog MVM through the
// simulator (faithful). bench_pim_equivalence validates that the two
// agree statistically.
//
//  * evaluate_clean — noise-free test accuracy.
//  * evaluate_under_variability — Monte-Carlo over simulated chips: one
//    correlated eps_B draw per chip shared by all layers, iid within-chip
//    draws per layer, optional self-tuning correction (GTM measurement
//    error and LTM readout error included). Returns accuracy stats across
//    chips.
//
//    Determinism contract: chip c's realization is drawn from
//    Rng(seed, c) — explicit in the chip index, never in evaluation
//    order — and the circuit backend's PimChip(seed, c) shares that
//    identity, so per-chip accuracies are bit-identical for every thread
//    count and chip_batch, and both backends see the same per-chip eps_B.
//
// The chip-lane engine, shared with the fleet's lifetime steps
// (eval/fleet.h): ChipLanes splits the chips into one contiguous range
// per pool thread, each on its own clone_model replica; within a lane,
// sample_chip_group realizes `chip_batch` chips in the noise slots and
// score_chips (core/train/trainer.h) scores them through one chip-major
// noise-batched forward per test chunk.
//
// Thread-safety: evaluate_under_variability only reads the caller's
// model — every lane drives its own clone — so the model must not be
// mutated (trained, re-scaled) by another thread during the call.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/models/models.h"
#include "core/selftune/selftune.h"
#include "core/train/trainer.h"  // evaluate_clean lives at the train layer
#include "core/variability/drift.h"
#include "data/synth.h"

namespace qavat {

/// Accuracy summary over a population (all values in [0, 1]).
struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Population stats of `xs` (stddev is the population form, /N).
  static Stats from(const std::vector<double>& xs);
};

/// Result of a Monte-Carlo deployment evaluation.
struct EvalStats {
  Stats accuracy;      ///< accuracy distribution across simulated chips
  index_t n_chips = 0; ///< number of chips simulated
  std::vector<double> per_chip_acc;  ///< accuracy of each simulated chip,
                                     ///< in chip-index order
};

/// How the Monte-Carlo evaluator realizes a simulated chip.
enum class EvalBackend {
  /// Inject variability directly on each layer's effective weights and
  /// run the normal GEMM forward (fast; supports chip batching).
  kWeightDomain,
  /// Program each layer's quantized weights across tiled <= 512x512
  /// crossbar arrays (EvalConfig::tile_size) on a simulated PimChip and
  /// route every analog MVM through the circuit simulator; the self-tuning
  /// eps_hat comes from real per-array GTM spare columns. One chip at a
  /// time within each chip lane (chip_batch is ignored; lanes program
  /// their chips concurrently) and O(arrays) programming per chip — meant
  /// for small models and validation runs (DESIGN.md §10).
  kCircuit,
  /// Weight-domain chip realizations (same Rng(seed, chip) draws and
  /// chip-batching as kWeightDomain) with every analog MVM routed through
  /// the s8 x s8 -> s32 integer fast path: each chip's effective weights
  /// are re-quantized once into cached int8 planes and multiplied against
  /// the layer's integer activation codes (core/quant/int8_backend.h,
  /// DESIGN.md §12). Not faster on the paper grid: one cold pass over
  /// the 18 Table-II specs of perfbench's table2_deploy (4-vCPU Xeon,
  /// QAVAT_THREADS=4, median of 15) takes 2.19 s here against 1.36 s for
  /// kWeightDomain and 1.37 s for kCircuit. Accuracies match
  /// kWeightDomain exactly on the noise-free grid and within a benched
  /// epsilon under injected variability.
  kInt8,
};

/// Stable lowercase name of a backend ("weight_domain", "circuit",
/// "int8") — the same tokens QAVAT_EVAL_BACKEND and the scenario JSON
/// use.
const char* to_string(EvalBackend backend);

/// QAVAT_EVAL_BACKEND as an EvalBackend: exactly "weight_domain",
/// "circuit" or "int8"; unset, empty or anything else (which warns once
/// per process) is kWeightDomain. Re-read from the environment on EVERY
/// call (tests flip the variable between scenarios). Applied by
/// default_eval_config(), not by evaluate_under_variability.
EvalBackend eval_backend_from_env();

/// QAVAT_CHIP_BATCH as a chip-group size: an integer >= 1, else (with
/// the tensor/env.h warning) the default 8. Re-read from the environment
/// on EVERY call. Applied by default_eval_config() and by fleet lifetime
/// studies (eval/fleet.h); result-invariant, so never part of a store
/// key.
index_t chip_batch_from_env();

/// Monte-Carlo evaluation protocol. All counts are per evaluation call.
struct EvalConfig {
  index_t n_chips = 25;                ///< simulated chips
  index_t max_test_samples = 1 << 30;  ///< cap on evaluated test samples
  index_t batch_size = 64;             ///< test rows per forward, shared
                                       ///< by the concurrent chip lanes
  std::uint64_t seed = 1000;           ///< chip Monte-Carlo seed
  index_t chip_batch = 0;  ///< chips per noise-batched forward; 0 = default
                           ///< (8), 1 = one chip per forward.
                           ///< Any value yields identical per-chip results.
                           ///< Groups never span two chip lanes. Ignored
                           ///< by the circuit backend (one chip at a time
                           ///< per lane).
  EvalBackend backend = EvalBackend::kWeightDomain;  ///< chip realization
  index_t tile_size = 0;   ///< circuit backend: max crossbar side length;
                           ///< 0 = kDefaultTileSize (512)
};

/// The chip-group sampler: prepare_noise_group for `nb` chips, then chips
/// [chip0, chip0 + nb) into slots 0..nb-1 from a nested parallel_for.
/// Chip c draws from Rng(seed, c): chip eps_B, GTM measurement, then per
/// layer the within-chip field, layer eps_B and LTM error; sigma_b == 0
/// and no tuning (st null or kNone) draw nothing. So a chip's realization
/// never depends on its group or slot.
void sample_chip_group(const std::vector<QuantLayerBase*>& qlayers,
                       const VariabilityConfig& vcfg, std::uint64_t seed,
                       const SelfTuneConfig* st, index_t chip0, index_t nb,
                       bool activate, CorrectionKind correction);

/// The chip-lane split: L = min(num_threads(), n_chips) lanes, lane l
/// owning chips [l*n/L, (l+1)*n/L) on its own clone_model replica (own
/// NoiseState, Workspace and backends), so `model`, which must outlive
/// the lanes, is only read. Each lane clones its replica on the first
/// run() and reuses it after.
class ChipLanes {
 public:
  ChipLanes(const Module& model, index_t n_chips);

  index_t size() const { return static_cast<index_t>(replicas_.size()); }

  /// fn(replica, c0, c1) for every lane, as one outer parallel_for; the
  /// lane's own dispatches nest under it.
  void run(const std::function<void(Module&, index_t, index_t)>& fn);

 private:
  const Module& model_;
  index_t n_chips_;
  std::vector<std::unique_ptr<Module>> replicas_;
};

/// Monte-Carlo deployment accuracy of `model` under `vcfg` variability,
/// optionally with inference-time self-tuning `st`. See the protocol
/// notes at the top of this header.
EvalStats evaluate_under_variability(Module& model, const Dataset& test,
                                     const VariabilityConfig& vcfg,
                                     const EvalConfig& ecfg,
                                     const SelfTuneConfig* st = nullptr);

}  // namespace qavat
