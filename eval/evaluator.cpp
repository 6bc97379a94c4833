#include "eval/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>

#include "core/quant/int8_backend.h"
#include "pim/tiling.h"
#include "tensor/env.h"
#include "tensor/parallel_for.h"

namespace qavat {

Stats Stats::from(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  double sum = 0.0;
  s.min = s.max = xs[0];
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return s;
}

void sample_chip_group(const std::vector<QuantLayerBase*>& qlayers,
                       const VariabilityConfig& vcfg, std::uint64_t seed,
                       const SelfTuneConfig* st, index_t chip0, index_t nb,
                       bool activate, CorrectionKind correction) {
  prepare_noise_group(qlayers, nb, vcfg.model, activate, correction);
  const bool tune = st != nullptr && st->mode != SelfTuneMode::kNone;
  // Slot-pure after the prologue: chip chip0 + s writes only slot s's eps
  // slice and eps_b/eps_hat/ltm_err entries, so the slots fill
  // concurrently (a pool job nested under the caller's lane).
  parallel_for(index_t{0}, nb, index_t{1}, [&](index_t s0, index_t s1) {
    for (index_t slot = s0; slot < s1; ++slot) {
      Rng rng(seed, static_cast<std::uint64_t>(chip0 + slot));
      const double eps_b =
          vcfg.sigma_b > 0.0 ? rng.normal(0.0, vcfg.sigma_b) : 0.0;
      const double eps_hat =
          tune ? measure_eps_b(eps_b, vcfg.sigma_w, st->gtm_cells, rng) : 0.0;
      const auto s = static_cast<std::size_t>(slot);
      for (QuantLayerBase* q : qlayers) {
        sample_variability_slot_draws(*q, vcfg, rng, slot);
        NoiseState& ns = q->noise_state();
        ns.eps_b[s] = static_cast<float>(eps_b);
        if (tune) {
          ns.eps_hat[s] = static_cast<float>(eps_hat);
          ns.ltm_err[s] = static_cast<float>(
              ltm_readout_error(vcfg.sigma_w, st->ltm_columns, rng));
        }
      }
    }
  });
}

ChipLanes::ChipLanes(const Module& model, index_t n_chips)
    : model_(model),
      n_chips_(n_chips),
      replicas_(static_cast<std::size_t>(std::min(num_threads(), n_chips))) {}

void ChipLanes::run(const std::function<void(Module&, index_t, index_t)>& fn) {
  const index_t lanes = size();
  parallel_for(index_t{0}, lanes, index_t{1}, [&](index_t l0, index_t l1) {
    for (index_t l = l0; l < l1; ++l) {
      std::unique_ptr<Module>& replica = replicas_[static_cast<std::size_t>(l)];
      if (!replica) replica = clone_model(model_);
      fn(*replica, l * n_chips_ / lanes, (l + 1) * n_chips_ / lanes);
    }
  });
}

namespace {

constexpr index_t kDefaultChipBatch = 8;

// Circuit-level lane: chip c is a PimChip(seed, c) — the same Rng identity
// as the weight-domain draw, so both backends realize the same per-chip
// eps_B — whose programming noise lives in the tiled crossbar
// conductances instead of NoiseState::eps. Each quant layer's quantized
// weights program one TiledCrossbarLayer (<= tile x tile arrays with
// per-array GTM spare columns when self-tuning) installed as the layer's
// AnalogBackend; the forward then runs the normal pipeline with every
// analog MVM routed through pim/. Chips run one at a time within the
// lane (programming per chip dominates, so the noise-batch axis would
// not pay); lanes program their chips concurrently.
void evaluate_circuit_lane(Module& replica, const Dataset& test,
                           const std::vector<index_t>& rows,
                           const VariabilityConfig& vcfg,
                           const EvalConfig& ecfg, const SelfTuneConfig* st,
                           index_t c0, index_t c1, index_t lane_rows,
                           index_t* hits) {
  auto qlayers = replica.quant_layers();
  const index_t tile =
      ecfg.tile_size > 0 ? ecfg.tile_size : kDefaultTileSize;
  CrossbarConfig ccfg;
  ccfg.variability = vcfg;
  // Periphery stays ideal: DAC/ADC precision is already modeled digitally
  // by the activation/weight quantizers in the layer pipeline; modeling
  // it twice would double-count the converter error.
  const bool tune = st != nullptr && st->mode != SelfTuneMode::kNone;
  if (tune) {
    // GTM size is set by tile geometry here (one spare column of
    // array-rows cells per array), so a SelfTuneConfig::gtm_cells sweep
    // under this backend would silently evaluate the same estimator at
    // every point — say so once rather than publish a flat "sweep".
    // Only a non-default value signals a deliberate sweep; the default
    // stays silent so normal tuned runs do not train users to ignore it.
    // Concurrent lanes reach this, so the once-flag is an atomic.
    static std::atomic<bool> warned{false};
    if (st->gtm_cells != SelfTuneConfig{}.gtm_cells && !warned.exchange(true)) {
      std::fprintf(stderr,
                   "qavat: circuit backend derives GTM cells from tile "
                   "geometry; SelfTuneConfig::gtm_cells (%lld) is ignored\n",
                   static_cast<long long>(st->gtm_cells));
    }
  }

  // The programmed (quantize-dequantized) weights are chip-independent,
  // and so is each layer's wmax (the layer-fixed correction unit) — both
  // computed once, outside the chip loop.
  std::vector<Tensor> wd;
  std::vector<float> wmax;
  wd.reserve(qlayers.size());
  wmax.reserve(qlayers.size());
  for (QuantLayerBase* q : qlayers) {
    wd.push_back(q->programmed_weight());
    wmax.push_back(wd.back().abs_max());
  }

  // Each chip's arrays replace the previous chip's before any forward
  // runs; the last set is destroyed on return, before the replica that
  // still points at it.
  std::vector<std::unique_ptr<TiledCrossbarLayer>> tiled;
  for (index_t chip_idx = c0; chip_idx < c1; ++chip_idx) {
    PimChip chip(ccfg, ecfg.seed, chip_idx);
    tiled.clear();
    tiled.reserve(qlayers.size());
    double gtm_sum = 0.0;
    index_t gtm_cells = 0;
    for (std::size_t i = 0; i < qlayers.size(); ++i) {
      QuantLayerBase* q = qlayers[i];
      auto t = std::make_unique<TiledCrossbarLayer>(
          chip, wd[i], TilePlan::make(q->fan_out(), q->fan_in(), tile), tune,
          &replica.workspace());
      if (tune) {
        gtm_sum += t->measured_eps_b() *
                   static_cast<double>(t->total_gtm_cells());
        gtm_cells += t->total_gtm_cells();
      }
      q->set_analog_backend(t.get());
      tiled.push_back(std::move(t));
    }
    if (tune) {
      // Chip-level estimate: every array's GTM column measures the same
      // correlated eps_B, so pooling all spare-column cells across all
      // layers (cell-count-weighted mean, error ~ sigma_W /
      // sqrt(gtm_cells)) feeds the existing correction machinery. LTM
      // readout error keeps the analytic model (per layer, fixed per
      // chip), drawn from a stream decorrelated from the programming
      // draws.
      const double eps_hat =
          gtm_cells > 0 ? gtm_sum / static_cast<double>(gtm_cells) : 0.0;
      Rng ltm_rng(ecfg.seed + 0x9E3779B97F4A7C15ull,
                  static_cast<std::uint64_t>(chip_idx));
      for (std::size_t i = 0; i < qlayers.size(); ++i) {
        NoiseState& ns = qlayers[i]->noise_state();
        ns.correction = correction_for(st->mode);
        ns.eps_hat[0] = static_cast<float>(eps_hat);
        ns.wmax = wmax[i];
        ns.ltm_err[0] = static_cast<float>(
            ltm_readout_error(vcfg.sigma_w, st->ltm_columns, ltm_rng));
        ++ns.revision;
      }
    }
    score_chips(replica, test, rows, std::max<index_t>(1, lane_rows), 1,
                hits + chip_idx);
  }
}

// Weight-domain (and int8) lane: chips [c0, c1) in groups of chip_batch
// (the last group may be smaller), one noise-batched forward per test
// chunk per group, each chunk lane_rows / nb test rows so the tiled
// forward stays the size of one lane's share of batch_size.
void evaluate_weight_domain_lane(Module& replica, const Dataset& test,
                                 const std::vector<index_t>& rows,
                                 const VariabilityConfig& vcfg,
                                 const EvalConfig& ecfg,
                                 const SelfTuneConfig* st, index_t chip_batch,
                                 index_t c0, index_t c1, index_t lane_rows,
                                 index_t* hits) {
  auto qlayers = replica.quant_layers();
  // Destroyed on return, before the replica whose layers point at them.
  std::vector<std::unique_ptr<Int8Backend>> int8_backends;
  if (ecfg.backend == EvalBackend::kInt8) {
    // Int8 route: install one integer backend per quant layer, then run
    // the identical weight-domain chip loop below — same Rng(seed, chip)
    // realizations, same chip batching; only the MVM arithmetic changes.
    // Each backend re-quantizes its layer's effective weights into packed
    // planes once per chip group (keyed on the NoiseState revision).
    int8_backends.reserve(qlayers.size());
    for (QuantLayerBase* q : qlayers) {
      int8_backends.push_back(
          std::make_unique<Int8Backend>(*q, replica.workspace()));
      q->set_analog_backend(int8_backends.back().get());
    }
  }
  const bool tune = st != nullptr && st->mode != SelfTuneMode::kNone;
  const CorrectionKind correction =
      tune ? correction_for(st->mode) : CorrectionKind::kNone;
  for (index_t chip0 = c0; chip0 < c1; chip0 += chip_batch) {
    const index_t nb = std::min(chip_batch, c1 - chip0);
    sample_chip_group(qlayers, vcfg, ecfg.seed, st, chip0, nb, vcfg.enabled(),
                      correction);
    score_chips(replica, test, rows, std::max<index_t>(1, lane_rows / nb), nb,
                hits + chip0);
  }
}

}  // namespace

const char* to_string(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kCircuit:
      return "circuit";
    case EvalBackend::kInt8:
      return "int8";
    case EvalBackend::kWeightDomain:
      break;
  }
  return "weight_domain";
}

EvalBackend eval_backend_from_env() {
  // Read per call, NOT cached: one test binary flips the variable to
  // exercise all three backends in a single run. A typo warns: it must
  // not silently publish weight-domain numbers as circuit or int8 ones.
  // The tokens are in EvalBackend declaration order.
  return static_cast<EvalBackend>(env_choice(
      "QAVAT_EVAL_BACKEND", {"weight_domain", "circuit", "int8"}, 0));
}

index_t chip_batch_from_env() {
  return env_int("QAVAT_CHIP_BATCH", kDefaultChipBatch, 1,
                 std::numeric_limits<index_t>::max());
}

EvalStats evaluate_under_variability(Module& model, const Dataset& test,
                                     const VariabilityConfig& vcfg,
                                     const EvalConfig& ecfg,
                                     const SelfTuneConfig* st) {
  // Chip c's realization depends on c alone (Rng(seed, c) /
  // PimChip(seed, c)), never on its lane or group, so the per-chip
  // accuracies are bit-identical for any thread count. Each lane forwards
  // batch_size / lanes test rows at a time, keeping the live activation
  // rows across lanes at batch_size.
  const index_t n_chips = std::max<index_t>(0, ecfg.n_chips);
  ChipLanes lanes(model, n_chips);
  const index_t lane_rows =
      ecfg.batch_size / std::max<index_t>(1, lanes.size());
  index_t chip_batch = ecfg.chip_batch > 0 ? ecfg.chip_batch : kDefaultChipBatch;
  chip_batch = std::max<index_t>(1, std::min(chip_batch, n_chips));
  const index_t n = std::max<index_t>(
      0, std::min<index_t>(test.size(), ecfg.max_test_samples));
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<index_t> hits(static_cast<std::size_t>(n_chips), 0);
  lanes.run([&](Module& replica, index_t c0, index_t c1) {
    if (ecfg.backend == EvalBackend::kCircuit) {
      evaluate_circuit_lane(replica, test, rows, vcfg, ecfg, st, c0, c1,
                            lane_rows, hits.data());
    } else {
      evaluate_weight_domain_lane(replica, test, rows, vcfg, ecfg, st,
                                  chip_batch, c0, c1, lane_rows, hits.data());
    }
  });
  EvalStats stats;
  stats.per_chip_acc.resize(hits.size(), 0.0);
  if (n > 0) {
    for (std::size_t c = 0; c < hits.size(); ++c) {
      stats.per_chip_acc[c] =
          static_cast<double>(hits[c]) / static_cast<double>(n);
    }
  }
  stats.accuracy = Stats::from(stats.per_chip_acc);
  stats.n_chips = n_chips;
  return stats;
}

}  // namespace qavat
