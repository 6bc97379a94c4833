// Conductance-variation models (paper §II.B). Two variance shapes:
//  * kWeightProportional — std of a weight's deviation proportional to |w|
//    (multiplicative: w_eff = w * (1 + eps)).
//  * kLayerFixed — std fixed per layer at sigma * max|w| (additive:
//    w_eff = w + eps * wmax).
// Each deployment combines a *within-chip* component (iid per device,
// sigma_w) and a *between-chip* component (one draw per chip, sigma_b)
// that is fully correlated across the chip — the component self-tuning
// can measure and cancel.
#pragma once

#include <cmath>
#include <vector>

#include "tensor/tensor.h"

namespace qavat {

enum class VarianceModel { kWeightProportional, kLayerFixed };

inline const char* to_string(VarianceModel m) {
  return m == VarianceModel::kWeightProportional ? "weight-proportional"
                                                 : "layer-fixed";
}

struct VariabilityConfig {
  VarianceModel model = VarianceModel::kWeightProportional;
  double sigma_w = 0.0;  // within-chip (device-to-device) std
  double sigma_b = 0.0;  // between-chip (correlated) std

  bool enabled() const { return sigma_w > 0.0 || sigma_b > 0.0; }

  static VariabilityConfig within_only(VarianceModel m, double sigma) {
    VariabilityConfig v;
    v.model = m;
    v.sigma_w = sigma;
    return v;
  }

  /// Mixed-type deployment with equal within/between components summing to
  /// sigma_tot in quadrature: sigma_w = sigma_b = sigma_tot / sqrt(2).
  static VariabilityConfig mixed(VarianceModel m, double sigma_tot) {
    VariabilityConfig v;
    v.model = m;
    v.sigma_w = sigma_tot / std::sqrt(2.0);
    v.sigma_b = v.sigma_w;
    return v;
  }
};

/// Conductance / layer-fixed-noise unit from a layer's max |weight|: the
/// weight magnitude one full-scale device represents. Falls back to 1.0
/// for an all-zero layer so downstream divisions stay finite. Shared by
/// the crossbar programming (pim/), the int8 backend's requant grid and
/// the layer-fixed variance unit.
inline double w_unit_from_max(float wmax) {
  return wmax > 0.0f ? static_cast<double>(wmax) : 1.0;
}

class QuantLayerBase;
enum class CorrectionKind;  // core/quant/qlayers.h

/// Draw a fresh one-chip noise realization into the layer's NoiseState
/// and activate it: batch 1 (ensure_noise_batch) filled by
/// sample_variability_slot into slot 0 — the within-chip field, then a
/// layer-local between-chip draw into eps_b[0] when cfg.sigma_b > 0.
/// Callers that share one between-chip draw across a chip's layers
/// overwrite eps_b[0] afterwards. With cfg disabled the state is cleared
/// and no RNG draws are consumed.
void sample_variability(QuantLayerBase& layer, const VariabilityConfig& cfg,
                        Rng& rng);

/// Size the layer's NoiseState for a noise batch of `batch` simulated
/// chips: eps becomes {batch, fan_out, fan_in} and the chip-level vectors
/// (eps_b/eps_hat/ltm_err) get `batch` zeroed entries. Does not activate
/// the state; fill slots with sample_variability_slot().
void ensure_noise_batch(QuantLayerBase& layer, index_t batch);

/// Fill slot `slot` of a batched NoiseState: the within-chip field, then
/// the layer-local between-chip value, from `rng` in that order, so a
/// chip sampled into any slot is identical to the same chip sampled into
/// slot 0 of a batch-1 state from the same Rng state. With cfg disabled
/// the slot is zeroed and no RNG draws are consumed.
void sample_variability_slot(QuantLayerBase& layer, const VariabilityConfig& cfg,
                             Rng& rng, index_t slot);

/// Slot-PURE core of sample_variability_slot: identical RNG draws and
/// per-slot writes (the slot's eps slice and eps_b entry), but none of
/// the NoiseState-wide writes (revision, model, wmax, active). Distinct
/// slots touch disjoint storage, so the evaluator and the fleet sample
/// chips into their slots from a parallel_for — the caller hoists the
/// shared writes into prepare_noise_group.
void sample_variability_slot_draws(QuantLayerBase& layer,
                                   const VariabilityConfig& cfg, Rng& rng,
                                   index_t slot);

/// Serial prologue of one chip group: size every layer's NoiseState for
/// `batch` chips (ensure_noise_batch, which zeroes the chip-level slots
/// and bumps the revision that invalidates cached effective weights and
/// int8 planes), set `active` to `activate` — with the variance `model`
/// and the layer's wmax when activating — and install `correction`. The
/// group's chips are then sampled with sample_variability_slot_draws.
void prepare_noise_group(const std::vector<QuantLayerBase*>& qlayers,
                         index_t batch, VarianceModel model, bool activate,
                         CorrectionKind correction);

}  // namespace qavat
