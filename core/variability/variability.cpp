#include "core/variability/variability.h"

#include <stdexcept>
#include <string>

#include "core/quant/qlayers.h"

namespace qavat {

void sample_variability(QuantLayerBase& layer, const VariabilityConfig& cfg,
                        Rng& rng) {
  if (!cfg.enabled()) {
    layer.noise_state().clear();
    return;
  }
  ensure_noise_batch(layer, 1);
  sample_variability_slot(layer, cfg, rng, 0);
}

void ensure_noise_batch(QuantLayerBase& layer, index_t batch) {
  if (batch < 1) {
    throw std::invalid_argument("ensure_noise_batch: batch must be >= 1, got " +
                                std::to_string(batch));
  }
  NoiseState& ns = layer.noise_state();
  ns.batch = batch;
  const auto& wshape = layer.weight().value.shape();
  ns.eps.resize({batch, wshape[0], wshape[1]});
  ns.eps_b.assign(static_cast<std::size_t>(batch), 0.0f);
  ns.eps_hat.assign(static_cast<std::size_t>(batch), 0.0f);
  ns.ltm_err.assign(static_cast<std::size_t>(batch), 0.0f);
  ++ns.revision;
}

void sample_variability_slot_draws(QuantLayerBase& layer,
                                   const VariabilityConfig& cfg, Rng& rng,
                                   index_t slot) {
  NoiseState& ns = layer.noise_state();
  const index_t wsize = layer.weight().value.size();
  if (slot < 0 || slot >= ns.batch || ns.eps.size() != ns.batch * wsize) {
    throw std::invalid_argument(
        "sample_variability_slot: slot " + std::to_string(slot) +
        " outside prepared batch (call ensure_noise_batch first)");
  }
  float* eps = ns.eps.data() + slot * wsize;
  if (!cfg.enabled()) {
    for (index_t i = 0; i < wsize; ++i) eps[i] = 0.0f;
    ns.eps_b[static_cast<std::size_t>(slot)] = 0.0f;
    return;
  }
  // The within-chip field first, then the layer-local between-chip value
  // (overwritten by the evaluator with the chip-shared draw, but
  // consuming the same RNG stream).
  if (cfg.sigma_w > 0.0) {
    for (index_t i = 0; i < wsize; ++i) {
      eps[i] = static_cast<float>(rng.normal(0.0, cfg.sigma_w));
    }
  } else {
    for (index_t i = 0; i < wsize; ++i) eps[i] = 0.0f;
  }
  ns.eps_b[static_cast<std::size_t>(slot)] =
      cfg.sigma_b > 0.0 ? static_cast<float>(rng.normal(0.0, cfg.sigma_b)) : 0.0f;
}

void sample_variability_slot(QuantLayerBase& layer, const VariabilityConfig& cfg,
                             Rng& rng, index_t slot) {
  NoiseState& ns = layer.noise_state();
  sample_variability_slot_draws(layer, cfg, rng, slot);
  ++ns.revision;
  if (cfg.enabled()) {
    ns.model = cfg.model;
    // wmax is a property of the frozen weights, not of the chip: compute it
    // once per group (slot 0) instead of once per chip — the value is
    // bit-identical across slots, and dequant_weight_max runs a full
    // quantize-dequantize pass per call.
    if (slot == 0) ns.wmax = layer.dequant_weight_max();
    ns.active = true;
  }
}

void prepare_noise_group(const std::vector<QuantLayerBase*>& qlayers,
                         index_t batch, VarianceModel model, bool activate,
                         CorrectionKind correction) {
  for (QuantLayerBase* q : qlayers) {
    ensure_noise_batch(*q, batch);
    NoiseState& ns = q->noise_state();
    ns.active = activate;
    if (activate) {
      ns.model = model;
      // wmax is a property of the frozen weights, not of the chip:
      // bit-identical across slots, so once per group is enough (and
      // dequant_weight_max runs a full quantize-dequantize pass).
      ns.wmax = q->dequant_weight_max();
    }
    ns.correction = correction;
  }
}

}  // namespace qavat
