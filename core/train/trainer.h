// Training algorithms (paper Algorithm 1). QAT = quantization-aware
// training with STE; QAVAT additionally draws `n_variation_samples`
// variability realizations per batch, runs a noisy forward/backward for
// each, and averages the gradients — with the reparameterized estimator
// (Eq. 2) propagating through multiplicative noise by default.
#pragma once

#include <vector>

#include "core/models/models.h"
#include "core/variability/variability.h"
#include "data/synth.h"

namespace qavat {

enum class TrainAlgo { kQAT, kQAVAT };

inline const char* to_string(TrainAlgo a) {
  return a == TrainAlgo::kQAT ? "QAT" : "QAVAT";
}

/// How often the MMSE weight-grid scales are recomputed (paper: once at
/// init, "more frequent updates only improve results marginally").
enum class ScaleUpdatePolicy { kInitOnly, kPerEpoch };

struct TrainConfig {
  index_t epochs = 5;
  double lr = 3e-3;  // Adam step size
  index_t batch_size = 32;
  VariabilityConfig train_noise;      // used by kQAVAT only
  index_t n_variation_samples = 1;    // Algorithm 1's n
  bool reparam = true;                // Eq. 2 estimator (vs biased Eq. 1)
  ScaleUpdatePolicy scale_update = ScaleUpdatePolicy::kPerEpoch;
  bool verbose = false;
  std::uint64_t seed = 1;
};

struct TrainResult {
  std::vector<double> epoch_train_acc;  // accuracy under injected noise
  std::vector<double> epoch_loss;
};

/// Train in place. Initializes MMSE weight scales (if unset) and
/// calibrates activation scales on the fly; leaves the model in eval mode.
TrainResult train(Module& model, const Dataset& data, TrainAlgo algo,
                  const TrainConfig& cfg);

/// Chip-major scorer: adds to hits[b] the correct predictions of the
/// chip in noise slot b (b < nb; nb == 1 for one chip or a clean model)
/// on test rows `rows`. Each chunk of `chunk` rows is tiled chip-major
/// into one noise-batched forward, so chip b's logits equal a one-chip
/// forward. The chunk never changes a hit — every per-row computation is
/// independent of how many rows share a forward — but it sets speed
/// (larger tiles thrash the cache on un-pooled CNN activations), so each
/// caller keeps its own: the evaluator lane_rows / nb, a fleet step
/// batch_size / chip_batch, evaluate_clean 64.
void score_chips(Module& model, const Dataset& test,
                 const std::vector<index_t>& rows, index_t chunk, index_t nb,
                 index_t* hits);

/// Noise-free accuracy on up to max_samples images (-1 = all): the
/// model, noise cleared, scored as one chip by score_chips. Declared at
/// this layer because training reports test accuracy; the Monte-Carlo
/// deployment evaluators live in eval/evaluator.h.
double evaluate_clean(Module& model, const Dataset& test,
                      index_t max_samples = -1);

}  // namespace qavat
