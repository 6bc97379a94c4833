#include "core/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "tensor/parallel_for.h"

namespace qavat {

namespace {

class Adam {
 public:
  Adam(std::vector<Param*> params, double lr) : params_(std::move(params)), lr_(lr) {
    for (Param* p : params_) {
      if (p->adam_m.size() != p->value.size()) {
        p->adam_m.resize(p->value.shape());
        p->adam_v.resize(p->value.shape());
      }
    }
  }

  void step() {
    ++t_;
    const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
    const double corr =
        lr_ * std::sqrt(1.0 - std::pow(b2, t_)) / (1.0 - std::pow(b1, t_));
    for (Param* p : params_) {
      float* v = p->value.data();
      const float* g = p->grad.data();
      float* m1 = p->adam_m.data();
      float* m2 = p->adam_v.data();
      // Pure elementwise update: any thread partition is bit-identical.
      parallel_for_elems(p->value.size(), [=](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; ++i) {
          m1[i] = static_cast<float>(b1 * m1[i] + (1.0 - b1) * g[i]);
          m2[i] = static_cast<float>(b2 * m2[i] + (1.0 - b2) * g[i] * g[i]);
          v[i] -= static_cast<float>(
              corr * m1[i] / (std::sqrt(static_cast<double>(m2[i])) + eps));
        }
      });
    }
  }

 private:
  std::vector<Param*> params_;
  double lr_;
  int t_ = 0;
};

void draw_chip_noise(const std::vector<QuantLayerBase*>& qlayers,
                     const VariabilityConfig& noise, Rng& rng) {
  // One correlated draw per simulated chip, shared across layers; iid
  // within-chip draws per layer.
  const float eps_b =
      noise.sigma_b > 0.0 ? static_cast<float>(rng.normal(0.0, noise.sigma_b))
                          : 0.0f;
  for (QuantLayerBase* q : qlayers) {
    sample_variability(*q, noise, rng);
    q->noise_state().eps_b[0] = eps_b;
  }
}

void clear_noise(const std::vector<QuantLayerBase*>& qlayers) {
  for (QuantLayerBase* q : qlayers) q->noise_state().clear();
}

}  // namespace

void score_chips(Module& model, const Dataset& test,
                 const std::vector<index_t>& rows, index_t chunk, index_t nb,
                 index_t* hits) {
  const index_t n = static_cast<index_t>(rows.size());
  // Chunk-loop scratch, reused by every chunk of the call.
  std::vector<index_t> idx, idx_tiled;
  Tensor block;
  for (index_t start = 0; start < n; start += chunk) {
    const index_t end = std::min(n, start + chunk);
    const index_t m = end - start;
    idx.assign(rows.begin() + start, rows.begin() + end);
    idx_tiled.clear();
    idx_tiled.reserve(static_cast<std::size_t>(nb * m));
    for (index_t b = 0; b < nb; ++b) {
      idx_tiled.insert(idx_tiled.end(), idx.begin(), idx.end());
    }
    const Tensor logits = model.forward(test.gather_images(idx_tiled));
    const std::vector<index_t> y = test.gather_labels(idx);
    const index_t classes = logits.dim(1);  // logits: {nb*m, classes}
    block.resize_for_overwrite({m, classes});
    for (index_t b = 0; b < nb; ++b) {
      std::memcpy(block.data(), logits.data() + b * m * classes,
                  static_cast<std::size_t>(m * classes) * sizeof(float));
      index_t h = 0;
      softmax_xent(block, y, nullptr, &h);
      hits[b] += h;
    }
  }
}

double evaluate_clean(Module& model, const Dataset& test, index_t max_samples) {
  model.set_training(false);
  for (QuantLayerBase* q : model.quant_layers()) q->noise_state().clear();
  const index_t n =
      max_samples < 0 ? test.size() : std::min(test.size(), max_samples);
  if (n <= 0) return 0.0;
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  index_t correct = 0;
  score_chips(model, test, rows, 64, 1, &correct);
  return static_cast<double>(correct) / static_cast<double>(n);
}

TrainResult train(Module& model, const Dataset& data, TrainAlgo algo,
                  const TrainConfig& cfg) {
  TrainResult result;
  const index_t n = data.size();
  if (n == 0 || cfg.epochs <= 0) return result;

  model.set_training(true);
  auto qlayers = model.quant_layers();
  for (QuantLayerBase* q : qlayers) {
    q->set_reparam(cfg.reparam);
    if (q->quant_enabled() && q->weight_scale() <= 0.0f) q->refresh_weight_scale();
  }

  const bool noisy = algo == TrainAlgo::kQAVAT && cfg.train_noise.enabled();
  const index_t n_samples = noisy ? std::max<index_t>(1, cfg.n_variation_samples) : 1;
  Adam opt(model.parameters(), cfg.lr);
  Rng rng(cfg.seed, 17);

  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  for (index_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (epoch > 0 && cfg.scale_update == ScaleUpdatePolicy::kPerEpoch) {
      for (QuantLayerBase* q : qlayers) {
        if (q->quant_enabled()) q->refresh_weight_scale();
      }
    }
    // Fisher-Yates shuffle with our deterministic RNG.
    for (index_t i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    double epoch_loss = 0.0;
    index_t correct = 0, seen = 0, batches = 0;
    for (index_t start = 0; start < n; start += cfg.batch_size) {
      const index_t end = std::min(n, start + cfg.batch_size);
      std::vector<index_t> idx(order.begin() + start, order.begin() + end);
      Tensor x = data.gather_images(idx);
      std::vector<index_t> y = data.gather_labels(idx);

      model.zero_grad();
      double batch_loss = 0.0;
      for (index_t s = 0; s < n_samples; ++s) {
        if (noisy) draw_chip_noise(qlayers, cfg.train_noise, rng);
        Tensor logits = model.forward(x);
        Tensor grad;
        index_t hits = 0;
        batch_loss += softmax_xent(logits, y, &grad, &hits);
        if (s == 0) {
          correct += hits;
          seen += end - start;
        }
        if (n_samples > 1) {
          // Average Algorithm 1's n variation samples via the shared
          // vectorized scale kernel (tensor/ops.h).
          scale(grad, 1.0f / static_cast<float>(n_samples));
        }
        model.backward(grad);
        if (noisy) clear_noise(qlayers);
      }
      opt.step();
      epoch_loss += batch_loss / static_cast<double>(n_samples);
      ++batches;
    }
    result.epoch_loss.push_back(epoch_loss / static_cast<double>(batches));
    result.epoch_train_acc.push_back(static_cast<double>(correct) /
                                     static_cast<double>(seen));
    if (cfg.verbose) {
      std::printf("  [%s] epoch %lld/%lld  loss %.4f  acc %.3f\n",
                  to_string(algo), static_cast<long long>(epoch + 1),
                  static_cast<long long>(cfg.epochs), result.epoch_loss.back(),
                  result.epoch_train_acc.back());
      std::fflush(stdout);
    }
  }
  model.set_training(false);
  return result;
}

}  // namespace qavat
