#include "core/quant/qlayers.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/parallel_for.h"

namespace qavat {

namespace {

// Per-row sums of a {rows, cols} matrix — the LTM's measurand (one
// activation sum per MVM input row).
std::vector<float> ltm_row_sums(const Tensor& m) {
  const index_t rows = m.dim(0), cols = m.dim(1);
  std::vector<float> sums(static_cast<std::size_t>(rows), 0.0f);
  for (index_t r = 0; r < rows; ++r) {
    const float* row = m.data() + r * cols;
    float s = 0.0f;
    for (index_t c = 0; c < cols; ++c) s += row[c];
    sums[static_cast<std::size_t>(r)] = s;
  }
  return sums;
}

// True when the noise-batched input is `nb` bit-identical chip blocks —
// always the case at the first quant layer of a batched Monte-Carlo
// forward (every simulated chip sees the same test images), never after
// it (per-chip weights diverge the activations, so the memcmp fails on
// the first few bytes and costs next to nothing).
bool chip_blocks_identical(const Tensor& x, index_t nb) {
  const index_t block = x.size() / nb;
  const float* p = x.data();
  for (index_t b = 1; b < nb; ++b) {
    if (std::memcmp(p, p + b * block,
                    static_cast<std::size_t>(block) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// First chip block of a batched input, copied into `out` (leading dim
// divided by nb).
void first_chip_block(const Tensor& x, index_t nb, Tensor& out) {
  std::vector<index_t> shape = x.shape();
  shape[0] /= nb;
  out.resize_for_overwrite(std::move(shape));
  std::memcpy(out.data(), x.data(),
              static_cast<std::size_t>(out.size()) * sizeof(float));
}

// Tile per-row LTM sums of a shared block out to all nb chip blocks.
std::vector<float> tile_row_sums(const std::vector<float>& sums, index_t nb) {
  std::vector<float> out;
  out.reserve(sums.size() * static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) out.insert(out.end(), sums.begin(), sums.end());
  return out;
}

// bias_grad[co0 + b] += gy[ni, co0 + b, pos] over ascending (ni, pos),
// for b < B: B independent chains interleaved, so the adds pipeline.
template <int B>
void bias_chains(const float* gy, index_t n, index_t cout, index_t ohw,
                 index_t co0, float* bias_grad) {
  float s[B];
  for (int b = 0; b < B; ++b) s[b] = bias_grad[co0 + b];
  for (index_t ni = 0; ni < n; ++ni) {
    const float* img = gy + (ni * cout + co0) * ohw;
    for (index_t pos = 0; pos < ohw; ++pos) {
      for (int b = 0; b < B; ++b) s[b] += img[b * ohw + pos];
    }
  }
  for (int b = 0; b < B; ++b) bias_grad[co0 + b] = s[b];
}

}  // namespace

void QuantLayerBase::check_grad_shape(const Tensor& gy, const char* who) const {
  if (y_shape_.empty()) {
    throw std::invalid_argument(std::string(who) + ": no forward has run");
  }
  if (gy.shape() != y_shape_) {
    std::string want;
    for (index_t d : y_shape_) {
      want += (want.empty() ? "" : ",") + std::to_string(d);
    }
    throw std::invalid_argument(std::string(who) +
                                ": gradient must have the last forward's "
                                "output shape {" + want + "}");
  }
}

void AnalogBackend::mvm_grouped_into(const Tensor& x2d, index_t groups,
                                     bool shared, Tensor& y) {
  if (groups == 1 && !shared) {
    mvm_into(x2d, y);
    return;
  }
  throw std::logic_error(
      "AnalogBackend: this backend is single-chip (chip_batch 1)");
}

const Tensor& QuantLayerBase::backend_effective_weight() {
  if (training_) {
    throw std::logic_error("backend_effective_weight: inference-only");
  }
  compute_effective_weight();
  return weff_;
}

QuantLayerBase::QuantLayerBase(index_t fan_in, index_t fan_out, index_t a_bits,
                               index_t w_bits)
    : fan_in_(fan_in),
      fan_out_(fan_out),
      a_bits_(a_bits),
      w_bits_(w_bits),
      act_quant_(a_bits) {
  weight_.value.resize({fan_out, fan_in});
  bias_.value.resize({fan_out});
}

QuantLayerBase::QuantLayerBase(const QuantLayerBase& src)
    : Layer(),
      fan_in_(src.fan_in_),
      fan_out_(src.fan_out_),
      a_bits_(src.a_bits_),
      w_bits_(src.w_bits_),
      w_scale_(src.w_scale_),
      quant_enabled_(src.quant_enabled_),
      reparam_(src.reparam_),
      act_quant_(src.act_quant_) {
  weight_.value = src.weight_.value;
  bias_.value = src.bias_.value;
}

void QuantLayerBase::refresh_weight_scale() {
  w_scale_ = mmse_scale(weight_.value, w_bits_);
}

float QuantLayerBase::dequant_weight_max() const {
  if (!quant_enabled_ || w_scale_ <= 0.0f) return weight_.value.abs_max();
  Tensor tmp;
  quantize_dequantize(weight_.value, w_scale_, w_bits_, tmp);
  return tmp.abs_max();
}

Tensor QuantLayerBase::programmed_weight() const {
  Tensor w;
  if (quant_enabled_ && w_scale_ > 0.0f) {
    quantize_dequantize(weight_.value, w_scale_, w_bits_, w);
  } else {
    w = weight_.value;
  }
  return w;
}

void QuantLayerBase::compute_effective_weight() {
  const index_t nb = noise_batch();
  if (nb > 1) {
    // Noise-batched (inference-only) path: one shared quantize-dequantize
    // pass, then `nb` stacked per-chip perturbations. Per-chip arithmetic
    // is identical to the one-chip path below, so a batched forward is
    // bit-identical to nb single-chip forwards.
    if (training_) {
      throw std::logic_error(
          "compute_effective_weight: batched noise is inference-only");
    }
    if (weff_revision_ == noise_.revision &&
        weff_.size() == nb * weight_.value.size()) {
      return;  // same chip group as the last forward — weff_ still valid
    }
    if (quant_enabled_ && w_scale_ > 0.0f) {
      quantize_dequantize(weight_.value, w_scale_, w_bits_, wq_base_, nullptr);
    } else {
      wq_base_ = weight_.value;
    }
    const index_t wsize = weight_.value.size();
    if (noise_.eps.size() != nb * wsize ||
        static_cast<index_t>(noise_.eps_b.size()) != nb) {
      throw std::invalid_argument(
          "compute_effective_weight: noise state not sized for batch " +
          std::to_string(nb) + " (use ensure_noise_batch)");
    }
    weff_.resize({nb * fan_out_, fan_in_});
    const float* base = wq_base_.data();
    const float* eps_all = noise_.eps.data();
    float* out_all = weff_.data();
    const bool wp = noise_.model == VarianceModel::kWeightProportional;
    const float unit = noise_.wmax;
    auto fill_slots = [&](index_t b0, index_t b1) {
      for (index_t b = b0; b < b1; ++b) {
        const float eps_b = noise_.eps_b[static_cast<std::size_t>(b)];
        const float* eps = eps_all + b * wsize;
        float* out = out_all + b * wsize;
        if (wp) {
          for (index_t i = 0; i < wsize; ++i) {
            out[i] = base[i] * (1.0f + eps[i] + eps_b);
          }
        } else {
          for (index_t i = 0; i < wsize; ++i) {
            out[i] = base[i] + (eps[i] + eps_b) * unit;
          }
        }
      }
    };
    if (nb * wsize < (index_t{1} << 20)) {
      fill_slots(index_t{0}, nb);  // too small to pay a thread fork
    } else {
      parallel_for(index_t{0}, nb, index_t{1}, fill_slots);
    }
    weff_revision_ = noise_.revision;
    return;
  }
  if (quant_enabled_ && w_scale_ > 0.0f) {
    quantize_dequantize(weight_.value, w_scale_, w_bits_, weff_,
                        training_ ? &w_mask_ : nullptr);
  } else {
    weff_ = weight_.value;
    if (training_) {
      w_mask_.resize(weight_.value.shape());
      w_mask_.fill(1.0f);
    }
  }
  if (!noise_.active) return;
  assert(noise_.eps.size() == weff_.size());
  float* w = weff_.data();
  const float* eps = noise_.eps.data();
  const float eps_b = noise_.eps_b[0];
  if (noise_.model == VarianceModel::kWeightProportional) {
    parallel_for_elems(weff_.size(), [w, eps, eps_b](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) w[i] *= 1.0f + eps[i] + eps_b;
    });
  } else {
    const float unit = noise_.wmax;
    parallel_for_elems(weff_.size(),
                       [w, eps, eps_b, unit](index_t i0, index_t i1) {
                         for (index_t i = i0; i < i1; ++i) {
                           w[i] += (eps[i] + eps_b) * unit;
                         }
                       });
  }
}

bool QuantLayerBase::batched_input_shared(const Tensor& x, index_t nb,
                                          const char* who) const {
  if (nb <= 1) return false;
  if (x.dim(0) % nb != 0) {
    throw std::invalid_argument(std::string(who) +
                                ": input rows not divisible by noise batch " +
                                std::to_string(nb));
  }
  return chip_blocks_identical(x, nb);
}

void QuantLayerBase::quantize_forward_input(const Tensor& x, index_t nb,
                                            bool shared, Tensor& out) {
  if (!shared) {
    quantize_input(x, out);
    return;
  }
  std::vector<index_t> block_shape = x.shape();
  block_shape[0] /= nb;
  Tensor& x0 = ws_->acquire(ws_, kWsBlock, std::move(block_shape));
  first_chip_block(x, nb, x0);
  quantize_input(x0, out);
}

void QuantLayerBase::analog_matmul_into(const Tensor& a2d, index_t nb,
                                        bool shared, Tensor& y) const {
  if (analog_backend_ != nullptr) {
    // Backend route: the backend owns the programmed weights (crossbar
    // tile conductances for pim/, cached int8 planes for the integer
    // path). Grouped (noise-batched) forwards go through
    // mvm_grouped_into, whose default rejects groups — the circuit
    // backend stays single-chip because per-chip tile programming would
    // dwarf the GEMM win, while the int8 backend overrides it.
    if (nb > 1) {
      analog_backend_->mvm_grouped_into(a2d, nb, shared, y);
    } else {
      analog_backend_->mvm_into(a2d, y);
    }
  } else if (nb <= 1) {
    matmul_nt_into(a2d, weff_, y);
  } else if (shared) {
    matmul_nt_shared_into(a2d, weff_, nb, y);
  } else {
    matmul_nt_batched_into(a2d, weff_, nb, y);
  }
  // The circuit backend carries its noise in the programmed conductances
  // (active stays false) yet still wants the self-tuning correction, so
  // the gate is active-OR-backend rather than active alone. A zero-noise
  // self-tuned deployment (active false, no backend) skips the LTM
  // reduction and the no-op correction pass entirely — its eps_hat and
  // ltm_err are exactly 0.
  const bool corrective = noise_.active || analog_backend_ != nullptr;
  if (corrective && noise_.correction == CorrectionKind::kOffset) {
    std::vector<float> sums = ltm_row_sums(a2d);
    apply_correction(y, shared ? tile_row_sums(sums, nb) : sums);
  } else if (corrective) {
    apply_correction(y, {});
  }
}

void QuantLayerBase::quantize_input(const Tensor& x, Tensor& out) {
  if (training_) act_quant_.observe(x);
  if (!quant_enabled_) {
    if (training_) {
      x_mask_.resize_for_overwrite(x.shape());
      x_mask_.fill(1.0f);
    }
    out = x;
    return;
  }
  act_quant_.quantize(x, out, training_ ? &x_mask_ : nullptr);
}

void QuantLayerBase::apply_correction(Tensor& y2d,
                                      const std::vector<float>& row_sums) const {
  if (noise_.correction == CorrectionKind::kNone) return;
  const index_t rows = y2d.dim(0), cols = y2d.dim(1);
  const index_t nb = noise_.batch;
  const index_t rows_per = rows / nb;  // rows per chip slot
  float* y = y2d.data();
  for (index_t b = 0; b < nb; ++b) {
    const float eps_hat = noise_.eps_hat[static_cast<std::size_t>(b)];
    const float ltm_err = noise_.ltm_err[static_cast<std::size_t>(b)];
    const index_t r0 = b * rows_per, r1 = r0 + rows_per;
    if (noise_.correction == CorrectionKind::kScale) {
      float denom = 1.0f + eps_hat;
      // An (unphysical) near-zero estimate would blow the correction up;
      // clamp like a bounded-gain analog stage would.
      if (std::fabs(denom) < 0.25f) denom = denom < 0.0f ? -0.25f : 0.25f;
      const float g = 1.0f / denom;
      scale(y + r0 * cols, (r1 - r0) * cols, g);
    } else {  // kOffset
      assert(static_cast<index_t>(row_sums.size()) == rows);
      const float k = eps_hat * noise_.wmax * (1.0f + ltm_err);
      for (index_t r = r0; r < r1; ++r) {
        const float off = k * row_sums[static_cast<std::size_t>(r)];
        float* row = y + r * cols;
        for (index_t c = 0; c < cols; ++c) row[c] -= off;
      }
    }
  }
}

void QuantLayerBase::accumulate_weight_grad(const Tensor& grad_weff) {
  weight_.ensure_grad();
  const bool reparam_factor = noise_.active && reparam_ &&
                              noise_.model == VarianceModel::kWeightProportional;
  const bool masked = w_mask_.size() == grad_weff.size();
  const float* g = grad_weff.data();
  const float* eps = reparam_factor ? noise_.eps.data() : nullptr;
  const float* m = masked ? w_mask_.data() : nullptr;
  const float eps_b = noise_.eps_b[0];
  float* acc = weight_.grad.data();
  parallel_for_elems(grad_weff.size(),
                     [g, eps, m, eps_b, acc](index_t i0, index_t i1) {
                       for (index_t i = i0; i < i1; ++i) {
                         float v = g[i];
                         if (eps != nullptr) v *= 1.0f + eps[i] + eps_b;
                         if (m != nullptr) v *= m[i];
                         acc[i] += v;
                       }
                     });
}

QuantLinear::QuantLinear(index_t in, index_t out, index_t a_bits, index_t w_bits,
                         Rng& rng)
    : QuantLayerBase(in, out, a_bits, w_bits) {
  fill_normal(weight_.value, rng, 0.0, std::sqrt(2.0 / static_cast<double>(in)));
}

QuantLinear::QuantLinear(const QuantLinear& src) : QuantLayerBase(src) {}

Tensor QuantLinear::forward(const Tensor& x) {
  if (x.ndim() != 2 || x.dim(1) != fan_in_) {
    throw std::invalid_argument("QuantLinear::forward: input must be {rows, " +
                                std::to_string(fan_in_) + "}");
  }
  const index_t nb = noise_batch();
  const bool shared = batched_input_shared(x, nb, "QuantLinear::forward");
  const Tensor* xin = &xq_;
  if (backend_takes_raw()) {
    // The backend derives the integer codes from raw activations itself
    // (identical codes — same nearbyint + clamp); skip the grid pass.
    if (shared) {
      std::vector<index_t> block_shape = x.shape();
      block_shape[0] /= nb;
      Tensor& x0 = ws_->acquire(ws_, kWsBlock, std::move(block_shape));
      first_chip_block(x, nb, x0);
      xin = &x0;
    } else {
      xin = &x;
    }
  } else {
    quantize_forward_input(x, nb, shared, xq_);
  }
  // The circuit backend owns the programmed weights; weff_ is unused.
  if (analog_backend_ == nullptr) compute_effective_weight();
  Tensor y;
  analog_matmul_into(*xin, nb, shared, y);
  float* py = y.data();
  const float* pb = bias_.value.data();
  for (index_t n = 0; n < y.dim(0); ++n) {
    for (index_t j = 0; j < fan_out_; ++j) py[n * fan_out_ + j] += pb[j];
  }
  last_macs_ = static_cast<double>(fan_in_ * fan_out_);
  last_positions_ = 1.0;
  y_shape_ = y.shape();
  return y;
}

Tensor QuantLinear::backward(const Tensor& gy) {
  if (noise_batch() > 1) {
    throw std::logic_error("QuantLinear::backward: batched noise is eval-only");
  }
  if (analog_backend_ != nullptr) {
    throw std::logic_error(
        "QuantLinear::backward: analog backend is inference-only");
  }
  check_grad_shape(gy, "QuantLinear::backward");
  bias_.ensure_grad();
  const float* pg = gy.data();
  float* pb = bias_.grad.data();
  for (index_t n = 0; n < gy.dim(0); ++n) {
    for (index_t j = 0; j < fan_out_; ++j) pb[j] += pg[n * fan_out_ + j];
  }
  Tensor& dw = ws_->acquire(ws_, kWsDw, {fan_out_, fan_in_});
  matmul_tn_into(gy, xq_, dw);
  accumulate_weight_grad(dw);
  Tensor gx = matmul(gy, weff_);
  if (x_mask_.size() == gx.size()) {
    float* p = gx.data();
    const float* m = x_mask_.data();
    parallel_for_elems(gx.size(), [p, m](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) p[i] *= m[i];
    });
  }
  return gx;
}

QuantConv2d::QuantConv2d(index_t in_channels, index_t out_channels, index_t kernel,
                         index_t stride, index_t pad, index_t a_bits,
                         index_t w_bits, Rng& rng)
    : QuantLayerBase(in_channels * kernel * kernel, out_channels, a_bits, w_bits),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  fill_normal(weight_.value, rng,
              0.0, std::sqrt(2.0 / static_cast<double>(fan_in_)));
}

QuantConv2d::QuantConv2d(const QuantConv2d& src)
    : QuantLayerBase(src),
      in_channels_(src.in_channels_),
      out_channels_(src.out_channels_),
      kernel_(src.kernel_),
      stride_(src.stride_),
      pad_(src.pad_) {}

Tensor QuantConv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument(
        "QuantConv2d::forward: input must be {n, " +
        std::to_string(in_channels_) + ", h, w}");
  }
  const index_t nb = noise_batch();
  const bool shared = batched_input_shared(x, nb, "QuantConv2d::forward");
  x_shape_ = x.shape();
  const index_t n = x.dim(0);
  const index_t oh = out_size(x.dim(2)), ow = out_size(x.dim(3));
  // When the batched input is nb identical chip blocks, gather only the
  // first block — the grouped GEMM broadcasts it to every chip.
  const ConvGeom geom{shared ? n / nb : n,
                      in_channels_,
                      x.dim(2),
                      x.dim(3),
                      kernel_,
                      stride_,
                      pad_,
                      oh,
                      ow};
  if (training_) {
    // Training path: explicit quantize pass (observes activation ranges
    // and caches the STE mask for backward), then plain gather.
    Tensor& xq = ws_->acquire(ws_, kWsXq, x.shape());
    quantize_input(x, xq);
    im2col(xq, geom, cols_);
  } else if (quant_enabled_ && act_quant_.calibrated() &&
             !backend_takes_raw()) {
    if (stride_ >= kernel_) {
      // Non-overlapping windows: each input element is gathered at most
      // once, so fusing the quantizer into the gather saves a whole
      // tensor pass at no extra arithmetic. Bit-identical values.
      im2col_quant(x, geom, act_quant_.scale(),
                   unsigned_qmax(act_quant_.bits()), cols_);
    } else {
      // Overlapping windows gather each element ~(k/stride)^2 times; the
      // fused form would re-round per window while a separate quantize
      // pass vectorizes over the contiguous input. Quantize once into
      // workspace scratch (first chip block only when shared), then the
      // gather is pure copies. Shape-gated, so the choice — and the
      // bit-exact result — never depends on the thread count.
      Tensor& xq = ws_->acquire(
          ws_, kWsXq, {geom.n, in_channels_, x.dim(2), x.dim(3)});
      quantize_forward_input(x, nb, shared, xq);
      im2col(xq, geom, cols_);
    }
  } else {
    // Identity quantizer, or a backend that re-derives the codes from raw
    // activations (backend_takes_raw): gather straight from x.
    im2col(x, geom, cols_);
  }
  // The circuit backend owns the programmed weights; weff_ is unused.
  if (analog_backend_ == nullptr) compute_effective_weight();
  // Chip-major image groups stay chip-major in the im2col row order, so
  // the grouped GEMM multiplies each chip's rows by its own weights (or
  // broadcasts the shared block when the chip inputs are identical).
  const index_t out_rows = shared ? nb * geom.rows() : geom.rows();
  Tensor& y2d = ws_->acquire(ws_, kWsY2d, {out_rows, out_channels_});
  analog_matmul_into(cols_, nb, shared, y2d);  // {N*OH*OW, cout}
  // Permute {N*OH*OW, cout} -> {N, cout, OH, OW} and add the bias. Each
  // (image, position) is written by exactly one thread: bit-identical for
  // any thread count.
  Tensor y;
  y.resize_for_overwrite({n, out_channels_, oh, ow});
  const index_t ohw = oh * ow;
  const index_t cout = out_channels_;
  const float* p2 = y2d.data();
  const float* pb = bias_.value.data();
  float* py = y.data();
  parallel_for_elems(n * ohw, [=](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / ohw, pos = r - ni * ohw;
      const float* src = p2 + r * cout;
      float* dst = py + ni * cout * ohw + pos;
      for (index_t co = 0; co < cout; ++co) dst[co * ohw] = src[co] + pb[co];
    }
  });
  last_macs_ = static_cast<double>(fan_in_ * out_channels_ * oh * ow);
  last_positions_ = static_cast<double>(oh * ow);
  y_shape_ = y.shape();
  return y;
}

Tensor QuantConv2d::backward(const Tensor& gy) {
  if (noise_batch() > 1) {
    throw std::logic_error("QuantConv2d::backward: batched noise is eval-only");
  }
  if (analog_backend_ != nullptr) {
    throw std::logic_error(
        "QuantConv2d::backward: analog backend is inference-only");
  }
  check_grad_shape(gy, "QuantConv2d::backward");
  const index_t n = gy.dim(0), oh = gy.dim(2), ow = gy.dim(3);
  const index_t ohw = oh * ow, cout = out_channels_;
  // Every gradient reads gy in place (NCHW). The bias chains run in
  // ascending (image, position) order, as the GEMM chains below do.
  bias_.ensure_grad();
  float* pb = bias_.grad.data();
  const float* pg = gy.data();
  index_t co = 0;
  for (; co + 8 <= cout; co += 8) bias_chains<8>(pg, n, cout, ohw, co, pb);
  for (; co < cout; ++co) bias_chains<1>(pg, n, cout, ohw, co, pb);
  // dW = sum over images of gy_i {cout, OH*OW} * cols_i {OH*OW, cin*k*k}:
  // the chain of matmul_tn(gy permuted to rows, cols_).
  Tensor& dw = ws_->acquire(ws_, kWsDw, {fan_out_, fan_in_});
  dw.zero();
  matmul_acc_into(gy, cols_, n, dw);
  accumulate_weight_grad(dw);
  const ConvGeom geom{n,       in_channels_, x_shape_[2], x_shape_[3],
                      kernel_, stride_,      pad_,        oh,
                      ow};
  Tensor gx;
  conv_backward_data(gy, weff_, geom, gx);
  if (x_mask_.size() == gx.size()) {
    float* p = gx.data();
    const float* m = x_mask_.data();
    parallel_for_elems(gx.size(), [p, m](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) p[i] *= m[i];
    });
  }
  return gx;
}

}  // namespace qavat
