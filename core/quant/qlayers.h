// Quantized layers with hand-rolled backprop. The layer graph is small
// enough that each layer caches its forward intermediates and implements
// backward() directly; no general autograd.
//
// A quant layer's forward implements the full PIM abstraction pipeline:
//   x -> act-quantize (DAC precision) -> analog MVM with the *effective*
//   weights (quantized grid + injected variability) -> self-tuning
//   correction (when active) -> + digital bias.
// Training backprop uses STE masks through both quantizers, and the
// reparameterized gradient (paper Eq. 2) through multiplicative noise.
#pragma once

#include <memory>
#include <vector>

#include "core/quant/quantizer.h"
#include "core/variability/variability.h"
#include "tensor/conv_ops.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace qavat {

/// Trainable parameter with gradient and Adam state.
struct Param {
  Tensor value;
  Tensor grad;
  Tensor adam_m;
  Tensor adam_v;

  void ensure_grad() {
    if (grad.size() != value.size()) grad.resize(value.shape());
  }
};

/// Correction applied by the self-tuning modules at inference time.
/// kScale divides the analog output by (1 + eps_hat) — the GTM-only
/// correction proper for weight-proportional variance. kOffset subtracts
/// eps_hat * wmax * sum(x) measured through LTM columns — proper for
/// layer-fixed variance.
enum class CorrectionKind { kNone, kScale, kOffset };

/// Per-layer variability realization, set by sample_variability() / the
/// evaluator before a forward pass and cleared afterwards.
///
/// Every realization carries a *noise-batch axis* of `batch` simulated
/// chips (ensure_noise_batch / sample_variability_slot in
/// core/variability/variability.h); one chip — training, the circuit
/// backend, a one-chip group — is batch 1. Invariant: every chip-level
/// vector holds one value per slot (`batch` entries), and an active
/// state's `eps` holds `batch` stacked per-weight draws {batch, fan_out,
/// fan_in}. A forward pass with batch > 1 treats its input rows as
/// `batch` equal chip-major groups and multiplies each group by that
/// chip's effective weights — the batched Monte-Carlo evaluation path.
struct NoiseState {
  bool active = false;
  VarianceModel model = VarianceModel::kWeightProportional;
  Tensor eps;           // per-weight within-chip draws, already scaled by
                        // sigma_w: {batch, fan_out, fan_in}
  index_t batch = 1;    // noise-batch axis: simulated chips per forward
  float wmax = 0.0f;    // max |dequantized weight| at sample time (layer-fixed unit)
  CorrectionKind correction = CorrectionKind::kNone;
  // Chip-level values, one per slot.
  std::vector<float> eps_b{0.0f};    // correlated between-chip deviation
  std::vector<float> eps_hat{0.0f};  // GTM estimate of eps_b (incl. measurement error)
  std::vector<float> ltm_err{0.0f};  // relative error of the LTM activation-sum readout
  // Bumped on every mutation (sampling, resizing, clearing); lets the
  // batched forward reuse its stacked effective weights across the test
  // batches of one chip group instead of rebuilding them per batch.
  std::uint64_t revision = 0;

  void clear() {
    active = false;
    correction = CorrectionKind::kNone;
    batch = 1;
    eps_b.assign(1, 0.0f);
    eps_hat.assign(1, 0.0f);
    ltm_err.assign(1, 0.0f);
    ++revision;
  }
};

class QuantLayerBase;

/// Abstract analog-MVM backend a quant layer's inference forward can be
/// routed through instead of the weight-domain effective-weight GEMM —
/// the seam the circuit-level evaluation path (pim/tiling.h) plugs into.
/// `x2d` is the layer's quantized 2-D activations {rows, fan_in};
/// implementations write {rows, fan_out} into `y` (resizing it without
/// zero-fill) and must be deterministic and bit-identical for any
/// QAVAT_THREADS. Inference-only: installing a backend makes backward()
/// throw, and noise-batched forwards throw unless the backend overrides
/// mvm_grouped_into (the int8 backend does; the circuit backend stays
/// single-chip). Not required to be thread-safe across concurrent calls;
/// the evaluator drives it from one thread.
class AnalogBackend {
 public:
  virtual ~AnalogBackend() = default;
  virtual void mvm_into(const Tensor& x2d, Tensor& y) = 0;
  /// Noise-batched MVM over `groups` chip-major groups, mirroring the
  /// grouped weight-domain GEMMs: with `shared` false, `x2d` is
  /// {groups * rows, fan_in} and group g multiplies against chip slot g's
  /// effective weights; with `shared` true, `x2d` is one {rows, fan_in}
  /// block broadcast to every group. `y` becomes {groups * rows, fan_out},
  /// chip-major, bit-identical to `groups` single-chip calls. The default
  /// delegates groups == 1 to mvm_into and throws std::logic_error
  /// otherwise (single-chip backends need no override).
  virtual void mvm_grouped_into(const Tensor& x2d, index_t groups, bool shared,
                                Tensor& y);
  /// Return true when this backend derives the activation codes itself
  /// from RAW (pre-quantizer) activations — clamp(nearbyint(x / scale))
  /// yields the same integer code whether x is raw or already on the
  /// activation grid, so the layer skips its float quantize-dequantize
  /// pass entirely (one full tensor pass saved per forward, bit-identical
  /// outputs). Backends that consume the activation VALUES (the circuit
  /// simulator's DAC path) keep the default false and receive grid floats.
  virtual bool wants_raw_activations() const { return false; }
};

/// Abstract layer: forward caches what backward needs; backward returns
/// grad wrt input and accumulates parameter grads.
class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;
  /// Independent replica for clone_model: same structure, parameter
  /// values and calibration (weight/activation scales, quant gates), but
  /// fresh everything else — no forward caches, gradients, optimizer
  /// moments, noise realization, installed backend or workspace wiring —
  /// and the default (training) mode, like a newly built layer.
  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual void collect_params(std::vector<Param*>& out) {}
  virtual void collect_quant(std::vector<QuantLayerBase*>& out) {}
  virtual void set_training(bool training) { training_ = training; }
  /// Adopt a shared scratch arena (Module wires its own into every layer
  /// at add_layer time); layers without scratch needs ignore it.
  virtual void set_workspace(Workspace* ws) {}
  bool training() const { return training_; }

 protected:
  bool training_ = true;
};

class QuantLayerBase : public Layer {
 public:
  QuantLayerBase(index_t fan_in, index_t fan_out, index_t a_bits, index_t w_bits);

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }

  index_t fan_in() const { return fan_in_; }
  index_t fan_out() const { return fan_out_; }
  index_t weight_bits() const { return w_bits_; }
  index_t act_bits() const { return a_bits_; }

  float weight_scale() const { return w_scale_; }
  void set_weight_scale(float s) { w_scale_ = s; }
  /// Recompute the MMSE grid scale from the current float weights.
  void refresh_weight_scale();

  ActQuantizer& act_quantizer() { return act_quant_; }
  NoiseState& noise_state() { return noise_; }

  void set_quant_enabled(bool on) { quant_enabled_ = on; }
  bool quant_enabled() const { return quant_enabled_; }
  void set_reparam(bool on) { reparam_ = on; }

  /// MACs of the last forward pass, per sample.
  double last_macs() const { return last_macs_; }
  /// Output positions per sample of the last forward (1 for linear,
  /// OH*OW for conv) — used by the self-tune overhead accounting.
  double last_positions() const { return last_positions_; }

  void collect_params(std::vector<Param*>& out) override {
    out.push_back(&weight_);
    out.push_back(&bias_);
  }
  void collect_quant(std::vector<QuantLayerBase*>& out) override {
    out.push_back(this);
  }

  /// Max |dequantized weight| under the current scale (the layer-fixed
  /// variability unit).
  float dequant_weight_max() const;

  /// Active noise-batch width: chips simulated per forward (1 = one
  /// chip). Inputs to forward() must carry rows_per_chip * noise_batch()
  /// rows, grouped chip-major.
  index_t noise_batch() const { return noise_.active ? noise_.batch : 1; }

  void set_workspace(Workspace* ws) override { ws_ = ws ? ws : &local_ws_; }

  /// Route this layer's analog MVM through `backend` (nullptr restores
  /// the weight-domain path). Inference-only: while a backend is
  /// installed, backward() throws std::logic_error, and noise-batched
  /// (batch > 1) forwards are routed to mvm_grouped_into — which itself
  /// throws unless the backend supports grouping. The backend must
  /// outlive the installation; the evaluator uninstalls before backends
  /// are torn down.
  void set_analog_backend(AnalogBackend* backend) { analog_backend_ = backend; }
  AnalogBackend* analog_backend() const { return analog_backend_; }

  /// The effective weights an installed AnalogBackend should program:
  /// runs compute_effective_weight() and exposes the result —
  /// {noise_batch() * fan_out, fan_in} stacked chip blocks when noise is
  /// batched (NoiseState::revision-cached), {fan_out, fan_in} otherwise.
  /// The reference is invalidated by the next forward/backward or noise
  /// mutation; backends re-read it per refresh (keyed on the revision)
  /// rather than holding it. Inference-only: throws std::logic_error in
  /// training mode.
  const Tensor& backend_effective_weight();

  /// Weights as they would be programmed on an analog array: the
  /// quantize-dequantize grid under the current scale when quantization
  /// is enabled and calibrated, the raw float weights otherwise.
  /// {fan_out, fan_in}; returns a fresh tensor (call once per
  /// deployment, not per forward).
  Tensor programmed_weight() const;

 protected:
  /// Transient scratch-slot ids, keyed (workspace, slot): every layer of
  /// a model shares them, so the model retains the largest layer's
  /// scratch rather than the sum over layers. No slot's contents survive
  /// the layer call that acquired it; forward caches (`cols_`, `xq_`,
  /// the STE masks) are members.
  enum WsSlot {
    kWsXq = 0,      // quantized input (training conv path)
    kWsY2d = 1,     // 2-D analog output before the NCHW permute
    kWsGy2d = 2,    // permuted upstream gradient
    kWsDw = 3,      // grad wrt effective weight
    kWsDcols = 4,   // grad wrt im2col matrix
    kWsBlock = 5,   // first chip block of a shared batched input
  };
  /// Effective weight for the analog MVM: quantize-dequantize (when
  /// enabled) then apply the active noise realization. With a noise batch
  /// of B, builds B stacked effective-weight blocks {B*fan_out, fan_in}
  /// from one shared quantize-dequantize pass (inference only). Also
  /// caches the weight STE mask for backward in training mode.
  void compute_effective_weight();
  /// Quantize input activations into `out` (observing ranges in training
  /// mode). `out` is typically a workspace buffer or a member cache.
  void quantize_input(const Tensor& x, Tensor& out);
  /// Validate a noise-batched input's leading dimension and detect the
  /// shared-input case (all nb chip blocks bit-identical — true at the
  /// first quant layer of a batched Monte-Carlo forward). Throws
  /// std::invalid_argument when the rows don't divide by nb.
  bool batched_input_shared(const Tensor& x, index_t nb, const char* who) const;
  /// quantize_input of either the full input or, when `shared`, just its
  /// first chip block (the broadcast fast path), written into `out`.
  void quantize_forward_input(const Tensor& x, index_t nb, bool shared,
                              Tensor& out);
  /// True when the installed backend re-derives activation codes from raw
  /// activations itself (AnalogBackend::wants_raw_activations) and the
  /// quantizer is active: the forward then feeds the backend unquantized
  /// input and skips the float activation-grid pass — one full tensor
  /// pass saved per forward, bit-identical codes.
  bool backend_takes_raw() const {
    return analog_backend_ != nullptr && !training_ && quant_enabled_ &&
           act_quant_.calibrated() && analog_backend_->wants_raw_activations();
  }
  /// Replica constructor behind clone(): copies the shape, bit widths,
  /// parameter values, weight scale, activation quantizer and the quant /
  /// reparam gates; every other member starts as in a new layer.
  QuantLayerBase(const QuantLayerBase& src);
  QuantLayerBase& operator=(const QuantLayerBase&) = delete;
  /// Analog MVM of the (possibly chip-grouped) 2-D activations against
  /// the effective weights, plus the self-tuning correction: dispatches
  /// the plain / grouped / shared NT GEMM and feeds the LTM row sums
  /// (tiled when the input is shared). Writes into `y` (workspace
  /// buffer); allocation-free at steady shape.
  void analog_matmul_into(const Tensor& a2d, index_t nb, bool shared,
                          Tensor& y) const;
  /// Apply the active self-tuning correction to the 2-D analog output
  /// {rows, fan_out}; `row_sums` holds sum_j xq_j per row (LTM measurand).
  void apply_correction(Tensor& y2d, const std::vector<float>& row_sums) const;
  /// Gradient wrt the quantized weight -> accumulate into weight_.grad,
  /// applying the reparameterization factor and the weight STE mask.
  void accumulate_weight_grad(const Tensor& grad_weff);

  index_t fan_in_, fan_out_;
  index_t a_bits_, w_bits_;
  float w_scale_ = 0.0f;
  bool quant_enabled_ = true;
  bool reparam_ = true;
  Param weight_;  // float master weights, shape {fan_out, fan_in}
  Param bias_;    // shape {fan_out}
  ActQuantizer act_quant_;
  NoiseState noise_;
  // forward caches
  Tensor weff_;      // effective weights used by the last forward
                     // ({noise batch * fan_out, fan_in} when batched)
  Tensor wq_base_;   // shared quantize-dequantize result for batched noise
  std::uint64_t weff_revision_ = ~std::uint64_t{0};  // NoiseState revision
                     // the batched weff_ was built from (cache key)
  Tensor w_mask_;    // weight STE mask
  Tensor x_mask_;    // activation STE mask
  double last_macs_ = 0.0;
  double last_positions_ = 1.0;
  // Scratch arena: Module injects its shared workspace via
  // set_workspace(); standalone layers (benches, unit tests) fall back to
  // a private one so the zero-alloc reuse applies everywhere.
  Workspace local_ws_;
  Workspace* ws_ = &local_ws_;
  // Non-owning circuit-level MVM route (nullptr = weight-domain GEMM).
  AnalogBackend* analog_backend_ = nullptr;
};

/// Fully connected quantized layer: x {N, in} -> {N, out}.
class QuantLinear : public QuantLayerBase {
 public:
  QuantLinear(index_t in, index_t out, index_t a_bits, index_t w_bits, Rng& rng);
  /// Replica copy (see QuantLayerBase's copy constructor); the quantized
  /// input cache starts empty.
  QuantLinear(const QuantLinear& src);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<QuantLinear>(*this);
  }

 private:
  Tensor xq_;  // quantized input of the last forward
};

/// 2-D convolution over NCHW via im2col: weight {cout, cin*k*k}.
///
/// Inference forwards fuse the activation quantizer into the im2col
/// gather (tensor/conv_ops.h) — no intermediate quantized tensor — and
/// all scratch (2-D GEMM output, permuted gradients) lives in the
/// workspace, so repeated same-shape calls are allocation-free. `cols_`
/// stays a member: it is the forward cache backward consumes, which the
/// workspace lifetime contract excludes from its slots.
class QuantConv2d : public QuantLayerBase {
 public:
  QuantConv2d(index_t in_channels, index_t out_channels, index_t kernel,
              index_t stride, index_t pad, index_t a_bits, index_t w_bits,
              Rng& rng);
  /// Replica copy (see QuantLayerBase's copy constructor); the im2col
  /// forward cache starts empty.
  QuantConv2d(const QuantConv2d& src);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<QuantConv2d>(*this);
  }

  index_t out_size(index_t in) const { return (in + 2 * pad_ - kernel_) / stride_ + 1; }

 private:
  index_t in_channels_, out_channels_, kernel_, stride_, pad_;
  std::vector<index_t> x_shape_;
  Tensor cols_;  // im2col of the quantized input {N*OH*OW, cin*k*k}
};

}  // namespace qavat
