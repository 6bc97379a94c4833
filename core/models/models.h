// Model zoo. The paper evaluates LeNet-5, VGG-11 and ResNet-18; this
// reproduction uses width/depth-reduced counterparts ("-s" suffix) sized
// for the synthetic datasets so the full Monte-Carlo protocol runs on a
// single CPU (DESIGN.md §2). Every conv/linear layer is a quant layer, so
// variability injection and self-tuning apply to the whole network.
#pragma once

#include <memory>
#include <vector>

#include "core/quant/qlayers.h"
#include "tensor/serialize.h"

namespace qavat {

enum class ModelKind { kLeNet5s, kVGG11s, kResNet18s };

const char* to_string(ModelKind kind);

struct ModelConfig {
  index_t a_bits = 4;
  index_t w_bits = 2;
  index_t in_channels = 1;
  index_t image_size = 12;
  index_t num_classes = 10;
  std::uint64_t init_seed = 77;
};

/// A feed-forward stack of layers (composites like residual blocks are
/// single entries) with hand-rolled backprop.
class Module {
 public:
  Module(ModelKind kind, ModelConfig cfg) : kind_(kind), cfg_(cfg) {}
  // Layers hold the address of workspace_ (set at add_layer time), so a
  // moved/copied Module would leave them pointing into the source object.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  Tensor forward(const Tensor& x);
  /// Backprop from dL/dlogits; accumulates parameter grads.
  void backward(const Tensor& grad_logits);

  std::vector<Param*> parameters();
  std::vector<QuantLayerBase*> quant_layers();
  index_t parameter_count();

  void set_training(bool training);
  void set_quant_enabled(bool on);
  void zero_grad();

  ModelKind kind() const { return kind_; }
  const ModelConfig& config() const { return cfg_; }

  void add_layer(std::unique_ptr<Layer> layer) {
    layer->set_workspace(&workspace_);
    layers_.push_back(std::move(layer));
  }

  /// Scratch arena shared by every layer of this model (DESIGN.md §8):
  /// sized once per (shape, batch) and reused across Monte-Carlo chips
  /// and training steps; forward/backward trim it to Workspace::kCapBytes.
  Workspace& workspace() { return workspace_; }

 private:
  friend std::unique_ptr<Module> clone_model(const Module& model);

  ModelKind kind_;
  ModelConfig cfg_;
  std::vector<std::unique_ptr<Layer>> layers_;
  Workspace workspace_;
};

std::unique_ptr<Module> make_model(ModelKind kind, const ModelConfig& cfg);

/// Deep copy, layer by layer (Layer::clone): same kind, config,
/// structure, parameter values and calibration, so a forward is
/// bit-identical to the source's — for zoo models and hand-built stacks
/// alike. Gradients, optimizer moments, noise realizations and installed
/// backends are not copied; the clone starts in eval mode. Each of the
/// evaluator's chip lanes runs on one.
std::unique_ptr<Module> clone_model(const Module& model);

/// All quant layers in forward order (free-function form used by benches).
std::vector<QuantLayerBase*> quant_layers(Module& m);

/// Serializable snapshot of everything the experiment cache persists:
/// parameter tensors, per-quant-layer weight/activation scales and quant
/// gates, plus the model identity (kind + config scalars) used to
/// validate a load. Pair with tensor/serialize.h to write it to disk.
StateDict module_state_dict(Module& m);

/// Restore a state dict into a model of the same kind and config.
/// Returns false — leaving the model's parameters unspecified — when the
/// identity scalars, parameter count or any tensor shape disagree (e.g. a
/// stale artifact after a model-zoo change); callers fall back to
/// retraining. Leaves the model in eval mode on success.
bool load_module_state(Module& m, const StateDict& sd);

}  // namespace qavat
