#include "core/models/models.h"

#include "tensor/conv_ops.h"
#include "tensor/parallel_for.h"

namespace qavat {

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLeNet5s: return "lenet5s";
    case ModelKind::kVGG11s: return "vgg11s";
    case ModelKind::kResNet18s: return "resnet18s";
  }
  return "?";
}

namespace {

class ReluLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    relu_inplace(y, training_ ? &mask_ : nullptr);
    return y;
  }
  Tensor backward(const Tensor& gy) override {
    Tensor gx;
    gx.resize_for_overwrite(gy.shape());
    const float* g = gy.data();
    const float* m = mask_.data();
    float* p = gx.data();
    parallel_for_elems(gy.size(), [p, g, m](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) p[i] = g[i] * m[i];
    });
    return gx;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReluLayer>();
  }

 private:
  Tensor mask_;
};

// Thin adapter over the threaded pooling kernels in tensor/conv_ops.h.
class MaxPool2dLayer : public Layer {
 public:
  explicit MaxPool2dLayer(index_t k) : k_(k) {}

  Tensor forward(const Tensor& x) override {
    in_shape_ = x.shape();
    Tensor y;
    maxpool2d(x, k_, y, arg_);
    return y;
  }

  Tensor backward(const Tensor& gy) override {
    Tensor gx;
    maxpool2d_backward(gy, arg_, in_shape_, gx);
    return gx;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2dLayer>(k_);
  }

 private:
  index_t k_;
  std::vector<index_t> in_shape_;
  std::vector<index_t> arg_;
};

class FlattenLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    in_shape_ = x.shape();
    Tensor y = x;
    y.reshape({x.dim(0), x.size() / x.dim(0)});
    return y;
  }
  Tensor backward(const Tensor& gy) override {
    Tensor gx = gy;
    gx.reshape(in_shape_);
    return gx;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FlattenLayer>();
  }

 private:
  std::vector<index_t> in_shape_;
};

/// conv1 -> relu -> conv2, plus identity (or 1x1 projection) skip, final
/// relu. The composite owns its sublayers and wires backward by hand.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(index_t cin, index_t cout, index_t a_bits, index_t w_bits,
                Rng& rng)
      : conv1_(cin, cout, 3, 1, 1, a_bits, w_bits, rng),
        conv2_(cout, cout, 3, 1, 1, a_bits, w_bits, rng) {
    if (cin != cout) {
      proj_ = std::make_unique<QuantConv2d>(cin, cout, 1, 1, 0, a_bits, w_bits,
                                            rng);
    }
  }
  // Replica copy behind clone(): the convs copy as QuantConv2d replicas;
  // the ReLU masks start empty.
  ResidualBlock(const ResidualBlock& src)
      : Layer(),
        conv1_(src.conv1_),
        conv2_(src.conv2_),
        proj_(src.proj_ ? std::make_unique<QuantConv2d>(*src.proj_) : nullptr) {}

  Tensor forward(const Tensor& x) override {
    Tensor h = conv1_.forward(x);
    relu_inplace(h, training_ ? &mask1_ : nullptr);
    Tensor y = conv2_.forward(h);
    Tensor s = proj_ ? proj_->forward(x) : x;
    float* py = y.data();
    const float* ps = s.data();
    for (index_t i = 0; i < y.size(); ++i) py[i] += ps[i];
    relu_inplace(y, training_ ? &mask2_ : nullptr);
    return y;
  }

  Tensor backward(const Tensor& gy) override {
    Tensor g;
    g.resize_for_overwrite(gy.shape());
    {
      const float* src = gy.data();
      const float* m = mask2_.data();
      float* dst = g.data();
      for (index_t i = 0; i < gy.size(); ++i) dst[i] = src[i] * m[i];
    }
    Tensor gh = conv2_.backward(g);
    {
      float* p = gh.data();
      const float* m = mask1_.data();
      for (index_t i = 0; i < gh.size(); ++i) p[i] *= m[i];
    }
    Tensor gx = conv1_.backward(gh);
    Tensor gskip = proj_ ? proj_->backward(g) : g;
    float* p = gx.data();
    const float* ps = gskip.data();
    for (index_t i = 0; i < gx.size(); ++i) p[i] += ps[i];
    return gx;
  }

  void collect_params(std::vector<Param*>& out) override {
    conv1_.collect_params(out);
    conv2_.collect_params(out);
    if (proj_) proj_->collect_params(out);
  }
  void collect_quant(std::vector<QuantLayerBase*>& out) override {
    conv1_.collect_quant(out);
    conv2_.collect_quant(out);
    if (proj_) proj_->collect_quant(out);
  }
  void set_training(bool training) override {
    Layer::set_training(training);
    conv1_.set_training(training);
    conv2_.set_training(training);
    if (proj_) proj_->set_training(training);
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ResidualBlock>(*this);
  }
  void set_workspace(Workspace* ws) override {
    conv1_.set_workspace(ws);
    conv2_.set_workspace(ws);
    if (proj_) proj_->set_workspace(ws);
  }

 private:
  QuantConv2d conv1_, conv2_;
  std::unique_ptr<QuantConv2d> proj_;
  Tensor mask1_, mask2_;
};

}  // namespace

Tensor Module::forward(const Tensor& x) {
  // This thread is the model's single workspace driver for the pass;
  // a concurrent pass on the same model aborts loudly (training and
  // chip lanes run concurrent passes on DIFFERENT models only).
  Workspace::DriverScope driver(workspace_);
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  // Scratch slots are dead between top-level passes; enforce the
  // retention cap here (Workspace lifetime contract).
  workspace_.trim(Workspace::kCapBytes);
  return h;
}

void Module::backward(const Tensor& grad_logits) {
  Workspace::DriverScope driver(workspace_);
  Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  workspace_.trim(Workspace::kCapBytes);
}

std::vector<Param*> Module::parameters() {
  std::vector<Param*> out;
  for (auto& layer : layers_) layer->collect_params(out);
  return out;
}

std::vector<QuantLayerBase*> Module::quant_layers() {
  std::vector<QuantLayerBase*> out;
  for (auto& layer : layers_) layer->collect_quant(out);
  return out;
}

index_t Module::parameter_count() {
  index_t n = 0;
  for (Param* p : parameters()) n += p->value.size();
  return n;
}

void Module::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

void Module::set_quant_enabled(bool on) {
  for (QuantLayerBase* q : quant_layers()) q->set_quant_enabled(on);
}

void Module::zero_grad() {
  for (Param* p : parameters()) {
    p->ensure_grad();
    p->grad.zero();
  }
}

std::unique_ptr<Module> make_model(ModelKind kind, const ModelConfig& cfg) {
  auto m = std::make_unique<Module>(kind, cfg);
  Rng rng(cfg.init_seed, static_cast<std::uint64_t>(kind));
  const index_t a = cfg.a_bits, w = cfg.w_bits;
  const index_t s = cfg.image_size;
  switch (kind) {
    case ModelKind::kLeNet5s: {
      // 12x12 -> conv(8) -> pool 6x6 -> conv(16) -> pool 3x3 -> 84 -> nc
      m->add_layer(std::make_unique<QuantConv2d>(cfg.in_channels, 8, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<QuantConv2d>(8, 16, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<FlattenLayer>());
      const index_t flat = 16 * (s / 4) * (s / 4);
      m->add_layer(std::make_unique<QuantLinear>(flat, 84, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<QuantLinear>(84, cfg.num_classes, a, w, rng));
      break;
    }
    case ModelKind::kVGG11s: {
      // 16x16 -> [conv16, pool] -> [conv32, pool] -> [conv32, pool] -> fc
      m->add_layer(std::make_unique<QuantConv2d>(cfg.in_channels, 16, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<QuantConv2d>(16, 32, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<QuantConv2d>(32, 32, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<FlattenLayer>());
      const index_t flat = 32 * (s / 8) * (s / 8);
      m->add_layer(std::make_unique<QuantLinear>(flat, 64, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<QuantLinear>(64, cfg.num_classes, a, w, rng));
      break;
    }
    case ModelKind::kResNet18s: {
      // 16x16 -> conv16 -> block(16) -> pool -> block(16->32) -> pool -> fc
      m->add_layer(std::make_unique<QuantConv2d>(cfg.in_channels, 16, 3, 1, 1, a, w, rng));
      m->add_layer(std::make_unique<ReluLayer>());
      m->add_layer(std::make_unique<ResidualBlock>(16, 16, a, w, rng));
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<ResidualBlock>(16, 32, a, w, rng));
      m->add_layer(std::make_unique<MaxPool2dLayer>(2));
      m->add_layer(std::make_unique<FlattenLayer>());
      const index_t flat = 32 * (s / 4) * (s / 4);
      m->add_layer(std::make_unique<QuantLinear>(flat, cfg.num_classes, a, w, rng));
      break;
    }
  }
  return m;
}

std::unique_ptr<Module> clone_model(const Module& model) {
  auto copy = std::make_unique<Module>(model.kind(), model.config());
  for (const auto& layer : model.layers_) copy->add_layer(layer->clone());
  // Clones start in eval mode so a forward is bit-identical to the source
  // (training mode would EMA-update the activation scales).
  copy->set_training(false);
  return copy;
}

std::vector<QuantLayerBase*> quant_layers(Module& m) { return m.quant_layers(); }

StateDict module_state_dict(Module& m) {
  StateDict sd;
  const ModelConfig& c = m.config();
  sd.add_scalar("kind", static_cast<double>(static_cast<int>(m.kind())));
  sd.add_scalar("a_bits", static_cast<double>(c.a_bits));
  sd.add_scalar("w_bits", static_cast<double>(c.w_bits));
  sd.add_scalar("in_channels", static_cast<double>(c.in_channels));
  sd.add_scalar("image_size", static_cast<double>(c.image_size));
  sd.add_scalar("num_classes", static_cast<double>(c.num_classes));
  sd.add_scalar("init_seed", static_cast<double>(c.init_seed));
  const auto params = m.parameters();
  sd.add_scalar("n_params", static_cast<double>(params.size()));
  for (std::size_t i = 0; i < params.size(); ++i) {
    sd.add_tensor("param." + std::to_string(i), params[i]->value);
  }
  const auto qs = m.quant_layers();
  sd.add_scalar("n_qlayers", static_cast<double>(qs.size()));
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::string p = "q" + std::to_string(i);
    sd.add_scalar(p + ".w_scale", static_cast<double>(qs[i]->weight_scale()));
    sd.add_scalar(p + ".act_scale",
                  static_cast<double>(qs[i]->act_quantizer().scale()));
    sd.add_scalar(p + ".quant_on", qs[i]->quant_enabled() ? 1.0 : 0.0);
  }
  return sd;
}

bool load_module_state(Module& m, const StateDict& sd) {
  const auto scalar_is = [&sd](const char* name, double want) {
    const double* v = sd.find_scalar(name);
    return v != nullptr && *v == want;
  };
  const ModelConfig& c = m.config();
  if (!scalar_is("kind", static_cast<double>(static_cast<int>(m.kind()))) ||
      !scalar_is("a_bits", static_cast<double>(c.a_bits)) ||
      !scalar_is("w_bits", static_cast<double>(c.w_bits)) ||
      !scalar_is("in_channels", static_cast<double>(c.in_channels)) ||
      !scalar_is("image_size", static_cast<double>(c.image_size)) ||
      !scalar_is("num_classes", static_cast<double>(c.num_classes)) ||
      !scalar_is("init_seed", static_cast<double>(c.init_seed))) {
    return false;
  }
  const auto params = m.parameters();
  const auto qs = m.quant_layers();
  if (!scalar_is("n_params", static_cast<double>(params.size())) ||
      !scalar_is("n_qlayers", static_cast<double>(qs.size()))) {
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor* t = sd.find_tensor("param." + std::to_string(i));
    if (t == nullptr || t->shape() != params[i]->value.shape()) return false;
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::string p = "q" + std::to_string(i);
    if (sd.find_scalar(p + ".w_scale") == nullptr ||
        sd.find_scalar(p + ".act_scale") == nullptr ||
        sd.find_scalar(p + ".quant_on") == nullptr) {
      return false;
    }
  }
  // All shapes validated; now mutate.
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = *sd.find_tensor("param." + std::to_string(i));
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::string p = "q" + std::to_string(i);
    qs[i]->set_weight_scale(static_cast<float>(*sd.find_scalar(p + ".w_scale")));
    qs[i]->act_quantizer().set_scale(
        static_cast<float>(*sd.find_scalar(p + ".act_scale")));
    qs[i]->set_quant_enabled(*sd.find_scalar(p + ".quant_on") != 0.0);
  }
  m.set_training(false);
  return true;
}

}  // namespace qavat
