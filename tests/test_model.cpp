// Tier-1: dataset generation, model construction/forward shapes for all
// three kinds, clone fidelity, and gradient sanity via a finite-difference
// probe on a quant linear layer.
#include "core/models/models.h"

#include <memory>

#include "data/synth.h"
#include "tests/test_common.h"

using namespace qavat;

int main() {
  // Synthetic digits: shapes, label balance, value range.
  SynthDigitsConfig dcfg;
  dcfg.n_train = 200;
  dcfg.n_test = 50;
  SplitDataset data = make_synth_digits(dcfg);
  CHECK(data.train.size() == 200);
  CHECK(data.test.size() == 50);
  CHECK(data.train.num_classes == 10);
  CHECK(data.train.images.shape() == (std::vector<index_t>{200, 1, 12, 12}));
  for (index_t i = 0; i < data.train.images.size(); ++i) {
    CHECK(data.train.images[i] >= 0.0f && data.train.images[i] <= 1.0f);
  }
  Tensor batch = data.train.gather_images({0, 5, 7});
  CHECK(batch.shape() == (std::vector<index_t>{3, 1, 12, 12}));

  SynthImagesConfig icfg;
  icfg.n_train = 60;
  icfg.n_test = 20;
  SplitDataset img = make_synth_images(icfg);
  CHECK(img.train.images.shape() == (std::vector<index_t>{60, 3, 16, 16}));

  // All three model kinds build and produce {N, num_classes} logits.
  struct Case {
    ModelKind kind;
    index_t in_channels, image_size;
  };
  const Case cases[] = {
      {ModelKind::kLeNet5s, 1, 12},
      {ModelKind::kVGG11s, 3, 16},
      {ModelKind::kResNet18s, 3, 16},
  };
  for (const Case& c : cases) {
    ModelConfig mcfg;
    mcfg.a_bits = 4;
    mcfg.w_bits = 2;
    mcfg.in_channels = c.in_channels;
    mcfg.image_size = c.image_size;
    mcfg.num_classes = 10;
    auto model = make_model(c.kind, mcfg);
    CHECK(model->parameter_count() > 1000);
    CHECK(!quant_layers(*model).empty());
    Tensor x({2, c.in_channels, c.image_size, c.image_size});
    Rng rng(4);
    fill_uniform(x, rng, 0.0, 1.0);
    model->set_training(false);
    Tensor y = model->forward(x);
    CHECK(y.shape() == (std::vector<index_t>{2, 10}));

    // Clone reproduces the forward bit for bit (the evaluator's chip
    // lanes each run on a clone and must match the source exactly).
    for (QuantLayerBase* q : quant_layers(*model)) {
      q->refresh_weight_scale();
      q->act_quantizer().set_scale(0.05f);
    }
    Tensor y1 = model->forward(x);
    auto copy = clone_model(*model);
    Tensor y2 = copy->forward(x);
    for (index_t i = 0; i < y1.size(); ++i) CHECK(y1[i] == y2[i]);
    // The clone mirrors the source layer by layer and owns its weights.
    const auto src_params = model->parameters();
    const auto dst_params = copy->parameters();
    CHECK(src_params.size() == dst_params.size());
    for (std::size_t i = 0; i < src_params.size() && i < dst_params.size(); ++i) {
      CHECK(src_params[i]->value.shape() == dst_params[i]->value.shape());
      CHECK(src_params[i]->value.data() != dst_params[i]->value.data());
    }
  }

  // A hand-built stack clones as itself, not as the zoo model its kind
  // tag names, and carries per-layer calibration and quant gates.
  {
    ModelConfig mcfg;
    Rng rng(9);
    auto mlp = std::make_unique<Module>(ModelKind::kLeNet5s, mcfg);
    mlp->add_layer(std::make_unique<QuantLinear>(20, 16, 4, 2, rng));
    mlp->add_layer(std::make_unique<QuantLinear>(16, 10, 4, 2, rng));
    auto qs = quant_layers(*mlp);
    qs[0]->refresh_weight_scale();
    qs[0]->act_quantizer().set_scale(0.1f);
    qs[1]->set_quant_enabled(false);
    mlp->set_training(false);
    Tensor x({3, 20});
    fill_uniform(x, rng, 0.0, 1.0);
    Tensor y1 = mlp->forward(x);
    auto copy = clone_model(*mlp);
    auto cq = quant_layers(*copy);
    CHECK(cq.size() == 2);
    CHECK(copy->parameter_count() == mlp->parameter_count());
    CHECK(cq[0]->weight_scale() == qs[0]->weight_scale());
    CHECK(!cq[1]->quant_enabled());
    Tensor y2 = copy->forward(x);
    CHECK(y2.shape() == y1.shape());
    for (index_t i = 0; i < y1.size(); ++i) CHECK(y1[i] == y2[i]);
  }

  // Finite-difference gradient probe on a float (quant-disabled) linear
  // layer: backward must match numeric dL/dw.
  Rng rng(6);
  QuantLinear lin(5, 3, 8, 8, rng);
  lin.set_quant_enabled(false);
  lin.set_training(true);
  Tensor x({2, 5});
  fill_normal(x, rng);
  std::vector<index_t> labels = {1, 2};
  auto loss_of = [&]() {
    Tensor logits = lin.forward(x);
    return softmax_xent(logits, labels, nullptr);
  };
  Tensor logits = lin.forward(x);
  Tensor grad;
  softmax_xent(logits, labels, &grad);
  lin.weight().ensure_grad();
  lin.weight().grad.zero();
  lin.backward(grad);
  const double eps = 1e-3;
  for (index_t i : {index_t{0}, index_t{7}, index_t{14}}) {
    const float w0 = lin.weight().value[i];
    lin.weight().value[i] = w0 + static_cast<float>(eps);
    const double lp = loss_of();
    lin.weight().value[i] = w0 - static_cast<float>(eps);
    const double lm = loss_of();
    lin.weight().value[i] = w0;
    const double numeric = (lp - lm) / (2.0 * eps);
    CHECK_NEAR(lin.weight().grad[i], numeric, 5e-3);
  }
  return qavat::test::finish("test_model");
}
