// Tier-1: the threaded conv-pipeline kernels (tensor/conv_ops.h) against
// naive references on odd pad/stride/kernel combos, the fused
// act-quantize gather, the col2im determinism contract (gather form: no
// scatter races, no atomics — bit-identical for any thread count), max
// pooling, conv forward/backward and batched-eval thread bit-identity,
// and the workspace zero-alloc steady-state invariant.
#include <cmath>
#include <cstring>
#include <vector>

#include "core/models/models.h"
#include "core/quant/qlayers.h"
#include "eval/evaluator.h"
#include "tensor/conv_ops.h"
#include "tensor/ops.h"
#include "tensor/parallel_for.h"
#include "tensor/workspace.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Naive per-element im2col gather (the algorithm, no schedule).
Tensor naive_im2col(const Tensor& x, const ConvGeom& g) {
  Tensor cols({g.rows(), g.ckk()});
  for (index_t ni = 0; ni < g.n; ++ni) {
    for (index_t y = 0; y < g.oh; ++y) {
      for (index_t xo = 0; xo < g.ow; ++xo) {
        float* row = cols.data() + ((ni * g.oh + y) * g.ow + xo) * g.ckk();
        for (index_t ci = 0; ci < g.c; ++ci) {
          const float* plane = x.data() + (ni * g.c + ci) * g.h * g.w;
          for (index_t ky = 0; ky < g.k; ++ky) {
            const index_t iy = y * g.stride - g.pad + ky;
            for (index_t kx = 0; kx < g.k; ++kx) {
              const index_t ix = xo * g.stride - g.pad + kx;
              const bool in = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
              row[(ci * g.k + ky) * g.k + kx] = in ? plane[iy * g.w + ix] : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

// Naive scatter-add col2im (the PR-2-era serial reference). Run serially
// only — as a scatter over overlapping windows it would race if split
// across threads, which is exactly the hazard the production gather-form
// col2im is restructured to avoid.
Tensor naive_col2im(const Tensor& cols, const ConvGeom& g) {
  Tensor gx({g.n, g.c, g.h, g.w});
  for (index_t ni = 0; ni < g.n; ++ni) {
    for (index_t y = 0; y < g.oh; ++y) {
      for (index_t xo = 0; xo < g.ow; ++xo) {
        const float* row = cols.data() + ((ni * g.oh + y) * g.ow + xo) * g.ckk();
        for (index_t ci = 0; ci < g.c; ++ci) {
          float* plane = gx.data() + (ni * g.c + ci) * g.h * g.w;
          for (index_t ky = 0; ky < g.k; ++ky) {
            const index_t iy = y * g.stride - g.pad + ky;
            if (iy < 0 || iy >= g.h) continue;
            for (index_t kx = 0; kx < g.k; ++kx) {
              const index_t ix = xo * g.stride - g.pad + kx;
              if (ix < 0 || ix >= g.w) continue;
              plane[iy * g.w + ix] += row[(ci * g.k + ky) * g.k + kx];
            }
          }
        }
      }
    }
  }
  return gx;
}

double max_rel_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    const double s = std::max(1.0, std::fabs(static_cast<double>(b[i])));
    m = std::max(m, d / s);
  }
  return m;
}

ConvGeom geom_of(index_t n, index_t c, index_t h, index_t w, index_t k,
                 index_t stride, index_t pad) {
  ConvGeom g{n, c, h, w, k, stride, pad, 0, 0};
  g.oh = (h + 2 * pad - k) / stride + 1;
  g.ow = (w + 2 * pad - k) / stride + 1;
  return g;
}

void check_im2col_col2im(const ConvGeom& g, Rng& rng) {
  Tensor x({g.n, g.c, g.h, g.w});
  fill_normal(x, rng);

  // im2col is a pure gather: bitwise equal to the naive loop nest.
  Tensor cols;
  im2col(x, g, cols);
  Tensor ref = naive_im2col(x, g);
  CHECK(bits_equal(cols, ref));

  // col2im round trip: the gather form sums the same <= K*K floats per
  // element as the scatter reference, in a different (but fixed) order —
  // equal up to reassociation.
  Tensor dcols({g.rows(), g.ckk()});
  fill_normal(dcols, rng);
  Tensor gx;
  col2im(dcols, g, gx);
  Tensor gref = naive_col2im(dcols, g);
  CHECK(gx.shape() == gref.shape());
  CHECK(max_rel_diff(gx, gref) < 1e-5);

  // Thread bit-identity for both kernels (determinism contract).
  const index_t saved = num_threads();
  set_num_threads(1);
  Tensor cols1, gx1;
  im2col(x, g, cols1);
  col2im(dcols, g, gx1);
  for (index_t nt : {2, 5}) {
    set_num_threads(nt);
    Tensor colsn, gxn;
    im2col(x, g, colsn);
    col2im(dcols, g, gxn);
    CHECK(bits_equal(colsn, cols1));
    CHECK(bits_equal(gxn, gx1));
  }
  set_num_threads(saved);
}

void check_fused_quant_gather(Rng& rng) {
  const ConvGeom g = geom_of(3, 4, 9, 7, 3, 1, 1);
  Tensor x({g.n, g.c, g.h, g.w});
  fill_normal(x, rng);
  ActQuantizer aq(4);
  aq.set_scale(0.17f);
  Tensor xq;
  aq.quantize(x, xq, nullptr);
  Tensor ref;
  im2col(xq, g, ref);
  Tensor fused;
  im2col_quant(x, g, aq.scale(), unsigned_qmax(aq.bits()), fused);
  CHECK(bits_equal(fused, ref));  // fusion must be arithmetic-identical
}

void check_maxpool(Rng& rng) {
  // Odd spatial sizes exercise the floor semantics (trailing rows/cols
  // that do not fill a window are dropped).
  for (index_t h : {8, 7}) {
    const index_t n = 2, c = 3, w = h + 1, k = 2;
    Tensor x({n, c, h, w});
    fill_normal(x, rng);
    Tensor y;
    std::vector<index_t> arg;
    maxpool2d(x, k, y, arg);
    const index_t oh = h / k, ow = w / k;
    CHECK(y.shape() == std::vector<index_t>({n, c, oh, ow}));
    // Reference: direct window max + first-max tie break.
    for (index_t nc = 0; nc < n * c; ++nc) {
      for (index_t oy = 0; oy < oh; ++oy) {
        for (index_t ox = 0; ox < ow; ++ox) {
          index_t best = (oy * k) * w + ox * k;
          float bv = x[nc * h * w + best];
          for (index_t dy = 0; dy < k; ++dy) {
            for (index_t dx = 0; dx < k; ++dx) {
              const index_t idx = (oy * k + dy) * w + ox * k + dx;
              if (x[nc * h * w + idx] > bv) {
                bv = x[nc * h * w + idx];
                best = idx;
              }
            }
          }
          const index_t oi = nc * oh * ow + oy * ow + ox;
          CHECK(y[oi] == bv);
          CHECK(arg[static_cast<std::size_t>(oi)] == nc * h * w + best);
        }
      }
    }
    // Backward scatters gy through argmax; everything else is zero.
    Tensor gy(y.shape());
    fill_normal(gy, rng);
    Tensor gx;
    maxpool2d_backward(gy, arg, x.shape(), gx);
    double sum_gx = 0.0, sum_gy = 0.0;
    for (index_t i = 0; i < gx.size(); ++i) sum_gx += gx[i];
    for (index_t i = 0; i < gy.size(); ++i) sum_gy += gy[i];
    CHECK(std::fabs(sum_gx - sum_gy) < 1e-3);
    for (index_t i = 0; i < gy.size(); ++i) {
      CHECK(gx[arg[static_cast<std::size_t>(i)]] == gy[i]);
    }
    // Thread bit-identity.
    const index_t saved = num_threads();
    for (index_t nt : {1, 2, 5}) {
      set_num_threads(nt);
      Tensor yn, gxn;
      std::vector<index_t> argn;
      maxpool2d(x, k, yn, argn);
      maxpool2d_backward(gy, argn, x.shape(), gxn);
      CHECK(bits_equal(yn, y));
      CHECK(argn == arg);
      CHECK(bits_equal(gxn, gx));
    }
    set_num_threads(saved);
  }
}

// Full conv layer forward+backward must be bit-identical for any thread
// count: output, input gradient, weight and bias gradients.
void check_conv_layer_thread_identity(Rng& rng) {
  const index_t saved = num_threads();
  Tensor x({4, 3, 11, 11});
  fill_normal(x, rng);

  auto run = [&](index_t nt, Tensor& y, Tensor& gx, Tensor& wg, Tensor& bg) {
    set_num_threads(nt);
    Rng wrng(7);  // same init per thread count
    QuantConv2d conv(3, 8, 3, 2, 1, 4, 2, wrng);
    conv.refresh_weight_scale();
    conv.act_quantizer().set_scale(0.2f);
    conv.set_training(true);
    conv.weight().ensure_grad();
    conv.weight().grad.zero();
    conv.bias().ensure_grad();
    conv.bias().grad.zero();
    y = conv.forward(x);
    Tensor gy(y.shape());
    Rng grng(9);
    fill_normal(gy, grng);
    gx = conv.backward(gy);
    wg = conv.weight().grad;
    bg = conv.bias().grad;
  };

  Tensor y1, gx1, wg1, bg1;
  run(1, y1, gx1, wg1, bg1);
  for (index_t nt : {2, 5}) {
    Tensor y, gx, wg, bg;
    run(nt, y, gx, wg, bg);
    CHECK(bits_equal(y, y1));
    CHECK(bits_equal(gx, gx1));
    CHECK(bits_equal(wg, wg1));
    CHECK(bits_equal(bg, bg1));
  }
  set_num_threads(saved);
}

// Batched Monte-Carlo evaluation: per-chip accuracies must be identical
// for any thread count (and match one chip per forward, which
// test_eval_batched already pins down).
void check_batched_eval_thread_identity() {
  const index_t saved = num_threads();
  SynthDigitsConfig dcfg;
  dcfg.n_train = 8;
  dcfg.n_test = 48;
  SplitDataset data = make_synth_digits(dcfg);
  ModelConfig mcfg;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(false);
  const VariabilityConfig vcfg =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
  EvalConfig ecfg;
  ecfg.n_chips = 5;
  ecfg.max_test_samples = 48;
  ecfg.chip_batch = 4;  // one full group of 4 + a ragged single-chip tail

  set_num_threads(1);
  EvalStats ref = evaluate_under_variability(*model, data.test, vcfg, ecfg);
  for (index_t nt : {2, 5}) {
    set_num_threads(nt);
    EvalStats stats = evaluate_under_variability(*model, data.test, vcfg, ecfg);
    CHECK(stats.per_chip_acc == ref.per_chip_acc);
  }
  set_num_threads(saved);
}

// Zero-alloc steady state: after the first forward/backward sized the
// workspace, repeated same-shape passes must not grow it.
void check_workspace_steady_state(Rng& rng) {
  ModelConfig mcfg;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(true);
  Tensor x({8, 1, 12, 12});
  fill_normal(x, rng);
  std::vector<index_t> labels(8, 3);

  auto pass = [&] {
    model->zero_grad();
    Tensor logits = model->forward(x);
    Tensor grad;
    softmax_xent(logits, labels, &grad, nullptr);
    model->backward(grad);
  };
  pass();
  const std::size_t warm = model->workspace().retained_bytes();
  CHECK(warm > 0);
  pass();
  pass();
  CHECK(model->workspace().retained_bytes() == warm);

  // The retention cap is enforced by trim().
  model->workspace().trim(0);
  CHECK(model->workspace().retained_bytes() == 0);
  pass();  // re-grows transparently
  CHECK(model->workspace().retained_bytes() == warm);

  // Same invariant on the inference path (calibrated quantizer, fused /
  // quantize-into-scratch gathers — different slots than training).
  model->set_training(false);
  auto eval_pass = [&] {
    Tensor logits = model->forward(x);
    CHECK(logits.dim(0) == 8);
  };
  eval_pass();
  const std::size_t eval_warm = model->workspace().retained_bytes();
  CHECK(eval_warm > 0);
  eval_pass();
  eval_pass();
  CHECK(model->workspace().retained_bytes() == eval_warm);
}

}  // namespace

int main() {
  Rng rng(1234);

  // Odd pad/stride/kernel combos around the common 3x3-s1-p1 case,
  // including k > h, pad 2, stride 3, non-square images and 1x1 kernels.
  const index_t combos[][7] = {
      // n, c, h, w, k, stride, pad
      {2, 3, 12, 12, 3, 1, 1}, {1, 1, 5, 7, 3, 2, 1},  {3, 2, 9, 6, 2, 2, 0},
      {1, 4, 7, 7, 5, 1, 2},   {2, 1, 6, 11, 1, 1, 0}, {1, 2, 8, 8, 3, 3, 2},
      {4, 3, 11, 11, 3, 2, 1}, {1, 1, 4, 4, 5, 1, 2},
      // k > w + pad reaches taps no output window can supply at stride 2
      // (col2im's truncating-division edge: a negative xo numerator must
      // skip the tap, not clamp to xo = 0).
      {1, 1, 2, 2, 5, 2, 2},
  };
  for (const auto& s : combos) {
    const ConvGeom g = geom_of(s[0], s[1], s[2], s[3], s[4], s[5], s[6]);
    check_im2col_col2im(g, rng);
  }

  check_fused_quant_gather(rng);
  check_maxpool(rng);
  check_conv_layer_thread_identity(rng);
  check_batched_eval_thread_identity();
  check_workspace_steady_state(rng);

  return qavat::test::finish("test_conv_ops");
}
