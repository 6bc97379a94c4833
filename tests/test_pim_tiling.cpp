// Tier-1: crossbar tiling — TilePlan geometry on edge shapes (dims not
// multiples of the tile, 1x1, single-row), the partial-sum determinism
// contract (a tiled readout is bit-identical to an untiled array on a
// noise-free config, for any tile grid, any DAC/ADC setting and any
// thread count), per-array GTM aggregation, the circuit-backed
// Monte-Carlo evaluator, and the workspace zero-alloc steady state of
// the tiled MVM.
#include "pim/tiling.h"

#include <cstring>
#include <stdexcept>

#include "core/models/models.h"
#include "eval/evaluator.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// The plan must cover every element exactly once with in-bound, <= tile
// extents; ragged remainders only on the trailing tiles.
void check_plan(index_t out, index_t in, index_t tile, index_t want_rt,
                index_t want_ct) {
  const TilePlan p = TilePlan::make(out, in, tile);
  CHECK(p.row_tiles() == want_rt);
  CHECK(p.col_tiles() == want_ct);
  CHECK(p.n_tiles() == want_rt * want_ct);
  index_t covered = 0;
  for (index_t i = 0; i < p.row_tiles(); ++i) {
    for (index_t j = 0; j < p.col_tiles(); ++j) {
      const TilePlan::Extent e = p.tile_at(i, j);
      CHECK(e.rows >= 1 && e.rows <= tile);
      CHECK(e.cols >= 1 && e.cols <= tile);
      CHECK(e.r0 == i * tile);
      CHECK(e.c0 == j * tile);
      CHECK(e.r0 + e.rows <= out);
      CHECK(e.c0 + e.cols <= in);
      const bool last_row = i == p.row_tiles() - 1;
      const bool last_col = j == p.col_tiles() - 1;
      if (!last_row) CHECK(e.rows == tile);
      if (!last_col) CHECK(e.cols == tile);
      if (last_row) CHECK(e.r0 + e.rows == out);
      if (last_col) CHECK(e.c0 + e.cols == in);
      covered += e.rows * e.cols;
    }
  }
  CHECK(covered == out * in);
}

void check_tile_plan_shapes() {
  check_plan(512, 512, 512, 1, 1);      // exact fit
  check_plan(513, 512, 512, 2, 1);      // one ragged row tile of height 1
  check_plan(1, 1, 512, 1, 1);          // 1x1 matrix
  check_plan(1, 2048, 512, 1, 4);       // single-row layer across 4 arrays
  check_plan(1000, 1000, 512, 2, 2);    // ragged in both dims (488 remainder)
  check_plan(70, 90, 32, 3, 3);         // small tiles, ragged both dims
  check_plan(3, 5, 1, 3, 5);            // degenerate 1x1 arrays
  bool threw = false;
  try {
    TilePlan::make(0, 4, 512);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // tile <= 0 resolves the default 512.
  CHECK(TilePlan::make(600, 1100).tile == 512);
}

// Noise-free configs: the tiled readout must be BIT-identical to one
// unbounded array, including with DAC/ADC periphery enabled (the DAC
// range is per full input row, the ADC range per assembled output row —
// both tile-invariant by construction).
void check_tiled_untiled_bit_equality(Rng& rng) {
  Tensor w({70, 90});
  fill_normal(w, rng);
  Tensor x({5, 90});
  fill_normal(x, rng);
  for (index_t dac : {index_t{0}, index_t{5}}) {
    CrossbarConfig cfg;  // no variability: both paths program the same g
    cfg.dac_bits = dac;
    cfg.adc_bits = dac > 0 ? dac + 2 : 0;
    Rng prng(7);
    CrossbarArray untiled(cfg, w, 0.0, prng);
    Tensor y_ref, scratch;
    untiled.mvm_into(x, y_ref, scratch);
    for (index_t tile : {index_t{32}, index_t{64}, index_t{128}}) {
      PimChip chip(cfg, 7, 0);
      TiledCrossbarLayer tiled(chip, w, TilePlan::make(70, 90, tile));
      CHECK(tiled.n_arrays() ==
            tiled.plan().row_tiles() * tiled.plan().col_tiles());
      Tensor y;
      tiled.mvm_into(x, y);
      CHECK(bits_equal(y, y_ref));
    }
  }
}

// The span/vector readout of a single input agrees with the batched
// Tensor form (double reference chain vs float GEMM chain) and the mvm()
// wrapper returns exactly what mvm_into writes. ADC off: a mid-tread
// level boundary could legitimately snap differently between the double
// and float accumulation paths.
void check_span_overloads(Rng& rng) {
  Tensor w({9, 17});
  fill_normal(w, rng);
  CrossbarConfig cfg;
  cfg.dac_bits = 4;
  Rng prng(3);
  CrossbarArray arr(cfg, w, 0.0, prng);
  std::vector<float> x(17);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<double> y_span(9, 0.0);
  arr.mvm_into(x.data(), y_span.data());
  const std::vector<double> y_wrap = arr.mvm(x);
  for (int i = 0; i < 9; ++i) CHECK(y_span[i] == y_wrap[i]);
  Tensor x2d({1, 17});
  std::memcpy(x2d.data(), x.data(), 17 * sizeof(float));
  Tensor y2d, scratch;
  arr.mvm_into(x2d, y2d, scratch);
  for (int i = 0; i < 9; ++i) CHECK_NEAR(y2d[i], y_span[i], 1e-4);
}

// Thread bit-identity of the tiled MVM (determinism contract).
void check_thread_identity(Rng& rng) {
  Tensor w({100, 130});
  fill_normal(w, rng);
  Tensor x({8, 130});
  fill_normal(x, rng);
  CrossbarConfig cfg;
  cfg.variability =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
  const index_t saved = num_threads();
  set_num_threads(1);
  PimChip chip1(cfg, 11, 0);
  TiledCrossbarLayer tiled1(chip1, w, TilePlan::make(100, 130, 48));
  Tensor y1;
  tiled1.mvm_into(x, y1);
  for (index_t nt : {2, 5}) {
    set_num_threads(nt);
    PimChip chipn(cfg, 11, 0);  // same chip identity -> same conductances
    TiledCrossbarLayer tiledn(chipn, w, TilePlan::make(100, 130, 48));
    Tensor yn;
    tiledn.mvm_into(x, yn);
    CHECK(bits_equal(yn, y1));
  }
  set_num_threads(saved);
}

// Per-array GTM spare columns: every array measures the same chip-level
// eps_B; the aggregate estimate converges on it as geometry grows.
void check_per_array_gtm() {
  CrossbarConfig cfg;
  cfg.variability =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.5);
  Rng wrng(5);
  Tensor w({96, 96});
  fill_normal(w, wrng);
  double sq = 0.0;
  const int chips = 60;
  index_t n_arrays = 0;
  for (int c = 0; c < chips; ++c) {
    PimChip chip(cfg, 23, c);
    TiledCrossbarLayer tiled(chip, w, TilePlan::make(96, 96, 32),
                             /*with_gtm=*/true);
    n_arrays = tiled.n_arrays();
    CHECK(static_cast<index_t>(tiled.gtm_estimates().size()) == n_arrays);
    sq += (tiled.measured_eps_b() - chip.eps_b()) *
          (tiled.measured_eps_b() - chip.eps_b());
  }
  CHECK(n_arrays == 9);
  // 9 arrays x 32 cells = 288 cells: RMSE ~ sigma_W / sqrt(288).
  const double rmse = std::sqrt(sq / chips);
  const double analytic = cfg.variability.sigma_w / std::sqrt(288.0);
  CHECK(rmse < 3.0 * analytic);
}

// Zero-alloc steady state: after the first tiled MVM sized the workspace,
// repeated same-shape MVMs must not grow it (the invariant pattern from
// test_conv_ops).
void check_workspace_steady_state(Rng& rng) {
  Tensor w({70, 90});
  fill_normal(w, rng);
  Tensor x({6, 90});
  fill_normal(x, rng);
  CrossbarConfig cfg;
  cfg.dac_bits = 4;  // exercise the DAC scratch slot too
  Workspace ws;
  PimChip chip(cfg, 9, 0);
  {
    TiledCrossbarLayer tiled(chip, w, TilePlan::make(70, 90, 32),
                             /*with_gtm=*/false, &ws);
    Tensor y;
    tiled.mvm_into(x, y);
    const std::size_t warm = ws.retained_bytes();
    CHECK(warm > 0);
    tiled.mvm_into(x, y);
    tiled.mvm_into(x, y);
    CHECK(ws.retained_bytes() == warm);
  }
  // A torn-down layer releases its slots so dead owners never crowd a
  // shared workspace (the per-chip churn of the circuit evaluator).
  CHECK(ws.retained_bytes() == 0);
}

// End-to-end: the circuit backend produces sane accuracies and agrees
// with the weight-domain backend on a noise-free deployment, where both
// compute the same quantized forward up to the float rounding of the
// conductance mapping (w -> w/w_unit -> * w_unit) — logits match to a
// few ulp, so per-chip accuracies agree unless two logits tie within
// ~1e-5, which the tolerance of one argmax flip per chip absorbs.
void check_circuit_backend_eval() {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 8;
  dcfg.n_test = 32;
  SplitDataset data = make_synth_digits(dcfg);
  ModelConfig mcfg;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(false);
  VariabilityConfig clean;  // sigma 0: circuit == weight domain exactly
  EvalConfig ecfg;
  ecfg.n_chips = 3;
  ecfg.max_test_samples = 32;
  EvalStats ref = evaluate_under_variability(*model, data.test, clean, ecfg);
  ecfg.backend = EvalBackend::kCircuit;
  ecfg.tile_size = 64;  // small tiles so the wider layers really split
  EvalStats circ = evaluate_under_variability(*model, data.test, clean, ecfg);
  CHECK(circ.per_chip_acc.size() == ref.per_chip_acc.size());
  for (std::size_t i = 0; i < circ.per_chip_acc.size(); ++i) {
    CHECK_NEAR(circ.per_chip_acc[i], ref.per_chip_acc[i], 0.05);
  }
  // Noisy circuit eval with self-tuning: runs through per-array GTM and
  // the correction machinery; accuracies stay in range.
  const VariabilityConfig vcfg =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.3);
  SelfTuneConfig st;
  EvalStats noisy = evaluate_under_variability(*model, data.test, vcfg, ecfg, &st);
  CHECK(noisy.per_chip_acc.size() == 3);
  for (double a : noisy.per_chip_acc) CHECK(a >= 0.0 && a <= 1.0);
}

}  // namespace

int main() {
  Rng rng(4321);
  check_tile_plan_shapes();
  check_tiled_untiled_bit_equality(rng);
  check_span_overloads(rng);
  check_thread_identity(rng);
  check_per_array_gtm();
  check_workspace_steady_state(rng);
  check_circuit_backend_eval();
  return qavat::test::finish("test_pim_tiling");
}
