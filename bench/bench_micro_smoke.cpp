// Kernel microbenchmarks (google-benchmark): GEMM, conv-pipeline kernels
// (im2col/col2im/pooling), quantized-layer forward/backward, train-mode
// fwd+bwd, quantizer throughput, and crossbar MVM. These are engineering benches
// (not a paper table); they document the substrate's raw speed, which is
// what bounds the Monte-Carlo evaluation throughput.
//
// The custom main() below additionally emits a machine-readable
// BENCH_micro.json (per-kernel wall-ms and GMAC/s — for elementwise/copy
// kernels the rate field is Gelem/s) so the perf trajectory is recorded
// per commit and ci/check_bench_regression.py can compare against the
// committed baseline in ci/bench_baseline.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/models/models.h"
#include "core/quant/qlayers.h"
#include "core/quant/quantizer.h"
#include "core/train/trainer.h"
#include "eval/evaluator.h"
#include "pim/chip.h"
#include "tensor/conv_ops.h"
#include "tensor/ops.h"
#include "tensor/parallel_for.h"

namespace qavat {
namespace {

void BM_Matmul(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);

void BM_MatmulNT(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  for (auto _ : state) {
    Tensor c = matmul_nt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(256);

void BM_MatmulTN(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  for (auto _ : state) {
    Tensor c = matmul_tn(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulTN)->Arg(64)->Arg(256);

// GEMM with an explicit thread count (results are bit-identical across
// counts; only throughput changes). Arg = threads.
void BM_MatmulThreads(benchmark::State& state) {
  const index_t n = 384;
  const index_t saved = num_threads();
  set_num_threads(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_num_threads(saved);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4);

// Dispatch overhead of an empty parallel_for with one chunk per worker:
// the fixed cost every threaded kernel pays per call, now a persistent-
// pool wakeup instead of per-call thread creation. Arg = thread count;
// items are dispatches (the JSON rate field reads Gdispatch/s — higher
// is better).
void BM_PoolDispatch(benchmark::State& state) {
  const index_t nt = state.range(0);
  const index_t saved = num_threads();
  set_num_threads(nt);
  for (auto _ : state) {
    parallel_for(index_t{0}, nt, index_t{1}, [](index_t, index_t) {});
  }
  state.SetItemsProcessed(state.iterations());
  set_num_threads(saved);
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Monte-Carlo deployment evaluation of a LeNet-5s under mixed variability.
// Arg = chip_batch (1 = one chip per forward, 8 = noise-batched forward);
// per-chip accuracies are identical, only throughput differs.
void BM_MonteCarloEval(benchmark::State& state) {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 16;
  dcfg.n_test = 128;
  SplitDataset data = make_synth_digits(dcfg);
  ModelConfig mcfg;
  mcfg.a_bits = 4;
  mcfg.w_bits = 2;
  mcfg.in_channels = 1;
  mcfg.image_size = 12;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(false);
  const VariabilityConfig vcfg =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
  EvalConfig ecfg;
  ecfg.n_chips = 8;
  ecfg.max_test_samples = 128;
  ecfg.batch_size = 64;
  ecfg.chip_batch = state.range(0);
  for (auto _ : state) {
    EvalStats stats = evaluate_under_variability(*model, data.test, vcfg, ecfg);
    benchmark::DoNotOptimize(stats.accuracy.mean);
  }
  state.SetItemsProcessed(state.iterations() * ecfg.n_chips * 128);
}
BENCHMARK(BM_MonteCarloEval)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Inference-only helper layers for the MLP acceptance pair below. The
// model zoo is conv-first, where im2col bounds the eval wall clock; the
// int8-vs-float acceptance wants a GEMM-bound network so the integer
// kernel, not data movement, sets the ratio.
class FlattenLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    const index_t n = x.dim(0);
    y.reshape({n, x.size() / n});
    return y;
  }
  Tensor backward(const Tensor&) override {
    throw std::logic_error("FlattenLayer: inference-only");
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FlattenLayer>();
  }
};

class ReluLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    float* p = y.data();
    const index_t n = y.size();
    for (index_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
    return y;
  }
  Tensor backward(const Tensor&) override {
    throw std::logic_error("ReluLayer: inference-only");
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReluLayer>();
  }
};

// 144 -> 1024 -> 1024 -> 10 a8/w8 MLP on the synth-digit images.
std::unique_ptr<Module> make_int8_bench_mlp(Rng& rng) {
  ModelConfig mcfg;
  mcfg.a_bits = 8;
  mcfg.w_bits = 8;
  auto m = std::make_unique<Module>(ModelKind::kLeNet5s, mcfg);
  m->add_layer(std::make_unique<FlattenLayer>());
  m->add_layer(std::make_unique<QuantLinear>(144, 1024, 8, 8, rng));
  m->add_layer(std::make_unique<ReluLayer>());
  m->add_layer(std::make_unique<QuantLinear>(1024, 1024, 8, 8, rng));
  m->add_layer(std::make_unique<ReluLayer>());
  m->add_layer(std::make_unique<QuantLinear>(1024, 10, 8, 8, rng));
  return m;
}

// Acceptance pair for the integer inference fast path (DESIGN.md §12):
// the same GEMM-bound Monte-Carlo evaluation through the float
// weight-domain backend (Arg 0) and the int8 backend (Arg 1). The int8
// row must stay >= 2x faster than the float row on this config;
// ci/bench_baseline.json records both.
void BM_MlpMonteCarloEval(benchmark::State& state) {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 16;
  dcfg.n_test = 4096;
  SplitDataset data = make_synth_digits(dcfg);
  Rng rng(21);
  auto model = make_int8_bench_mlp(rng);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.05f);
  }
  model->set_training(false);
  const VariabilityConfig vcfg =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.3);
  EvalConfig ecfg;
  ecfg.n_chips = 2;
  ecfg.max_test_samples = 4096;
  ecfg.batch_size = 256;
  ecfg.chip_batch = 2;
  ecfg.backend =
      state.range(0) == 1 ? EvalBackend::kInt8 : EvalBackend::kWeightDomain;
  for (auto _ : state) {
    EvalStats stats = evaluate_under_variability(*model, data.test, vcfg, ecfg);
    benchmark::DoNotOptimize(stats.accuracy.mean);
  }
  state.SetItemsProcessed(state.iterations() * ecfg.n_chips * 4096);
}
BENCHMARK(BM_MlpMonteCarloEval)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_QuantizeDequantize(benchmark::State& state) {
  Rng rng(2);
  Tensor x({state.range(0)});
  fill_normal(x, rng);
  Tensor out(x.shape());
  Tensor mask(x.shape());
  for (auto _ : state) {
    quantize_dequantize(x, 0.1f, 4, out, &mask);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeDequantize)->Arg(1 << 12)->Arg(1 << 16);

void BM_MmseScaleSearch(benchmark::State& state) {
  Rng rng(3);
  Tensor x({state.range(0)});
  fill_normal(x, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmse_scale(x, 2));
  }
}
BENCHMARK(BM_MmseScaleSearch)->Arg(1 << 10)->Arg(1 << 14);

void BM_QuantConvForward(benchmark::State& state) {
  Rng rng(4);
  QuantConv2d conv(16, 16, 3, 1, 1, 4, 2, rng);
  conv.refresh_weight_scale();
  conv.act_quantizer().set_scale(0.1f);
  conv.set_training(false);
  Tensor x({8, 16, 16, 16});
  fill_normal(x, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  // MACs per iteration: N * Cout * Cin * K^2 * OH * OW
  state.SetItemsProcessed(state.iterations() * 8 * 16 * 16 * 9 * 16 * 16);
}
BENCHMARK(BM_QuantConvForward);

// The conv-pipeline kernels in isolation (the wall clock the tentpole
// moves): im2col / col2im / pooling on the VGG-11s first-stage shape.
// Items are elements moved, so the JSON rate field reads Gelem/s.
void BM_Im2col(benchmark::State& state) {
  Rng rng(11);
  Tensor x({8, 16, 16, 16});
  fill_normal(x, rng);
  const ConvGeom g{8, 16, 16, 16, 3, 1, 1, 16, 16};
  Tensor cols;
  for (auto _ : state) {
    im2col(x, g, cols);
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * g.rows() * g.ckk());
}
BENCHMARK(BM_Im2col);

void BM_Col2im(benchmark::State& state) {
  Rng rng(12);
  const ConvGeom g{8, 16, 16, 16, 3, 1, 1, 16, 16};
  Tensor dcols({g.rows(), g.ckk()});
  fill_normal(dcols, rng);
  Tensor gx;
  for (auto _ : state) {
    col2im(dcols, g, gx);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * g.rows() * g.ckk());
}
BENCHMARK(BM_Col2im);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(13);
  Tensor x({8, 32, 16, 16});
  fill_normal(x, rng);
  Tensor y;
  std::vector<index_t> arg;
  for (auto _ : state) {
    maxpool2d(x, 2, y, arg);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_MaxPool);

// Training-mode conv forward + backward — the acceptance micro-bench for
// the threaded conv pipeline. MACs count the three GEMMs (forward, dW,
// dX). Arg = thread count; UseRealTime so multi-thread numbers report
// wall clock, not summed CPU time.
void BM_QuantConvFwdBwd(benchmark::State& state) {
  const index_t saved = num_threads();
  set_num_threads(state.range(0));
  Rng rng(14);
  QuantConv2d conv(16, 16, 3, 1, 1, 4, 2, rng);
  conv.refresh_weight_scale();
  conv.act_quantizer().set_scale(0.1f);
  conv.set_training(true);
  conv.weight().ensure_grad();
  conv.bias().ensure_grad();
  Tensor x({8, 16, 16, 16});
  fill_normal(x, rng);
  Tensor gy({8, 16, 16, 16});
  fill_normal(gy, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    Tensor gx = conv.backward(gy);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 8 * 16 * 16 * 9 * 16 * 16);
  set_num_threads(saved);
}
BENCHMARK(BM_QuantConvFwdBwd)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Training-mode forward + loss + backward of LeNet-5s on a 32-image
// synthetic batch — the per-step cost train() pays before the optimizer
// update (Adam lives inside core/train/trainer.cpp and is not separately
// benchable here). Items = images, so the rate is images/s.
void BM_TrainFwdBwd(benchmark::State& state) {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 32;
  dcfg.n_test = 8;
  SplitDataset data = make_synth_digits(dcfg);
  ModelConfig mcfg;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(true);
  std::vector<index_t> idx(32);
  for (index_t i = 0; i < 32; ++i) idx[static_cast<std::size_t>(i)] = i;
  Tensor x = data.train.gather_images(idx);
  std::vector<index_t> y = data.train.gather_labels(idx);
  for (auto _ : state) {
    model->zero_grad();
    Tensor logits = model->forward(x);
    Tensor grad;
    softmax_xent(logits, y, &grad, nullptr);
    model->backward(grad);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_TrainFwdBwd)->Unit(benchmark::kMillisecond);

void BM_CrossbarMvm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(5);
  Tensor w({n, n});
  fill_normal(w, rng);
  CrossbarConfig cfg;
  cfg.variability =
      VariabilityConfig::within_only(VarianceModel::kWeightProportional, 0.3);
  PimChip chip(cfg, 1, 0);
  auto arr = chip.program_array(w);
  std::vector<float> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto _ : state) {
    auto y = arr.mvm(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CrossbarMvm)->Arg(128)->Arg(512);

void BM_VariabilitySampling(benchmark::State& state) {
  Rng rng(6);
  QuantLinear layer(512, 512, 4, 2, rng);
  auto cfg = VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.5);
  Rng noise_rng(7);
  for (auto _ : state) {
    sample_variability(layer, cfg, noise_rng);
    benchmark::DoNotOptimize(layer.noise_state().eps.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_VariabilitySampling);

// Console reporter that also collects per-kernel wall time and the
// items_per_second rate so main() can emit the compact BENCH_micro.json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double wall_ms = 0.0;
    double grate = 0.0;  // items_per_second / 1e9: GMAC/s or Gelem/s
  };
  std::vector<Entry> entries;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      Entry e;
      e.name = run.benchmark_name();
      if (run.iterations > 0) {
        e.wall_ms = 1e3 * run.real_accumulated_time /
                    static_cast<double>(run.iterations);
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.grate = it->second.value / 1e9;
      entries.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace
}  // namespace qavat

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  qavat::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Machine-readable perf record, merged so bench_gemm_sweep's kernels
  // in the same file survive a re-run of this binary (bench/bench_json.h
  // resolves QAVAT_BENCH_JSON and does the replace-by-name merge).
  std::vector<qavat::bench::BenchEntry> entries;
  entries.reserve(reporter.entries.size());
  for (const auto& e : reporter.entries) {
    qavat::bench::BenchEntry be;
    be.name = e.name;
    be.wall_ms = e.wall_ms;
    be.gmacs = e.grate;
    entries.push_back(std::move(be));
  }
  return qavat::bench::write_bench_json_merged(qavat::bench::bench_json_path(),
                                               entries)
             ? 0
             : 1;
}
