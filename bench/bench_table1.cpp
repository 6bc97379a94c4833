// Table I reproduction: within-chip variability, layer-fixed variance, at
// the lowest (sigma = 0.1) and highest (sigma = 0.5) variation levels.
// Columns: PTQ-VAT (the paper's "VAT" column), QAT, QAVAT; rows: ResNet-18s
// A4W2 / A8W4, VGG-11s A4W2 / A8W4, LeNet-5s A2W2 — each on its synthetic
// stand-in dataset (DESIGN.md §2). Declared as a ScenarioSpec grid; a warm
// run against a populated store retrains nothing and reproduces this
// table byte-identically (stdout carries only the deterministic numbers).
//
// The grid itself is the built-in "table1" manifest (eval/manifest.h) —
// the same 30 specs `qavat-sweep emit table1` writes out, so a fleet
// running that manifest against a shared store pre-warms exactly the
// artifacts this bench consumes.
#include "bench_common.h"

#include "eval/manifest.h"

using namespace qavat;
using namespace qavat::bench;

namespace {

struct Row {
  ModelKind kind;
  index_t a_bits, w_bits;
};

}  // namespace

int main() {
  BenchHarness bench("bench_table1");
  // Display-layout mirror of the manifest's nested order (rows, sigma,
  // algorithm) — the grid itself lives in make_table1().
  const Row rows[] = {
      {ModelKind::kResNet18s, 4, 2}, {ModelKind::kResNet18s, 8, 4},
      {ModelKind::kVGG11s, 4, 2},    {ModelKind::kVGG11s, 8, 4},
      {ModelKind::kLeNet5s, 2, 2},
  };
  const ScenarioAlgo algos[] = {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT,
                                ScenarioAlgo::kQAVAT};

  std::printf("Table I: QAVAT vs baselines at the lowest/highest variability\n");
  std::printf("(within-chip only, layer-fixed variance; mean accuracy %% over chips)\n\n");

  // The grid is the built-in "table1" manifest, declared up front so
  // run_all can train its 25 models on parallel lanes before it
  // evaluates the specs here, in order. Results return in manifest
  // order with sequential-run numbers, so the printed table is
  // byte-identical to a run() loop (and to a qavat-sweep run of the
  // same manifest).
  SweepManifest manifest;
  if (!builtin_manifest("table1", &manifest) ||
      manifest.specs.size() != sizeof(rows) / sizeof(rows[0]) * 2 *
                                   sizeof(algos) / sizeof(algos[0])) {
    std::fprintf(stderr, "bench_table1: built-in table1 manifest mismatch\n");
    return 1;
  }
  const std::vector<ScenarioResult> results =
      bench.session.run_all(manifest.specs);

  TextTable table({"Model", "A/W", "sigma", "PTQ-VAT", "QAT", "QAVAT"});
  std::size_t next = 0;
  for (const Row& row : rows) {
    for (double sigma : {0.1, 0.5}) {
      std::vector<std::string> cells = {
          to_string(row.kind),
          std::to_string(row.a_bits) + "/" + std::to_string(row.w_bits),
          TextTable::fmt(sigma, 1)};
      for (ScenarioAlgo algo : algos) {
        (void)algo;
        cells.push_back(pct(results[next++].mean_acc));
      }
      table.add_row(std::move(cells));
    }
  }
  table.print();
  std::printf(
      "\nPaper (Table I, paper-scale models/datasets): QAVAT wins at every\n"
      "cell; PTQ-VAT collapses at W2; QAT collapses at high sigma, more so\n"
      "for A8W4 than A4W2.\n");
  return 0;
}
