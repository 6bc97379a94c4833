// Fleet lifetime frontier: retune policy x drift mix on a LeNet-family
// model. Each cell is one FleetStudySpec run through FleetEvaluator
// (eval/fleet.h): a chip population ages under a drift-event mix while a
// re-tuning policy decides when each chip re-measures its GTM. The bench
// prints the resulting retune-cost/accuracy frontier — how much accuracy
// each additional re-measurement buys under each mix — as byte-stable
// `frontier` lines (stable across cold/warm stores, resumes and thread
// counts; DESIGN.md §16).
//
// Perf record: a dedicated throughput study runs with the store disabled
// (pure compute, no snapshot I/O and no warm-trajectory shortcut) and
// contributes fleet steps/s and chip-steps/s rows to BENCH_micro.json
// via bench_json.h. Wall-clock-derived numbers go to the JSON record and
// stderr only, keeping stdout deterministic.
#include <chrono>
#include <cstdlib>

#include "bench_common.h"
#include "bench_json.h"
#include "eval/fleet.h"
#include "tensor/env.h"

using namespace qavat;
using namespace qavat::bench;

namespace {

struct Mix {
  const char* name;
  DriftEvents events;
};

struct Policy {
  const char* name;
  RetunePolicy policy;
};

double traj_mean(const FleetTrajectory& t) {
  double acc = 0.0;
  for (const FleetCheckpoint& row : t.checkpoints) acc += row.mean;
  return acc / static_cast<double>(t.checkpoints.size());
}

}  // namespace

int main() {
  BenchHarness bench("bench_fleet");
  FleetEvaluator fleet(bench.session);

  FleetStudySpec study;
  study.scenario =
      ScenarioSpec::within(ModelKind::kLeNet5s, 4, 2, ScenarioAlgo::kQAVAT,
                           VarianceModel::kWeightProportional, 0.25);
  study.lifetime.drift.model = VarianceModel::kWeightProportional;
  study.lifetime.drift.sigma_w = 0.25;
  study.lifetime.drift.sigma_b = 0.35;
  study.lifetime.drift.tau = 16.0;
  study.lifetime.n_chips = fast_mode() ? 8 : 16;
  study.lifetime.n_steps = fast_mode() ? 32 : 96;
  study.lifetime.checkpoint_every = fast_mode() ? 8 : 16;
  study.lifetime.batch_size = 50;

  const TrainedModel trained = bench.session.train_model(study.scenario);
  std::printf("Fleet lifetime frontier: retune policy x drift mix\n");
  std::printf(
      "(LeNet-5s A4W2 QAVAT; %lld chips x %lld steps; OU sigma_B = %.2f, "
      "tau = %.0f;\n clean accuracy %.1f%%)\n\n",
      static_cast<long long>(study.lifetime.n_chips),
      static_cast<long long>(study.lifetime.n_steps),
      study.lifetime.drift.sigma_b, study.lifetime.drift.tau,
      100.0 * trained.clean_test_acc);

  Mix mixes[2];
  mixes[0].name = "ou";  // pure OU drift, no discrete events
  mixes[1].name = "mixed";
  mixes[1].events.aging_rate = 0.001;
  mixes[1].events.thermal_amp = 0.1;
  mixes[1].events.thermal_period = 32.0;
  mixes[1].events.disturb_rate = 0.01;
  mixes[1].events.disturb_mag = 0.2;

  Policy policies[4];
  policies[0].name = "never";
  policies[1].name = "fix16";
  policies[1].policy.kind = RetunePolicyKind::kFixedInterval;
  policies[1].policy.interval = 16;
  policies[2].name = "fix4";
  policies[2].policy.kind = RetunePolicyKind::kFixedInterval;
  policies[2].policy.interval = 4;
  policies[3].name = "thr0.1";
  policies[3].policy.kind = RetunePolicyKind::kThreshold;
  policies[3].policy.budget = 0.1;
  policies[3].policy.probe_cells = 16;

  // The frontier: one byte-stable line per (mix, policy) cell. retunes
  // is the fleet-total re-measurement count (the policy's cost axis);
  // acc_mean averages the per-checkpoint fleet means over the whole
  // trajectory, acc_final / p5_final read the last checkpoint (end-of-
  // life state of the population and of its weakest chips).
  for (const Mix& mix : mixes) {
    study.lifetime.events = mix.events;
    for (const Policy& pol : policies) {
      study.lifetime.policy = pol.policy;
      const FleetRunResult res = fleet.run(study);
      const FleetCheckpoint& last = res.trajectory.checkpoints.back();
      std::printf(
          "frontier mix=%s policy=%s retunes=%lld acc_mean=%.17g "
          "acc_final=%.17g p5_final=%.17g stale_final=%.17g\n",
          mix.name, pol.name, static_cast<long long>(last.retunes),
          traj_mean(res.trajectory), last.mean, last.p5, last.stale);
      std::fflush(stdout);
    }
  }

  // Throughput row: a fresh study timed with the store disabled, so the
  // clock sees the fleet loop itself — chip advance + re-tune decisions
  // + the batched forward — never a warm-trajectory load or snapshot
  // I/O. The model is already in the in-process cache (trained above),
  // so training cost stays out of the measurement too.
  study.lifetime.events = mixes[1].events;
  study.lifetime.policy = policies[1].policy;
  study.lifetime.n_steps = fast_mode() ? 16 : 48;
  study.lifetime.checkpoint_every = fast_mode() ? 8 : 24;
  const std::string old_store = env_text("QAVAT_STORE");
  setenv("QAVAT_STORE", "0", 1);
  const auto t0 = std::chrono::steady_clock::now();
  (void)fleet.run(study);
  const auto t1 = std::chrono::steady_clock::now();
  if (!old_store.empty()) {
    setenv("QAVAT_STORE", old_store.c_str(), 1);
  } else {
    unsetenv("QAVAT_STORE");
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double steps_s =
      static_cast<double>(study.lifetime.n_steps) / (wall_ms * 1e-3);
  const double chip_steps_s =
      steps_s * static_cast<double>(study.lifetime.n_chips);
  std::fprintf(stderr,
               "[bench_fleet] throughput: %lld chips x %lld steps in "
               "%.1f ms -> %.1f steps/s, %.1f chip-steps/s\n",
               static_cast<long long>(study.lifetime.n_chips),
               static_cast<long long>(study.lifetime.n_steps), wall_ms,
               steps_s, chip_steps_s);
  // The "gmacs" column is the record's generic throughput axis (see
  // bench_json.h); for fleet rows it carries steps/s and chip-steps/s.
  std::vector<BenchEntry> entries(2);
  entries[0].name = "fleet_steps_per_s";
  entries[0].wall_ms = wall_ms;
  entries[0].gmacs = steps_s;
  entries[1].name = "fleet_chip_steps_per_s";
  entries[1].wall_ms = wall_ms;
  entries[1].gmacs = chip_steps_s;
  write_bench_json_merged(bench_json_path(), entries);
  return 0;
}
