#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <map>

#include "eval/experiment.h"
#include "eval/manifest.h"

namespace perfbench {

using namespace qavat;

namespace {

// Seed-derivation tags: one per spec field the workload seed drives.
enum SeedTag : std::uint64_t {
  kInitSeed = 1,
  kTrainSeed = 2,
  kEvalSeed = 3,
  kLifetimeSeed = 4,
};

std::uint64_t row_id(const ScenarioSpec& s) {
  return static_cast<std::uint64_t>(s.model) * 256 +
         static_cast<std::uint64_t>(s.model_cfg.a_bits) * 16 +
         static_cast<std::uint64_t>(s.model_cfg.w_bits);
}

// Reseed one spec: model init and training per (model, bits) row, the
// Monte-Carlo chips per (row, deployment sigma).
void reseed(ScenarioSpec& s, std::uint64_t seed) {
  const std::uint64_t row = row_id(s);
  s.model_cfg.init_seed = derive_seed(seed, kInitSeed, row);
  s.train.seed = derive_seed(seed, kTrainSeed, row);
  const auto sigma_milli =
      static_cast<std::uint64_t>(std::lround(s.deploy.sigma_w * 1000.0));
  s.eval.seed = derive_seed(seed, kEvalSeed, row * 4096 + sigma_milli);
}

bool same_result(const ScenarioResult& a, const ScenarioResult& b) {
  return a.key == b.key && a.clean_acc == b.clean_acc &&
         a.mean_acc == b.mean_acc && a.mc.n_chips == b.mc.n_chips &&
         a.mc.per_chip_acc == b.mc.per_chip_acc;
}

bool in_unit(double x) { return x >= 0.0 && x <= 1.0; }

// Best clean accuracy per model kind, logged to stderr. Fast-budget
// image models can sit at chance level for a given seed, so the learning
// check only asks this of LeNet-5s, which learns the digits reliably.
std::map<ModelKind, double> best_clean(const std::vector<ScenarioResult>& res,
                                       const std::vector<ScenarioSpec>& specs,
                                       const char* what) {
  std::map<ModelKind, double> best;
  for (std::size_t i = 0; i < res.size() && i < specs.size(); ++i) {
    double& b = best[specs[i].model];
    b = std::max(b, res[i].clean_acc);
  }
  for (const auto& kv : best) {
    std::fprintf(stderr, "[perfbench] %s: best clean accuracy %s %.3f\n", what,
                 to_string(kv.first), kv.second);
  }
  return best;
}

// Test images one Monte-Carlo eval of `spec` scores per chip.
double eval_images(Session& session, const ScenarioSpec& spec) {
  const index_t n = session.dataset(spec.model).test.size();
  return static_cast<double>(std::min(n, spec.eval.max_test_samples));
}

void synth_datasets(Session& session, const std::vector<ModelKind>& kinds) {
  for (ModelKind kind : kinds) {
    Span span("data", std::string("synth.") + to_string(kind));
    session.dataset(kind);
  }
}

// ------------------------------------------------------------- table1

// The Table-I grid (30 specs, 25 models, 35 train phases) through
// Session::run_all against an empty private store, then re-served warm
// by a fresh Session against the same store.
class Table1Sweep : public Workload {
 public:
  Table1Sweep(std::uint64_t seed, std::string scratch, Outcome& outcome)
      : specs_(table1_specs(seed)), scratch_(std::move(scratch)),
        outcome_(outcome) {}

  void setup() override {
    clear_experiment_caches(false);
    session_ = std::make_unique<Session>();
    synth_datasets(*session_, kinds());
    session_used_ = false;
  }

  void prepare_cold() override {
    use_fresh_store(scratch_, "table1");
    if (session_used_) setup();
    clear_experiment_caches(false);
  }

  double cold() override {
    session_used_ = true;
    const index_t runs0 = training_runs();
    std::vector<ScenarioResult> res;
    try {
      Span span("runner", "run_all.cold");
      res = session_->run_all(specs_);
    } catch (const std::exception& e) {
      outcome_.check(false, n(), std::string("table1 cold: ") + e.what());
      return n();
    }
    const SessionCounters c = session_->counters();
    const index_t runs = training_runs() - runs0;
    const bool unit_ok = c.evals_computed == n() &&
                         (cold_train_runs_ < 0 || runs == cold_train_runs_) &&
                         best_clean(res, specs_, "table1")[ModelKind::kLeNet5s] >
                             kLeNetFloor;
    if (!unit_ok) {
      std::fprintf(stderr,
                   "[perfbench] table1 cold: evals_computed=%lld "
                   "train_runs=%lld\n",
                   static_cast<long long>(c.evals_computed),
                   static_cast<long long>(runs));
    }
    for (std::size_t i = 0; i < res.size(); ++i) {
      const ScenarioResult& r = res[i];
      bool ok = unit_ok && in_unit(r.clean_acc) && in_unit(r.mean_acc) &&
                r.mc.n_chips > 0;
      if (!cold_.empty()) ok = ok && same_result(r, cold_[i]);
      outcome_.check(ok, 1, "table1 cold " + r.key + " clean_acc=" +
                                std::to_string(r.clean_acc));
    }
    cold_ = std::move(res);
    cold_train_runs_ = runs;
    std::fprintf(stderr, "[perfbench] table1 cold: train_runs=%lld train_s=%.2f "
                 "eval_s=%.2f\n", static_cast<long long>(runs),
                 c.train_seconds, c.eval_seconds);
    return n();
  }

  void warm() override {
    clear_experiment_caches(false);
    Session session;
    const index_t runs0 = training_runs();
    std::vector<ScenarioResult> res;
    try {
      Span span("runner", "run_all.warm");
      res = session.run_all(specs_);
    } catch (const std::exception& e) {
      outcome_.check(false, n(), std::string("table1 warm: ") + e.what());
      return;
    }
    const SessionCounters c = session.counters();
    const bool unit_ok = training_runs() == runs0 && c.evals_computed == 0 &&
                         c.trained == 0 && res.size() == cold_.size();
    for (std::size_t i = 0; i < res.size(); ++i) {
      outcome_.check(unit_ok && same_result(res[i], cold_[i]), 1,
                     "table1 warm differs from cold: " + res[i].key);
    }
  }

  int setup_reps() const override { return 5; }
  int min_cold_reps() const override { return 1; }
  int warm_reps() const override { return 7; }

 private:
  static std::vector<ModelKind> kinds() {
    return {ModelKind::kLeNet5s, ModelKind::kVGG11s, ModelKind::kResNet18s};
  }
  long long n() const { return static_cast<long long>(specs_.size()); }

  std::vector<ScenarioSpec> specs_;
  std::string scratch_;
  Outcome& outcome_;
  std::unique_ptr<Session> session_;
  bool session_used_ = false;
  std::vector<ScenarioResult> cold_;
  index_t cold_train_runs_ = -1;
};

// ------------------------------------------------------------- table2

// The Table-II mixed-variability grid (18 specs) evaluated once per
// backend. The 6 models are trained in setup into a private models
// store; every cold unit starts from a store holding only those models,
// so each of the 54 Monte-Carlo evals is computed, never a cache hit.
class Table2Deploy : public Workload {
 public:
  Table2Deploy(std::uint64_t seed, std::string scratch, Outcome& outcome)
      : scratch_(std::move(scratch)), outcome_(outcome) {
    const VarianceModel vm = VarianceModel::kWeightProportional;
    std::vector<ScenarioSpec> grid;
    for (ModelKind kind : kinds()) {
      for (double sigma : {0.1, 0.3, 0.5}) {
        ScenarioSpec plain =
            ScenarioSpec::mixed(kind, 8, 4, ScenarioAlgo::kQAVAT, vm, sigma);
        reseed(plain, seed);
        ScenarioSpec tuned = plain;
        tuned.with_selftune(proper_mode(vm), 1000);
        ScenarioSpec wrong = plain;
        wrong.with_selftune(wrong_mode(vm), 1000, 1);
        grid.push_back(plain);
        grid.push_back(tuned);
        grid.push_back(wrong);
        plain_.push_back(plain);
      }
    }
    for (EvalBackend b : backends()) {
      std::vector<ScenarioSpec> specs = grid;
      for (ScenarioSpec& s : specs) s.eval.backend = b;
      by_backend_.push_back(std::move(specs));
      all_.insert(all_.end(), by_backend_.back().begin(),
                  by_backend_.back().end());
    }
  }

  void setup() override {
    models_root_ = use_fresh_store(scratch_, "table2-models");
    clear_experiment_caches(false);
    Session session;
    synth_datasets(session, kinds());
    for (const ScenarioSpec& spec : plain_) {
      Span span("train", std::string("train_model.") + to_string(spec.model));
      session.train_model(spec);
    }
  }

  void prepare_cold() override {
    const std::string root = use_fresh_store(scratch_, "table2-rep");
    copy_store_bucket(models_root_, root, "models");
    clear_experiment_caches(false);
    session_ = std::make_unique<Session>();
    for (ModelKind kind : kinds()) session_->dataset(kind);
  }

  double cold() override {
    std::vector<std::vector<ScenarioResult>> res(by_backend_.size());
    double images = 0.0;
    for (std::size_t b = 0; b < by_backend_.size(); ++b) {
      const char* bname = to_string(backends()[b]);
      const index_t runs0 = training_runs();
      const index_t evals0 = session_->counters().evals_computed;
      const auto t0 = Clock::now();
      try {
        Span span("runner", std::string("run_all.") + bname);
        res[b] = session_->run_all(by_backend_[b]);
      } catch (const std::exception& e) {
        outcome_.check(false, per_backend(),
                       std::string("table2 cold ") + bname + ": " + e.what());
        continue;
      }
      std::fprintf(stderr, "[perfbench] table2 cold %s: %.3f s\n", bname,
                   seconds_since(t0));
      const bool unit_ok =
          training_runs() == runs0 &&
          session_->counters().evals_computed - evals0 == per_backend();
      for (std::size_t i = 0; i < res[b].size(); ++i) {
        const ScenarioResult& r = res[b][i];
        bool ok = unit_ok && in_unit(r.mean_acc) && r.mc.n_chips > 0 &&
                  in_unit(r.clean_acc);
        // bench_pim_equivalence tolerances against weight_domain: int8
        // means within 0.02, circuit means within 0.08.
        if (b > 0 && res[0].size() == res[b].size()) {
          const double tol =
              backends()[b] == EvalBackend::kInt8 ? 0.02 : 0.08;
          ok = ok && std::fabs(r.mean_acc - res[0][i].mean_acc) <= tol;
        }
        outcome_.check(ok, 1, std::string("table2 cold ") + bname + " " +
                                  r.key + " mean=" + std::to_string(r.mean_acc));
        images += static_cast<double>(r.mc.n_chips) *
                  eval_images(*session_, by_backend_[b][i]);
      }
    }
    best_clean(res[0], by_backend_[0], "table2");
    cold_.clear();
    for (auto& v : res) cold_.insert(cold_.end(), v.begin(), v.end());
    return images;
  }

  void warm() override {
    clear_experiment_caches(false);
    Session session;
    const index_t runs0 = training_runs();
    std::vector<ScenarioResult> res;
    try {
      Span span("runner", "run_all.warm");
      res = session.run_all(all_);
    } catch (const std::exception& e) {
      outcome_.check(false, static_cast<long long>(all_.size()),
                     std::string("table2 warm: ") + e.what());
      return;
    }
    const SessionCounters c = session.counters();
    const bool unit_ok = training_runs() == runs0 && c.evals_computed == 0 &&
                         res.size() == cold_.size();
    for (std::size_t i = 0; i < res.size(); ++i) {
      outcome_.check(unit_ok && same_result(res[i], cold_[i]), 1,
                     "table2 warm differs from cold: " + res[i].key);
    }
  }

  int setup_reps() const override { return 2; }
  int min_cold_reps() const override { return 3; }
  int warm_reps() const override { return 7; }

 private:
  static std::vector<ModelKind> kinds() {
    return {ModelKind::kVGG11s, ModelKind::kResNet18s};
  }
  static std::vector<EvalBackend> backends() {
    return {EvalBackend::kWeightDomain, EvalBackend::kInt8,
            EvalBackend::kCircuit};
  }
  long long per_backend() const {
    return static_cast<long long>(by_backend_.front().size());
  }

  std::string scratch_;
  Outcome& outcome_;
  std::vector<ScenarioSpec> plain_;  // one per trained model
  std::vector<std::vector<ScenarioSpec>> by_backend_;
  std::vector<ScenarioSpec> all_;
  std::string models_root_;
  std::unique_ptr<Session> session_;
  std::vector<ScenarioResult> cold_;
};

// -------------------------------------------------------------- fleet

bool same_trajectory(const FleetTrajectory& a, const FleetTrajectory& b) {
  if (a.checkpoints.size() != b.checkpoints.size()) return false;
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const FleetCheckpoint& x = a.checkpoints[i];
    const FleetCheckpoint& y = b.checkpoints[i];
    if (x.step != y.step || x.mean != y.mean || x.min != y.min ||
        x.max != y.max || x.p5 != y.p5 || x.p50 != y.p50 || x.p95 != y.p95 ||
        x.retunes != y.retunes || x.stale != y.stale) {
      return false;
    }
  }
  return true;
}

// The fleet_mixed lifetime study (LeNet-5s A4W2, 64 chips x 64 steps,
// threshold re-tune) through FleetEvaluator::run with the store
// disabled; warm resumes the study from its step-48 checkpoint in a
// private store and finishes the last window.
class FleetMixed : public Workload {
 public:
  FleetMixed(std::uint64_t seed, std::string scratch, Outcome& outcome)
      : spec_(fleet_mixed_spec(seed)), scratch_(std::move(scratch)),
        outcome_(outcome) {}

  void setup() override {
    disable_store();
    clear_experiment_caches(false);
    session_ = std::make_unique<Session>();
    synth_datasets(*session_, {spec_.scenario.model});
    Span span("train", "train_model.lenet5s");
    const TrainedModel tm = session_->train_model(spec_.scenario);
    std::fprintf(stderr, "[perfbench] fleet: clean accuracy %.3f\n",
                 tm.clean_test_acc);
    outcome_.check(tm.clean_test_acc > kLeNetFloor, 1,
                   "fleet model clean_acc=" + std::to_string(tm.clean_test_acc));
  }

  void prepare_cold() override { disable_store(); }

  double cold() override {
    FleetEvaluator fleet(*session_);
    FleetRunResult r;
    try {
      Span span("fleet", "run.cold");
      r = fleet.run(spec_);
    } catch (const std::exception& e) {
      outcome_.check(false, windows(), std::string("fleet cold: ") + e.what());
      return chip_steps();
    }
    bool ok = !r.loaded && valid(r.trajectory);
    if (!cold_.checkpoints.empty()) {
      ok = ok && same_trajectory(r.trajectory, cold_);
    }
    outcome_.check(ok, windows(), "fleet cold trajectory");
    cold_ = r.trajectory;
    return chip_steps();
  }

  void prepare_warm() override {
    if (resume_root_.empty()) {
      // One store-enabled run of the first 48 steps publishes the
      // checkpoint snapshots every warm unit resumes from; its rows must
      // be the cold trajectory's prefix.
      resume_root_ = use_fresh_store(scratch_, "fleet-base");
      FleetStudySpec base = spec_;
      base.lifetime.n_steps = kResumeStep;
      try {
        const FleetRunResult r = FleetEvaluator(*session_).run(base);
        outcome_.check(r.snapshots_published == windows() - 1 &&
                           same_trajectory(r.trajectory, prefix(kResumeStep)),
                       windows() - 1, "fleet checkpoint run");
      } catch (const std::exception& e) {
        outcome_.check(false, windows() - 1,
                       std::string("fleet checkpoint run: ") + e.what());
      }
    }
    copy_store_bucket(resume_root_, use_fresh_store(scratch_, "fleet-rep"),
                      kFleetBucket);
  }

  // Horizon extension: resume from the step-48 snapshot (n_steps is not
  // part of the study key), compute the last window and publish it.
  void warm() override {
    FleetEvaluator fleet(*session_);
    try {
      Span span("fleet", "run.resume");
      const FleetRunResult r = fleet.run(spec_);
      outcome_.check(!r.loaded && r.resumed_from_step == kResumeStep &&
                         r.snapshots_published == 1 &&
                         same_trajectory(r.trajectory, cold_),
                     1, "fleet resumed trajectory");
    } catch (const std::exception& e) {
      outcome_.check(false, 1, std::string("fleet resume: ") + e.what());
    }
  }

  int setup_reps() const override { return 7; }
  int min_cold_reps() const override { return 4; }
  int warm_reps() const override { return 7; }

 private:
  static constexpr index_t kResumeStep = 48;

  FleetTrajectory prefix(index_t steps) const {
    FleetTrajectory t;
    for (const FleetCheckpoint& c : cold_.checkpoints) {
      if (c.step <= steps) t.checkpoints.push_back(c);
    }
    return t;
  }
  long long windows() const {
    return static_cast<long long>(spec_.lifetime.n_steps /
                                  spec_.lifetime.checkpoint_every);
  }
  double chip_steps() const {
    return static_cast<double>(spec_.lifetime.n_chips) *
           static_cast<double>(spec_.lifetime.n_steps);
  }
  // Rows lie in [0, 1], close consecutive windows, and cumulative
  // retunes never decrease.
  bool valid(const FleetTrajectory& t) const {
    if (static_cast<long long>(t.checkpoints.size()) != windows()) return false;
    index_t prev_retunes = 0;
    for (std::size_t i = 0; i < t.checkpoints.size(); ++i) {
      const FleetCheckpoint& c = t.checkpoints[i];
      if (c.step != static_cast<index_t>(i + 1) * spec_.lifetime.checkpoint_every ||
          !in_unit(c.mean) || !in_unit(c.min) || !in_unit(c.max) ||
          !in_unit(c.p5) || !in_unit(c.p50) || !in_unit(c.p95) ||
          c.min > c.mean || c.mean > c.max || c.retunes < prev_retunes ||
          !(c.stale >= 0.0)) {
        return false;
      }
      prev_retunes = c.retunes;
    }
    return true;
  }

  FleetStudySpec spec_;
  std::string scratch_;
  Outcome& outcome_;
  std::unique_ptr<Session> session_;
  FleetTrajectory cold_;
  std::string resume_root_;
};

}  // namespace

std::vector<ScenarioSpec> table1_specs(std::uint64_t seed) {
  SweepManifest m;
  builtin_manifest("table1", &m);
  for (ScenarioSpec& s : m.specs) reseed(s, seed);
  return m.specs;
}

FleetStudySpec fleet_mixed_spec(std::uint64_t seed) {
  FleetStudySpec s;
  builtin_fleet_study("fleet_mixed", &s);
  reseed(s.scenario, seed);
  s.lifetime.seed = derive_seed(seed, kLifetimeSeed);
  return s;
}

std::vector<std::string> workload_names() {
  return {"table1_sweep", "table2_deploy", "fleet_mixed"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch,
                                        Outcome& outcome) {
  if (name == "table1_sweep") {
    return std::make_unique<Table1Sweep>(seed, scratch, outcome);
  }
  if (name == "table2_deploy") {
    return std::make_unique<Table2Deploy>(seed, scratch, outcome);
  }
  if (name == "fleet_mixed") {
    return std::make_unique<FleetMixed>(seed, scratch, outcome);
  }
  return nullptr;
}

}  // namespace perfbench
