#include "eval/runner.h"

#include "eval/store.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <utility>

#include "tensor/parallel_for.h"

namespace qavat {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The training plan of one spec (eval/experiment.h training_units).
std::vector<TrainUnit> plan_of(const ScenarioSpec& spec,
                               const SplitDataset& data) {
  return training_units(spec.model, spec.model_cfg, spec.algo, data,
                        spec.train);
}

// One deduplicated training unit of a run_all grid and what its lane
// did with it. The plan fills the first four fields; the lanes write
// the rest under run_all's mutex.
struct LaneUnit {
  static constexpr std::size_t kNone = ~std::size_t{0};
  TrainUnit unit;
  const SplitDataset* data = nullptr;
  bool needed = false;  ///< some spec's result depends on producing it
  std::size_t pretrain = kNone;  ///< unit that must be done first
  enum State { kPending, kRunning, kDone, kFailed } state = kPending;
  UnitOutcome outcome;
  std::exception_ptr error;
};

}  // namespace

ClaimState claim_state(const char* bucket, const std::string& key) {
  if (store_has(bucket, key)) return ClaimState::kDone;
  return store_claim_busy(bucket, key) ? ClaimState::kBusy
                                       : ClaimState::kReady;
}

const char* claim_state_name(ClaimState state) {
  return state == ClaimState::kDone   ? "done"
         : state == ClaimState::kBusy ? "busy"
                                      : "ready";
}

const SplitDataset& Session::dataset(ModelKind kind) {
  auto it = datasets_.find(kind);
  if (it == datasets_.end()) {
    it = datasets_.emplace(kind, make_dataset_for(kind)).first;
  }
  return it->second;
}

TrainedModel Session::train_spec(const ScenarioSpec& spec) {
  const SplitDataset& data = dataset(spec.model);
  return trained_model(plan_of(spec, data), data);
}

void Session::count_training(const TrainedModel& tm) {
  if (tm.trained) ++trained_;
  if (tm.from_store) ++model_store_hits_;
}

TrainedModel Session::train_model(const ScenarioSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  TrainedModel tm = train_spec(spec);
  train_seconds_ += seconds_since(t0);
  count_training(tm);
  return tm;
}

ScenarioResult Session::run(const ScenarioSpec& spec) {
  ++scenarios_;
  return finish_scenario(spec, train_model(spec));
}

ScenarioResult Session::finish_scenario(const ScenarioSpec& spec,
                                        TrainedModel tm) {
  ScenarioResult r;
  r.key = spec.key();
  r.trained = tm.trained;
  r.model_from_store = tm.from_store;
  r.clean_acc = tm.clean_test_acc;

  if (spec.deploy.enabled()) {
    const SplitDataset& data = dataset(spec.model);
    const SelfTuneConfig* st = spec.selftune_active() ? &spec.selftune : nullptr;
    const auto t1 = std::chrono::steady_clock::now();
    r.mc = with_eval_cache(
        r.key,
        [&] {
          return evaluate_under_variability(*tm.model, data.test, spec.deploy,
                                            spec.eval, st);
        },
        &r.eval_computed);
    eval_seconds_ += seconds_since(t1);
    if (r.eval_computed) {
      ++evals_computed_;
    } else {
      ++eval_cache_hits_;
    }
    r.mean_acc = r.mc.accuracy.mean;
  } else {
    // Clean-only scenario: the trained model's test accuracy is the
    // result (already cached with the model snapshot).
    r.mean_acc = r.clean_acc;
  }
  return r;
}

std::vector<ScenarioResult> Session::run_all(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  if (specs.empty()) return results;

  // Resolve every dataset on this thread first: dataset() inserts into
  // the per-session map, which the lanes then only read.
  for (const ScenarioSpec& spec : specs) dataset(spec.model);

  // Plan: every spec's training units, deduplicated by key. A spec's
  // last unit is its model; the lanes produce that, plus the pretrain
  // of any fine-tune that will have to train (a fine-tune already in
  // memory or in the store loads without its pretrain, as in run()).
  std::vector<LaneUnit> units;
  std::vector<std::vector<std::size_t>> spec_units(specs.size());
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    for (TrainUnit& u : plan_of(spec, dataset(spec.model))) {
      auto it = by_key.find(u.key);
      if (it == by_key.end()) {
        it = by_key.emplace(u.key, units.size()).first;
        units.emplace_back();
        units.back().unit = std::move(u);
        units.back().data = &dataset(spec.model);
      }
      spec_units[i].push_back(it->second);
    }
    LaneUnit& target = units[spec_units[i].back()];
    if (target.needed) continue;
    target.needed = true;
    if (spec_units[i].size() == 2 && !unit_available(target.unit)) {
      target.pretrain = spec_units[i][0];
      units[spec_units[i][0]].needed = true;
    }
  }
  // Pick order: pretrains first (they unlock fine-tunes), then spec
  // order.
  std::vector<std::size_t> order;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (units[u].needed) order.push_back(u);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const bool pa = units[a].unit.algo == ScenarioAlgo::kQAT;
                     const bool pb = units[b].unit.algo == ScenarioAlgo::kQAT;
                     return pa && !pb;
                   });

  // Train: one outer pool span per lane. A lane takes the first ready
  // unit in pick order (a fine-tune is ready once its pretrain is done)
  // that no other process is producing, produces it — its Module and
  // Workspace live only inside produce_unit — and records the outcome.
  // When every ready unit is busy elsewhere, the lane takes the first of
  // them anyway: produce_unit's claim_or_load waits for the peer and
  // loads its artifact. Lanes that find nothing ready while units are
  // still pending wait for a lane to finish. The first failure stops the
  // lanes from starting new units; in-flight units finish and publish.
  std::mutex mu;
  std::condition_variable cv;
  bool failed = false;
  const auto lane = [&] {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      if (failed) return;
      LaneUnit* pick = nullptr;
      LaneUnit* first_busy = nullptr;
      bool pending = false;
      for (const std::size_t u : order) {
        LaneUnit& c = units[u];
        if (c.state != LaneUnit::kPending) continue;
        pending = true;
        if (c.pretrain != LaneUnit::kNone &&
            units[c.pretrain].state != LaneUnit::kDone) {
          continue;
        }
        if (claim_state("models", c.unit.key) != ClaimState::kBusy) {
          pick = &c;
          break;
        }
        if (first_busy == nullptr) first_busy = &c;
      }
      if (pick == nullptr) pick = first_busy;
      if (pick == nullptr) {
        if (!pending) return;
        cv.wait(lk);
        continue;
      }
      pick->state = LaneUnit::kRunning;
      lk.unlock();
      UnitOutcome outcome;
      std::exception_ptr error;
      try {
        outcome = produce_unit(pick->unit, *pick->data);
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      pick->outcome = outcome;
      pick->error = error;
      pick->state = error ? LaneUnit::kFailed : LaneUnit::kDone;
      failed = failed || error != nullptr;
      cv.notify_all();
    }
  };
  const index_t lanes =
      std::min<index_t>(num_threads(), static_cast<index_t>(order.size()));
  const auto t_train = std::chrono::steady_clock::now();
  parallel_for(index_t{0}, lanes, index_t{1}, [&](index_t l0, index_t l1) {
    for (index_t l = l0; l < l1; ++l) lane();
  });
  train_seconds_ += seconds_since(t_train);

  // Evaluate in spec order on this thread. Each unit's provenance goes
  // to the first spec whose result needed it — a fine-tune that trained
  // also claims its pretrain — so per-spec flags match a run() loop. A
  // spec whose units the lanes left unstarted (after a failure) trains
  // them here, as run() would; the first spec that needed a failed unit
  // rethrows that unit's exception.
  std::vector<bool> attributed(units.size(), false);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::vector<std::size_t>& plan = spec_units[i];
    const LaneUnit& target = units[plan.back()];
    if (target.error) std::rethrow_exception(target.error);
    if (target.pretrain != LaneUnit::kNone && units[target.pretrain].error) {
      std::rethrow_exception(units[target.pretrain].error);
    }
    const auto t0 = std::chrono::steady_clock::now();
    TrainedModel tm = train_spec(specs[i]);
    train_seconds_ += seconds_since(t0);
    if (!attributed[plan.back()]) {
      attributed[plan.back()] = true;
      tm.trained = tm.trained || target.outcome.trained;
      tm.from_store = tm.from_store || target.outcome.from_store;
      if (target.outcome.trained && plan.size() == 2) {
        attributed[plan[0]] = true;
      }
    }
    count_training(tm);
    ++scenarios_;
    results.push_back(finish_scenario(specs[i], std::move(tm)));
  }
  return results;
}

std::vector<ClaimUnitRef> Session::claim_units(const ScenarioSpec& spec) {
  std::vector<ClaimUnitRef> units;
  for (const TrainUnit& u : plan_of(spec, dataset(spec.model))) {
    units.push_back({"models", u.key});
  }
  if (spec.deploy.enabled()) units.push_back({"evals", spec.key()});
  return units;
}

SessionCounters Session::counters() const {
  SessionCounters c;
  c.scenarios = scenarios_;
  c.trained = trained_;
  c.model_store_hits = model_store_hits_;
  c.evals_computed = evals_computed_;
  c.eval_cache_hits = eval_cache_hits_;
  c.train_seconds = train_seconds_;
  c.eval_seconds = eval_seconds_;
  return c;
}

void Session::print_summary(const char* name) const {
  // The trailing backend token tells the three backends' timings apart in
  // archived bench logs (it names the active QAVAT_EVAL_BACKEND, which
  // default_eval_config applied to every scenario of this session).
  // `trained` counts scenarios that ran any training; `train_runs` counts
  // the individual train() phases process-wide — the unit the work-claim
  // protocol deduplicates, so across N concurrent processes sharing one
  // cold store the train_runs SUM must equal a single-process cold run's
  // (the CI concurrent-sweep gate asserts exactly that).
  std::fprintf(
      stderr,
      "[qavat-session] %s: scenarios=%lld trained=%lld train_runs=%lld "
      "model_store_hits=%lld "
      "evals_computed=%lld eval_cache_hits=%lld train_s=%.2f eval_s=%.2f "
      "backend=%s\n",
      name, static_cast<long long>(scenarios_),
      static_cast<long long>(trained_),
      static_cast<long long>(training_runs()),
      static_cast<long long>(model_store_hits_),
      static_cast<long long>(evals_computed_),
      static_cast<long long>(eval_cache_hits_), train_seconds_, eval_seconds_,
      to_string(eval_backend_from_env()));
  // Store health companion line: the per-category counters that replaced
  // the single-shot write warning, plus the serialize-layer envelope
  // checksum verification counters. All zeros on a healthy run.
  const StoreStats ss = store_stats();
  const SerializeReadStats rs = serialize_read_stats();
  std::fprintf(
      stderr,
      "[qavat-store] %s: writes_failed=%lld loads_corrupt=%lld "
      "claims_reclaimed=%lld retrains_after_corruption=%lld tmp_swept=%lld "
      "faults_injected=%lld envelopes_verified=%lld envelopes_failed=%lld\n",
      name, ss.writes_failed, ss.loads_corrupt, ss.claims_reclaimed,
      ss.retrains_after_corruption, ss.tmp_swept, ss.faults_injected,
      rs.envelopes_verified, rs.envelopes_failed);
}

}  // namespace qavat
