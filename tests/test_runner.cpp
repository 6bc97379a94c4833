// Direct Session coverage over the runner/claim stack: run_all's
// spec-order bit-identity against a sequential run() loop (cold and
// warm), provenance counter aggregation (counters()), training lanes
// at 1/2/4 threads against a run() loop (numbers, per-spec provenance,
// counters, train() count), failure surfacing at the failing spec's
// position with no new unit started after it, and the lanes' busy
// skip — a unit whose claim is held elsewhere is passed over, not
// waited on, while other units are ready, and results still return in
// spec order. Runs against a private temp store (QAVAT_STORE_DIR is set
// first thing in main, before any store call).
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/runner.h"
#include "eval/store.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

// Tiny-but-real scenario: one epoch, two Monte-Carlo chips, a handful
// of test samples — enough to exercise every cache/claim path fast.
ScenarioSpec tiny_spec(std::uint64_t init_seed, double sigma) {
  ScenarioSpec s = ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4,
                                        ScenarioAlgo::kQAVAT,
                                        VarianceModel::kWeightProportional,
                                        sigma);
  s.model_cfg.init_seed = init_seed;
  s.train.epochs = 1;
  s.eval.n_chips = 2;
  s.eval.max_test_samples = 32;
  return s;
}

// Clean-only (no deploy noise) QAT spec: exactly one claim unit, the
// QAT pretrain model — the minimal unit for busy-skip probes.
ScenarioSpec clean_qat_spec(std::uint64_t init_seed) {
  ScenarioSpec s = ScenarioSpec::base(ModelKind::kLeNet5s, 4, 4,
                                      ScenarioAlgo::kQAT);
  s.model_cfg.init_seed = init_seed;
  s.train.epochs = 1;
  return s;
}

bool results_identical(const ScenarioResult& a, const ScenarioResult& b) {
  return a.key == b.key && a.clean_acc == b.clean_acc &&
         a.mean_acc == b.mean_acc &&
         a.mc.accuracy.mean == b.mc.accuracy.mean &&
         a.mc.accuracy.stddev == b.mc.accuracy.stddev &&
         a.mc.n_chips == b.mc.n_chips;
}

void test_run_all_matches_run_loop() {
  const std::vector<ScenarioSpec> specs = {tiny_spec(11, 0.1),
                                           tiny_spec(22, 0.3)};

  // Cold sequential reference.
  clear_experiment_caches(true);
  Session loop_session;
  std::vector<ScenarioResult> loop_results;
  for (const ScenarioSpec& s : specs) loop_results.push_back(loop_session.run(s));

  // Cold pipelined run_all on a re-dropped store: same numbers, same
  // order, same provenance.
  clear_experiment_caches(true);
  Session all_session;
  const std::vector<ScenarioResult> all_results = all_session.run_all(specs);
  CHECK(all_results.size() == specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(all_results[i].key == specs[i].key());
    CHECK(results_identical(all_results[i], loop_results[i]));
    CHECK(all_results[i].trained);
    CHECK(all_results[i].eval_computed);
  }
  const SessionCounters cold = all_session.counters();
  CHECK(cold.scenarios == 2);
  CHECK(cold.trained == 2);
  CHECK(cold.evals_computed == 2);
  CHECK(cold.eval_cache_hits == 0);

  // Warm run_all through the store (memory caches dropped): nothing
  // trains or evaluates, numbers bit-identical.
  clear_experiment_caches(false);
  Session warm_session;
  const std::vector<ScenarioResult> warm_results = warm_session.run_all(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(results_identical(warm_results[i], all_results[i]));
    CHECK(!warm_results[i].trained);
    CHECK(warm_results[i].model_from_store);
    CHECK(!warm_results[i].eval_computed);
  }
  const SessionCounters warm = warm_session.counters();
  CHECK(warm.scenarios == 2);
  CHECK(warm.trained == 0);
  CHECK(warm.model_store_hits == 2);
  CHECK(warm.evals_computed == 0);
  CHECK(warm.eval_cache_hits == 2);
}

void test_failure_position() {
  // The bad spec's model geometry disagrees with the workload dataset
  // (image_size +4), so its first forward pass hits the always-on layer
  // input-shape check — a deterministic std::invalid_argument mid-grid.
  ScenarioSpec bad = tiny_spec(33, 0.2);
  bad.model_cfg.image_size += 4;
  const std::vector<ScenarioSpec> specs = {tiny_spec(44, 0.1), bad,
                                           tiny_spec(55, 0.3)};

  for (const index_t nt : {1, 4}) {
    set_num_threads(nt);
    clear_experiment_caches(true);
    Session session;
    const index_t runs0 = training_runs();
    bool threw = false;
    try {
      session.run_all(specs);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    // The spec before the failure completed; nothing after it evaluated.
    const SessionCounters c = session.counters();
    CHECK(c.scenarios == 1);
    // No lane starts a unit once the failure is seen, and units in
    // flight finish and publish: every train() run but the failed one
    // left a published model and no live claim.
    index_t published = 0;
    for (const ScenarioSpec& s : specs) {
      for (const ClaimUnitRef& u : session.claim_units(s)) {
        CHECK(!store_claim_busy(u.bucket, u.key));
        if (std::string(u.bucket) == "models" && store_has(u.bucket, u.key)) {
          ++published;
        }
      }
    }
    CHECK(training_runs() - runs0 == published + 1);
    // And the completed spec's artifacts did publish.
    for (const ClaimUnitRef& u : session.claim_units(specs[0])) {
      CHECK(store_has(u.bucket, u.key));
    }
    // One lane takes the pretrains in spec order, so the failure comes
    // before any unit of the spec after it has started.
    if (nt == 1) {
      for (const ClaimUnitRef& u : session.claim_units(specs[2])) {
        CHECK(!store_has(u.bucket, u.key));
      }
    }
  }
  set_num_threads(0);  // back to QAVAT_THREADS
}

// A grid with a shared pretrain (the QAT spec and two QAVAT sigmas of
// one LeNet-5s workload), a PTQ-VAT spec and a second model kind. The
// first QAVAT spec precedes the QAT spec, so a run() loop attributes
// the pretrain's training to it and reports the QAT spec as a memory
// hit; the VGG-11s spec comes last in spec order, but its pretrain is
// picked before the LeNet-5s fine-tunes and the PTQ-VAT unit.
std::vector<ScenarioSpec> lane_grid() {
  auto lenet = [](ScenarioAlgo algo, double sigma) {
    ScenarioSpec s = ScenarioSpec::within(
        ModelKind::kLeNet5s, 4, 4, algo, VarianceModel::kWeightProportional,
        sigma);
    s.train.epochs = 1;
    s.eval.n_chips = 2;
    s.eval.max_test_samples = 32;
    return s;
  };
  ScenarioSpec vgg =
      ScenarioSpec::base(ModelKind::kVGG11s, 4, 4, ScenarioAlgo::kQAT);
  vgg.train.epochs = 1;
  return {lenet(ScenarioAlgo::kQAVAT, 0.1), lenet(ScenarioAlgo::kQAT, 0.1),
          lenet(ScenarioAlgo::kPTQVAT, 0.1), lenet(ScenarioAlgo::kQAVAT, 0.3),
          vgg};
}

bool same_provenance(const ScenarioResult& a, const ScenarioResult& b) {
  return a.trained == b.trained && a.model_from_store == b.model_from_store &&
         a.eval_computed == b.eval_computed;
}

bool same_counters(const SessionCounters& a, const SessionCounters& b) {
  return a.scenarios == b.scenarios && a.trained == b.trained &&
         a.model_store_hits == b.model_store_hits &&
         a.evals_computed == b.evals_computed &&
         a.eval_cache_hits == b.eval_cache_hits;
}

// What one pass over the grid produced, with its train() count.
struct GridRun {
  std::vector<ScenarioResult> results;
  SessionCounters counters;
  index_t train_runs = 0;
};

GridRun run_grid(const std::vector<ScenarioSpec>& specs, bool lanes) {
  GridRun g;
  Session session;
  const index_t runs0 = training_runs();
  if (lanes) {
    g.results = session.run_all(specs);
  } else {
    for (const ScenarioSpec& s : specs) g.results.push_back(session.run(s));
  }
  g.counters = session.counters();
  g.train_runs = training_runs() - runs0;
  return g;
}

void check_same_run(const GridRun& lanes, const GridRun& loop) {
  CHECK(lanes.results.size() == loop.results.size());
  for (std::size_t i = 0; i < lanes.results.size(); ++i) {
    CHECK(results_identical(lanes.results[i], loop.results[i]));
    CHECK(same_provenance(lanes.results[i], loop.results[i]));
  }
  CHECK(same_counters(lanes.counters, loop.counters));
  CHECK(lanes.train_runs == loop.train_runs);
}

void test_run_all_lanes_match_run_loop() {
  const std::vector<ScenarioSpec> specs = lane_grid();

  // Sequential references: cold, then warm through the store.
  clear_experiment_caches(true);
  const GridRun cold_loop = run_grid(specs, false);
  clear_experiment_caches(false);
  const GridRun warm_loop = run_grid(specs, false);
  CHECK(cold_loop.train_runs == 6);  // pretrain, 2 fine-tunes, 2 PTQ-VAT
                                     // phases, VGG pretrain
  CHECK(cold_loop.results[0].trained);
  CHECK(!cold_loop.results[1].trained);  // the pretrain is a memory hit
  CHECK(warm_loop.train_runs == 0);

  for (const index_t nt : {1, 2, 4}) {
    set_num_threads(nt);
    clear_experiment_caches(true);
    const GridRun cold = run_grid(specs, true);
    check_same_run(cold, cold_loop);
    // A warm rerun trains nothing and reports what a warm loop reports.
    clear_experiment_caches(false);
    const GridRun warm = run_grid(specs, true);
    check_same_run(warm, warm_loop);
    CHECK(warm.counters.trained == 0);
  }
  set_num_threads(0);  // back to QAVAT_THREADS
}

void test_run_all_busy_skip() {
  clear_experiment_caches(true);
  const std::vector<ScenarioSpec> specs = {clean_qat_spec(101),
                                           clean_qat_spec(202)};

  Session probe_session;
  const std::string key0 = probe_session.claim_units(specs[0])[0].key;
  const std::string key1 = probe_session.claim_units(specs[1])[0].key;
  CHECK(key0 != key1);

  // Hold spec 0's claim like a concurrent producer would, then run
  // run_all on ONE lane in another thread. The lane must pass over
  // spec 0's busy unit and produce spec 1's while the lease is held —
  // with a single lane that skip is the only way key1 can publish
  // first — and take spec 0's unit once nothing else is ready, waiting
  // in the work-claim protocol until the lease is dropped.
  StoreClaimStatus status = StoreClaimStatus::kUnavailable;
  StoreClaim held = store_try_claim("models", key0, &status);
  CHECK(status == StoreClaimStatus::kAcquired);
  CHECK(held.held());
  CHECK(store_claim_busy("models", key0));

  set_num_threads(1);
  std::vector<ScenarioResult> results;
  std::thread runner([&] {
    Session session;
    results = session.run_all(specs);
  });

  // Wait (bounded) for the lane to publish the unblocked unit, then
  // release the lease so it can produce spec 0's.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!store_has("models", key1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CHECK(store_has("models", key1));  // published while key0 was held
  CHECK(!store_has("models", key0));
  held.release();
  runner.join();
  set_num_threads(0);  // back to QAVAT_THREADS

  // Spec-order results, out-of-order production.
  CHECK(results.size() == 2);
  CHECK(results[0].key == specs[0].key());
  CHECK(results[1].key == specs[1].key());
  CHECK(store_has("models", key0));
}

}  // namespace

int main() {
  // Private store, enabled, before any store call; fast claim backoff
  // so the busy-skip test's lane turns around quickly once the lease it
  // waits on is dropped.
  const std::string store_dir =
      (fs::temp_directory_path() /
       ("qavat-test-runner-" + std::to_string(::getpid())))
          .string();
  ::setenv("QAVAT_STORE_DIR", store_dir.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);
  ::setenv("QAVAT_CLAIM_BACKOFF_MS", "5", 1);
  std::error_code ec;
  fs::remove_all(store_dir, ec);

  test_run_all_matches_run_loop();
  test_failure_position();
  test_run_all_lanes_match_run_loop();
  test_run_all_busy_skip();

  fs::remove_all(store_dir, ec);
  return qavat::test::finish("test_runner");
}
