// Scenario runner: the one entry point benches use. A Session executes
// declarative ScenarioSpecs — resolve the workload dataset (cached per
// model kind), train through the store-backed model cache, Monte-Carlo
// evaluate through the store-backed result cache — and returns a
// ScenarioResult carrying the numbers plus provenance (what was actually
// computed vs loaded); timing aggregates in the session's counters.
// Deterministic: a warm session run reproduces a cold run's numbers
// bit-identically (DESIGN.md §11), so the provenance/timing channel is
// the only part that may differ — benches print it to stderr, keeping
// stdout byte-stable.
#pragma once

#include <map>
#include <vector>

#include "eval/experiment.h"
#include "eval/scenario.h"

namespace qavat {

/// Everything Session::run produces for one scenario: accuracies,
/// Monte-Carlo stats and provenance.
struct ScenarioResult {
  std::string key;          ///< the spec's canonical cache/store key
  double clean_acc = 0.0;   ///< noise-free test accuracy of the model
  double mean_acc = 0.0;    ///< mc.accuracy.mean, or clean_acc for a
                            ///< clean-only spec (deploy noise disabled)
  EvalStats mc;             ///< Monte-Carlo stats (n_chips 0 if clean-only)
  bool trained = false;         ///< training actually ran during this call
  bool model_from_store = false;  ///< model loaded from the disk store
  bool eval_computed = false;   ///< MC eval ran (vs memory/store hit)
};

/// Snapshot of a Session's provenance counters (the numbers
/// print_summary writes to stderr), exposed so tools and tests can
/// assert aggregation without scraping the log line. train_runs lives in
/// eval/experiment.h (training_runs()) because it is process-wide, not
/// per-session.
struct SessionCounters {
  index_t scenarios = 0;        ///< run()/run_all units completed
  index_t trained = 0;          ///< scenarios that ran any train() phase
  index_t model_store_hits = 0; ///< models loaded from the disk store
  index_t evals_computed = 0;   ///< Monte-Carlo evals actually executed
  index_t eval_cache_hits = 0;  ///< evals served from memory/store
  double train_seconds = 0.0;   ///< wall time in training entry points
                                ///< (run_all: its training phase's wall
                                ///< time, not the sum over lanes)
  double eval_seconds = 0.0;    ///< wall time in evaluation entry points
};

/// One work-claim unit of a scenario: the (store bucket, canonical key)
/// pair the work-claim protocol serializes producers on. --dry-run and
/// tests probe these to see whether a scenario's parts are published,
/// being produced by some process, or free to claim.
struct ClaimUnitRef {
  const char* bucket;  ///< store bucket name ("models" or "evals")
  std::string key;     ///< canonical artifact key within the bucket
};

/// Where a claim unit stands in the store right now. Advisory: the
/// work-claim protocol still arbitrates every producer, so a stale
/// answer costs a wait, never a second production.
enum class ClaimState {
  kDone,   ///< artifact published
  kBusy,   ///< no artifact yet; another process holds a live lease
  kReady,  ///< no artifact and no live lease: free to claim
};

/// Classify the unit (bucket, key) — the one probe behind run_all's busy
/// skip and both CLIs' --dry-run.
ClaimState claim_state(const char* bucket, const std::string& key);

/// "done", "busy" or "ready": the state token --dry-run prints.
const char* claim_state_name(ClaimState state);

/// Executes ScenarioSpecs against process-wide caches and the artifact
/// store, memoizing datasets per model kind and aggregating provenance
/// counters across every run() — one Session per bench binary.
class Session {
 public:
  /// Train (through the cache/store) and evaluate one scenario.
  ScenarioResult run(const ScenarioSpec& spec);

  /// Batch execution on training lanes, the one batch scheduler (benches,
  /// qavat-sweep and bench_sweep's workers all call it): results return in
  /// spec order and carry the same numbers and per-spec provenance a
  /// sequential run() loop would produce.
  ///  * Train: the specs' training units (eval/experiment.h
  ///    training_units), deduplicated by key, run on
  ///    min(num_threads(), units) lanes — one outer pool span each. A
  ///    fine-tune starts once its pretrain is done; pretrains are picked
  ///    first, then units in spec order. Each lane owns one Module and its
  ///    Workspace per unit. Every unit still goes through the work-claim
  ///    protocol, the only cross-process authority.
  ///  * Busy skip: a lane passes over a ready unit that another process
  ///    is producing (no artifact yet, live lease) and takes the next
  ///    ready one, so co-operating processes on one store drain disjoint
  ///    units first. When only busy units are ready it takes the first of
  ///    them anyway; the work-claim wait then loads the peer's artifact.
  ///  * Evaluate: the specs, in order, on the calling thread (the
  ///    evaluator's chip lanes run inside each evaluation).
  ///  * Provenance: a unit's trained/from_store flags belong to the first
  ///    spec that needs it; counters aggregate after the lanes join, and
  ///    counters().train_seconds gains the training phase's wall time.
  ///  * Failure: once a unit throws, no lane starts a new unit; in-flight
  ///    units finish and publish. The specs before the first spec that
  ///    needs the failed unit then complete (training, like run(), any
  ///    unit the lanes left unstarted), and that spec rethrows the unit's
  ///    exception; nothing after it is evaluated.
  std::vector<ScenarioResult> run_all(const std::vector<ScenarioSpec>& specs);

  /// The work-claim units run(spec) would produce, in production order:
  /// the spec's training units (eval/experiment.h training_units — the
  /// QAT pretrain, then the QAVAT fine-tune when the spec fine-tunes; or
  /// the PTQ-VAT model), then the Monte-Carlo eval when deploy noise is
  /// enabled. Used by --dry-run and tests to probe artifact/claim
  /// state non-destructively.
  std::vector<ClaimUnitRef> claim_units(const ScenarioSpec& spec);

  /// This session's provenance counters so far (run + run_all +
  /// train_model all aggregate into the same totals).
  SessionCounters counters() const;

  /// Just the (cached/store-backed) trained model of a scenario, for
  /// benches that drive a custom evaluation loop (drift, equivalence).
  /// Counts toward the session's provenance totals.
  TrainedModel train_model(const ScenarioSpec& spec);

  /// The workload dataset for `kind` (fast-mode-sized), built once per
  /// session.
  const SplitDataset& dataset(ModelKind kind);

  /// Two machine-greppable lines on stderr: the provenance summary, e.g.
  /// `[qavat-session] bench: scenarios=30 trained=0 train_runs=0
  /// model_store_hits=30 evals_computed=0 eval_cache_hits=30 train_s=0.00
  /// eval_s=0.00 backend=weight_domain` (train_runs is the process-wide
  /// train() phase count the work-claim protocol deduplicates across
  /// concurrent processes), and the `[qavat-store]` health counters
  /// (writes_failed, loads_corrupt, claims_reclaimed,
  /// retrains_after_corruption, tmp_swept, faults_injected, plus the
  /// serialize-layer envelope checksum counters). The CI warm-store gate
  /// asserts `trained=0`/`evals_computed=0`; the concurrent-sweep gate
  /// asserts the train_runs sum across two processes equals one cold run.
  void print_summary(const char* name) const;

 private:
  // Training half of run(), without counting: the spec's model through
  // the cached training entry points.
  TrainedModel train_spec(const ScenarioSpec& spec);
  // Add one spec's training provenance to the counters.
  void count_training(const TrainedModel& tm);
  // Evaluation half of run(): everything after training — shared by
  // run() and run_all so their results are identical by construction.
  ScenarioResult finish_scenario(const ScenarioSpec& spec, TrainedModel tm);

  std::map<ModelKind, SplitDataset> datasets_;
  index_t scenarios_ = 0;
  index_t trained_ = 0;
  index_t model_store_hits_ = 0;
  index_t evals_computed_ = 0;
  index_t eval_cache_hits_ = 0;
  double train_seconds_ = 0.0;
  double eval_seconds_ = 0.0;
};

}  // namespace qavat
