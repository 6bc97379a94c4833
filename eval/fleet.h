// Fleet lifetime evaluation (ROADMAP "Fleet-scale lifetime & drift
// scenarios"): simulate N deployed chips over T inference steps under a
// composed LifetimeModel (core/variability/lifetime.h) and a re-tuning
// policy, and stream out a FleetTrajectory — per-checkpoint mean/min/max
// and P5/P50/P95 accuracy quantiles plus cumulative retune counts —
// without ever materializing the N x T accuracy matrix.
//
// Execution: each checkpoint window runs on the evaluator's chip-lane
// engine (eval/evaluator.h) — ChipLanes built once per run and reused by
// every window, groups of chip_batch chips drawn by sample_chip_group
// (the within-chip field, from Rng(seed, chip)), and one score_chips
// pass per lifetime step per group — while the group's per-chip
// lifetime states advance from a nested parallel_for. A chip's
// trajectory is a pure function of (seed, chip, t) and every cross-chip
// reduction runs in chip order after the lanes join, so results are
// bit-identical for any QAVAT_THREADS and any chip grouping
// (QAVAT_CHIP_BATCH, chip_batch_from_env in eval/evaluator.h, is
// result-invariant and therefore not part of any key).
//
// Persistence: after every checkpoint window the evaluator publishes a
// FleetSnapshot (per-chip drift state + per-chip accuracy history + the
// trajectory rows so far; scalars only, so the round-trip is exact) to
// the store's "fleet" bucket under the study key. Production runs under
// the PR 8 work-claim protocol: one process holds the lease and
// publishes checkpoints, racing processes back off until the completed
// trajectory appears — exactly-once snapshot publication — and an
// interrupted or horizon-extended study resumes from the last published
// checkpoint instead of restarting (n_steps is excluded from the key).
#pragma once

#include <string>
#include <vector>

#include "core/variability/lifetime.h"
#include "eval/runner.h"
#include "tensor/serialize.h"

namespace qavat {

/// Store bucket fleet snapshots live in.
inline constexpr char kFleetBucket[] = "fleet";

/// One fleet lifetime study: the trained-model scenario (model, bits,
/// training recipe — its deploy/eval fields are unused here; the
/// lifetime spec owns deployment) plus the lifetime protocol.
struct FleetStudySpec {
  ScenarioSpec scenario;
  LifetimeSpec lifetime;

  /// Canonical store identity: scenario.key() + "_" + lifetime.key().
  /// Excludes lifetime.n_steps, so extending a study's horizon resumes
  /// from the persisted snapshot.
  std::string key() const;

  /// Lossless JSON: {"scenario":{...},"lifetime":{...}}.
  std::string to_json() const;

  /// Parse a to_json() document; same contract as ScenarioSpec. Errors
  /// are prefixed with the failing sub-object ("scenario: ...",
  /// "lifetime: ...").
  static bool from_json(const std::string& text, FleetStudySpec* out,
                        std::string* error = nullptr);
};

/// One checkpoint row of a fleet trajectory: the accuracy distribution
/// across chips of their window-mean accuracies (the window is the
/// checkpoint_every steps this row closes), cumulative retunes, and the
/// mean GTM staleness |eps_hat - eps_B(t)| over the window.
struct FleetCheckpoint {
  index_t step = 0;   ///< 1-based lifetime step this checkpoint closes
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p5 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  index_t retunes = 0;  ///< cumulative full re-measures across the fleet
  double stale = 0.0;   ///< mean |eps_hat - eps_B(t)|, window x chips
};

/// Streaming study output: one row per checkpoint, in step order.
struct FleetTrajectory {
  std::vector<FleetCheckpoint> checkpoints;
};

/// The persisted longitudinal state of a study: everything needed to
/// resume bit-identically from the last checkpoint. Scalars only — a
/// double round-trips exactly through the state-dict envelope, while a
/// float32 tensor would quantize the per-chip state and break resume
/// bit-identity.
struct FleetSnapshot {
  index_t n_chips = 0;
  index_t completed_steps = 0;
  std::vector<FleetCheckpoint> rows;        ///< trajectory so far
  std::vector<ChipLifetimeState> chips;     ///< per-chip drift state
  std::vector<double> acc_sum;  ///< per-chip accuracy history: sum of
                                ///< per-step accuracies over all steps

  /// Encode as an ordered StateDict. `study_key` is fingerprinted
  /// (fnv1a64, split into two 32-bit halves — a double cannot hold 64
  /// bits exactly) so a snapshot can never be misread for another study
  /// even if a store key collides.
  StateDict to_state_dict(const std::string& study_key) const;

  /// Strict ordered decode: returns false on any missing/renamed field,
  /// a schema or fingerprint mismatch, a count or step that is not a
  /// finite non-negative integer, or counts that need more scalars than
  /// `sd` holds (checked before anything is allocated). Leaves *out
  /// untouched on failure.
  static bool from_state_dict(const StateDict& sd,
                              const std::string& study_key,
                              FleetSnapshot* out);
};

/// What one FleetEvaluator::run produced, with resume provenance.
struct FleetRunResult {
  FleetTrajectory trajectory;
  index_t n_chips = 0;
  index_t resumed_from_step = 0;    ///< 0 = started from factory state
  index_t snapshots_published = 0;  ///< store publishes by THIS process
  bool loaded = false;   ///< complete trajectory served from the store
  bool trained = false;  ///< scenario training ran during this call
};

/// Runs fleet lifetime studies against a Session (trained-model cache +
/// dataset) and the artifact store. See the file comment for the
/// execution and persistence contracts.
class FleetEvaluator {
 public:
  explicit FleetEvaluator(Session& session) : session_(session) {}

  /// Execute (or resume, or load) one study. Throws std::invalid_argument
  /// on an inconsistent spec (n_chips/checkpoint_every/batch_size < 1,
  /// or checkpoint_every not dividing n_steps).
  FleetRunResult run(const FleetStudySpec& spec);

  /// The claim units a run would produce, in production order: the
  /// scenario's training units, then the fleet snapshot unit. For
  /// `qavat-fleet --dry-run` and tests.
  std::vector<ClaimUnitRef> claim_units(const FleetStudySpec& spec);

 private:
  Session& session_;
};

/// Names of the builtin lifetime studies `qavat-fleet emit` offers.
std::vector<std::string> builtin_fleet_names();

/// Materialize a builtin study by name (LeNet-family QAVAT scenarios
/// with representative drift mixes and policies). Returns false for an
/// unknown name.
bool builtin_fleet_study(const std::string& name, FleetStudySpec* out);

}  // namespace qavat
