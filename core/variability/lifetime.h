// Fleet lifetime model: composable drift *events* on top of the OU term
// (core/variability/drift.h), scheduled re-tuning policies, and the
// schema-versioned LifetimeSpec that names a whole longitudinal study.
//
// A deployed analog chip's correlated deviation eps_B(t) is the sum of
// four processes, each advanced once per inference step:
//   * the stationary OU term (temperature drift, correlation time tau),
//   * an aging ramp — monotone conductance decay, a per-step decrement
//     of aging_rate jittered uniformly in [0.5, 1.5),
//   * a thermal cycle — deterministic periodic modulation
//     amp * sin(2*pi*t/period + phase) with a per-chip phase,
//   * program disturb — a rare persistent jump (probability disturb_rate
//     per step, magnitude ~ N(0, disturb_mag)).
// The within-chip component stays static (devices age coherently here;
// the per-device field is sampled once per chip, as in DESIGN.md §6).
//
// Determinism contract (the fleet layer's snapshot/resume protocol and
// thread-count bit-identity both hang off it): every stochastic draw
// comes from a *counter-based* stream — Rng(f(seed, t), chip) — never
// from a long-lived generator, so a chip's trajectory is a pure function
// of (spec.seed, chip, t). Resuming from a ChipLifetimeState snapshot
// therefore reproduces the uninterrupted run bit-identically, and chips
// may be advanced in any order from any number of threads.
#pragma once

#include <cstdint>
#include <string>

#include "core/variability/drift.h"
#include "tensor/json.h"

namespace qavat {

/// Key/JSON schema version baked into every LifetimeSpec key; bump when
/// the key format, the draw order, or the meaning of any keyed field
/// changes so persisted fleet snapshots can never be misread.
inline constexpr int kLifetimeSchemaVersion = 1;

/// Drift-event mix layered on top of the OU term. All-zero (the
/// default) degenerates to the pure OU drift of DESIGN.md §6.
struct DriftEvents {
  double aging_rate = 0.0;     ///< mean eps_B decay per step (monotone)
  double thermal_amp = 0.0;    ///< amplitude of the periodic modulation
  double thermal_period = 0.0; ///< thermal period in steps (0 disables)
  double disturb_rate = 0.0;   ///< per-step program-disturb probability
  double disturb_mag = 0.0;    ///< std of one disturb jump

  /// True when any event process is enabled.
  bool any() const {
    return aging_rate > 0.0 || (thermal_amp > 0.0 && thermal_period > 0.0) ||
           (disturb_rate > 0.0 && disturb_mag > 0.0);
  }
};

/// When the chip re-measures its GTM during deployment.
enum class RetunePolicyKind {
  kNever,          ///< factory calibration only
  kFixedInterval,  ///< full re-measure every `interval` steps
  kThreshold       ///< cheap probe each step; full re-measure on budget
                   ///< excess
};

/// Scheduled re-tuning policy. The threshold policy models a cheap
/// online health check: each step the chip reads `probe_cells` GTM
/// devices (error ~ sigma_W / sqrt(probe_cells)) and triggers the full
/// `gtm_cells` re-measurement only when the probe disagrees with the
/// last calibration by more than `budget`.
struct RetunePolicy {
  RetunePolicyKind kind = RetunePolicyKind::kNever;
  index_t interval = 0;     ///< kFixedInterval: steps between re-measures
  double budget = 0.1;      ///< kThreshold: |probe - eps_hat| trigger
  index_t probe_cells = 16; ///< kThreshold: cheap probe size
};

/// Everything that determines one fleet lifetime study's numbers —
/// drift mix, re-tuning policy, population protocol and seed — with a
/// canonical key() and a lossless JSON round-trip mirroring
/// ScenarioSpec. The full store identity of a study is the scenario key
/// (model + training recipe) concatenated with this key.
///
/// n_steps is deliberately EXCLUDED from key(): a fleet snapshot is a
/// trajectory *prefix*, so a study extended to a larger horizon resumes
/// from the persisted checkpoint instead of restarting. checkpoint_every
/// must divide n_steps (window boundaries are part of the trajectory
/// identity; the fleet evaluator rejects specs that violate this).
struct LifetimeSpec {
  DriftConfig drift;        ///< OU term + static within-chip component
  DriftEvents events;       ///< event mix on top of the OU term
  RetunePolicy policy;      ///< deployment re-tuning schedule
  index_t gtm_cells = 1000; ///< full re-measurement GTM size
  index_t n_chips = 64;     ///< simulated fleet size
  index_t n_steps = 64;     ///< lifetime horizon (not part of the key)
  index_t checkpoint_every = 16;  ///< steps per trajectory checkpoint
  index_t batch_size = 50;  ///< test rows evaluated per lifetime step
  std::uint64_t seed = 7000;  ///< root of every per-chip stream

  /// Canonical, stable, space-free key fragment ("lt1_..."), excluding
  /// n_steps (see above) and every result-invariant execution knob.
  std::string key() const;

  /// Lossless JSON encoding (doubles at round-trip precision).
  std::string to_json() const;

  /// Parse a to_json() document. Returns false — leaving *out untouched
  /// — on malformed JSON, an unknown enum token, a schema mismatch, an
  /// n_chips, n_steps, checkpoint_every or batch_size below 1, or a
  /// checkpoint_every that does not divide n_steps; absent optional
  /// fields keep their defaults. `*error` (optional)
  /// names the offending field, e.g. "policy.budget: expected a number".
  static bool from_json(const std::string& text, LifetimeSpec* out,
                        std::string* error = nullptr);

  /// Decode an already-parsed document, with from_json's contract; a
  /// non-object fails with "expected an object". FleetStudySpec decodes
  /// its "lifetime" member through this.
  static bool from_value(const json::Value& root, LifetimeSpec* out,
                         std::string* error = nullptr);
};

/// One chip's persistent lifetime state — exactly what a fleet snapshot
/// stores per chip. Plain doubles (plus the retune counter): thanks to
/// the counter-based RNG streams no generator state needs persisting.
struct ChipLifetimeState {
  double ou = 0.0;       ///< OU component of eps_B
  double aging = 0.0;    ///< accumulated aging decay (monotone, <= 0)
  double disturb = 0.0;  ///< accumulated program-disturb jumps
  double phase = 0.0;    ///< thermal phase, drawn once at init
  double eps_hat = 0.0;  ///< last GTM measurement (the correction input)
  index_t retunes = 0;   ///< full re-measures since deployment
};

/// The composed per-chip lifetime process: init / advance / re-tune over
/// ChipLifetimeState. Stateless across calls (all coefficients come
/// from the spec; all randomness from the caller-provided counter-based
/// Rng), so one instance serves every chip from any thread.
class LifetimeModel {
 public:
  explicit LifetimeModel(const LifetimeSpec& spec);

  /// Deployment-time init: stationary OU draw, thermal phase, and the
  /// factory GTM calibration (eps_hat). Draws from init_rng(spec, chip).
  void init(ChipLifetimeState* st, Rng& rng) const;

  /// Advance the composed drift from step t-1 to t (t >= 1). Draw
  /// order (fixed; part of the schema): OU innovation, aging jitter,
  /// disturb coin, disturb magnitude. Draws from step_rng(spec, chip, t).
  void advance(ChipLifetimeState* st, Rng& rng) const;

  /// Apply the re-tuning policy at step t (t >= 1), after advance().
  /// Returns true when a full GTM re-measure ran (eps_hat refreshed,
  /// retune counter bumped). Consumes the same step stream as advance.
  bool maybe_retune(ChipLifetimeState* st, index_t t, Rng& rng) const;

  /// The composed eps_B(t) for a chip in state `st` at step `t`.
  double eps_b(const ChipLifetimeState& st, index_t t) const;

  /// Counter-based stream for a chip's init draws.
  static Rng init_rng(const LifetimeSpec& spec, index_t chip);

  /// Counter-based stream for a chip's step-t draws (t >= 1).
  static Rng step_rng(const LifetimeSpec& spec, index_t chip, index_t t);

 private:
  DriftConfig drift_;
  DriftEvents events_;
  RetunePolicy policy_;
  index_t gtm_cells_;
};

}  // namespace qavat
