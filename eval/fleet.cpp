#include "eval/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "eval/store.h"
#include "tensor/parallel_for.h"

namespace qavat {

namespace {

// ------------------------------------------------------- snapshot codec

// Strict sequential reader over StateDict::scalars: O(n) for the whole
// snapshot where name lookups would be O(n^2) on thousands of entries,
// and any missing, renamed or reordered field fails the decode instead
// of silently defaulting.
struct ScalarCursor {
  const std::vector<std::pair<std::string, double>>& s;
  std::size_t i = 0;

  bool next(const std::string& name, double* v) {
    if (i >= s.size() || s[i].first != name) return false;
    *v = s[i++].second;
    return true;
  }
  // A count or step: a finite, integral, non-negative double no larger
  // than 2^53 (beyond which doubles stop representing every integer).
  // Checked before the cast, which is undefined for NaN and out-of-range
  // values.
  bool next_index(const std::string& name, index_t* v) {
    double d = 0.0;
    if (!next(name, &d)) return false;
    if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d)) {
      return false;
    }
    *v = static_cast<index_t>(d);
    return true;
  }
  std::size_t left() const { return s.size() - i; }
};

// Scalars each trajectory row and each chip occupies in a snapshot.
constexpr index_t kRowScalars = 9;
constexpr index_t kChipScalars = 7;

// --------------------------------------------------------- eval helpers

// Linear-interpolated quantile of an ascending-sorted vector.
double quantile_sorted(const std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace

// -------------------------------------------------------- FleetStudySpec

std::string FleetStudySpec::key() const {
  return scenario.key() + "_" + lifetime.key();
}

std::string FleetStudySpec::to_json() const {
  return "{\"scenario\":" + scenario.to_json() + ",\"lifetime\":" +
         lifetime.to_json() + "}";
}

bool FleetStudySpec::from_json(const std::string& text, FleetStudySpec* out,
                               std::string* error) {
  if (error != nullptr) error->clear();
  json::Value root;
  if (!json::parse_object(text, &root, error)) return false;
  // Decode one required member, prefixing its errors with the name.
  auto member = [&](const char* name, auto decode, auto* dst) {
    const json::Value* v = root.find(name);
    std::string sub_err = "missing object";
    if (v != nullptr && decode(*v, dst, &sub_err)) return true;
    if (error != nullptr) *error = std::string(name) + ": " + sub_err;
    return false;
  };
  FleetStudySpec s;
  if (!member("scenario", ScenarioSpec::from_value, &s.scenario) ||
      !member("lifetime", LifetimeSpec::from_value, &s.lifetime)) {
    return false;
  }
  *out = s;
  return true;
}

// --------------------------------------------------------- FleetSnapshot

StateDict FleetSnapshot::to_state_dict(const std::string& study_key) const {
  const std::uint64_t fp = fnv1a64(study_key);
  StateDict sd;
  sd.add_scalar("fleet_schema", static_cast<double>(kLifetimeSchemaVersion));
  sd.add_scalar("key_hi", static_cast<double>(fp >> 32));
  sd.add_scalar("key_lo", static_cast<double>(fp & 0xffffffffULL));
  sd.add_scalar("n_chips", static_cast<double>(n_chips));
  sd.add_scalar("completed_steps", static_cast<double>(completed_steps));
  sd.add_scalar("n_rows", static_cast<double>(rows.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const FleetCheckpoint& row = rows[r];
    const std::string p = "row" + std::to_string(r) + ".";
    sd.add_scalar(p + "step", static_cast<double>(row.step));
    sd.add_scalar(p + "mean", row.mean);
    sd.add_scalar(p + "min", row.min);
    sd.add_scalar(p + "max", row.max);
    sd.add_scalar(p + "p5", row.p5);
    sd.add_scalar(p + "p50", row.p50);
    sd.add_scalar(p + "p95", row.p95);
    sd.add_scalar(p + "retunes", static_cast<double>(row.retunes));
    sd.add_scalar(p + "stale", row.stale);
  }
  for (std::size_t c = 0; c < chips.size(); ++c) {
    const ChipLifetimeState& st = chips[c];
    const std::string p = "chip" + std::to_string(c) + ".";
    sd.add_scalar(p + "ou", st.ou);
    sd.add_scalar(p + "aging", st.aging);
    sd.add_scalar(p + "disturb", st.disturb);
    sd.add_scalar(p + "phase", st.phase);
    sd.add_scalar(p + "eps_hat", st.eps_hat);
    sd.add_scalar(p + "retunes", static_cast<double>(st.retunes));
    sd.add_scalar(p + "acc_sum", acc_sum[c]);
  }
  return sd;
}

bool FleetSnapshot::from_state_dict(const StateDict& sd,
                                    const std::string& study_key,
                                    FleetSnapshot* out) {
  ScalarCursor cur{sd.scalars};
  double schema = 0.0, key_hi = 0.0, key_lo = 0.0;
  FleetSnapshot s;
  index_t n_rows = 0;
  if (!cur.next("fleet_schema", &schema) ||
      schema != static_cast<double>(kLifetimeSchemaVersion) ||
      !cur.next("key_hi", &key_hi) || !cur.next("key_lo", &key_lo) ||
      !cur.next_index("n_chips", &s.n_chips) ||
      !cur.next_index("completed_steps", &s.completed_steps) ||
      !cur.next_index("n_rows", &n_rows)) {
    return false;
  }
  const std::uint64_t fp = fnv1a64(study_key);
  if (key_hi != static_cast<double>(fp >> 32) ||
      key_lo != static_cast<double>(fp & 0xffffffffULL)) {
    return false;
  }
  // The counts size the allocations below, so they must be backed by
  // the scalars actually present (both are <= 2^53: no overflow).
  if (kRowScalars * n_rows + kChipScalars * s.n_chips >
      static_cast<index_t>(cur.left())) {
    return false;
  }
  s.rows.resize(static_cast<std::size_t>(n_rows));
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    FleetCheckpoint& row = s.rows[r];
    const std::string p = "row" + std::to_string(r) + ".";
    if (!cur.next_index(p + "step", &row.step) ||
        !cur.next(p + "mean", &row.mean) || !cur.next(p + "min", &row.min) ||
        !cur.next(p + "max", &row.max) || !cur.next(p + "p5", &row.p5) ||
        !cur.next(p + "p50", &row.p50) || !cur.next(p + "p95", &row.p95) ||
        !cur.next_index(p + "retunes", &row.retunes) ||
        !cur.next(p + "stale", &row.stale)) {
      return false;
    }
  }
  s.chips.resize(static_cast<std::size_t>(s.n_chips));
  s.acc_sum.resize(static_cast<std::size_t>(s.n_chips));
  for (std::size_t c = 0; c < s.chips.size(); ++c) {
    ChipLifetimeState& st = s.chips[c];
    const std::string p = "chip" + std::to_string(c) + ".";
    if (!cur.next(p + "ou", &st.ou) || !cur.next(p + "aging", &st.aging) ||
        !cur.next(p + "disturb", &st.disturb) ||
        !cur.next(p + "phase", &st.phase) ||
        !cur.next(p + "eps_hat", &st.eps_hat) ||
        !cur.next_index(p + "retunes", &st.retunes) ||
        !cur.next(p + "acc_sum", &s.acc_sum[c])) {
      return false;
    }
  }
  if (cur.i != sd.scalars.size() || !sd.tensors.empty()) return false;
  *out = std::move(s);
  return true;
}

// --------------------------------------------------------- FleetEvaluator

std::vector<ClaimUnitRef> FleetEvaluator::claim_units(
    const FleetStudySpec& spec) {
  std::vector<ClaimUnitRef> units;
  for (ClaimUnitRef& u : session_.claim_units(spec.scenario)) {
    // Only the training units apply: the scenario's Monte-Carlo eval
    // artifact is never produced by a fleet run (the lifetime spec owns
    // deployment).
    if (std::strcmp(u.bucket, "models") == 0) units.push_back(u);
  }
  units.push_back(ClaimUnitRef{kFleetBucket, spec.key()});
  return units;
}

FleetRunResult FleetEvaluator::run(const FleetStudySpec& spec) {
  const LifetimeSpec& lt = spec.lifetime;
  if (lt.n_chips < 1 || lt.n_steps < 1 || lt.checkpoint_every < 1 ||
      lt.batch_size < 1) {
    throw std::invalid_argument(
        "FleetEvaluator::run: n_chips, n_steps, checkpoint_every and "
        "batch_size must all be >= 1");
  }
  if (lt.n_steps % lt.checkpoint_every != 0) {
    throw std::invalid_argument(
        "FleetEvaluator::run: checkpoint_every (" +
        std::to_string(static_cast<long long>(lt.checkpoint_every)) +
        ") must divide n_steps (" +
        std::to_string(static_cast<long long>(lt.n_steps)) +
        ") — window boundaries are part of the trajectory identity");
  }
  const std::string key = spec.key();
  const index_t ck = lt.checkpoint_every;
  const index_t n_windows = lt.n_steps / ck;
  const std::size_t nc = static_cast<std::size_t>(lt.n_chips);

  FleetRunResult res;
  res.n_chips = lt.n_chips;

  // Claim-or-load: a complete snapshot (this horizon or longer) serves
  // the trajectory prefix with no local compute; otherwise we either
  // hold the production lease or the store cannot arbitrate and we
  // compute locally (fail-soft).
  FleetSnapshot served;
  ClaimWait cw = claim_or_load(kFleetBucket, key, [&](StoreLoadOutcome* o) {
    StateDict sd;
    if (!store_load_state(kFleetBucket, key, &sd, o)) return false;
    FleetSnapshot s;
    if (!FleetSnapshot::from_state_dict(sd, key, &s)) return false;
    if (s.completed_steps < lt.n_steps) return false;
    served = std::move(s);
    return true;
  });
  if (cw.loaded) {
    res.trajectory.checkpoints.assign(
        served.rows.begin(),
        served.rows.begin() + static_cast<std::size_t>(n_windows));
    res.loaded = true;
    return res;
  }

  // We produce (or extend). Train through the session's cache first —
  // under the model buckets' own claim protocol — then pick up the
  // newest partial snapshot, which may have advanced while we waited.
  TrainedModel tm = session_.train_model(spec.scenario);
  res.trained = tm.trained;
  const Module& model = *tm.model;
  const Dataset& test = session_.dataset(spec.scenario.model).test;

  std::vector<ChipLifetimeState> chips(nc);
  std::vector<double> acc_sum(nc, 0.0);
  std::vector<FleetCheckpoint> rows;
  index_t start_step = 0;
  {
    StateDict sd;
    FleetSnapshot s;
    if (store_load_state(kFleetBucket, key, &sd) &&
        FleetSnapshot::from_state_dict(sd, key, &s) &&
        s.n_chips == lt.n_chips && s.completed_steps % ck == 0 &&
        static_cast<index_t>(s.rows.size()) == s.completed_steps / ck) {
      chips = std::move(s.chips);
      acc_sum = std::move(s.acc_sum);
      rows = std::move(s.rows);
      start_step = s.completed_steps;
    }
  }
  if (start_step >= lt.n_steps) {
    // Completed (by us in a previous run, or by the holder we raced)
    // between the probe and the claim — serve the prefix.
    res.trajectory.checkpoints.assign(
        rows.begin(), rows.begin() + static_cast<std::size_t>(n_windows));
    res.loaded = true;
    return res;
  }
  res.resumed_from_step = start_step;
  if (cw.saw_corrupt) store_note_retrain_after_corruption();

  const LifetimeModel lm(lt);
  if (start_step == 0) {
    parallel_for(index_t{0}, lt.n_chips, index_t{1},
                 [&](index_t c0, index_t c1) {
                   for (index_t c = c0; c < c1; ++c) {
                     Rng rng = LifetimeModel::init_rng(lt, c);
                     lm.init(&chips[static_cast<std::size_t>(c)], rng);
                   }
                 });
  }

  const VariabilityConfig within =
      VariabilityConfig::within_only(lt.drift.model, lt.drift.sigma_w);
  const CorrectionKind correction = correction_for(proper_mode(lt.drift.model));
  const index_t chip_batch =
      std::max<index_t>(1, std::min(chip_batch_from_env(), lt.n_chips));
  const index_t n_test = test.size();
  const index_t rows_per_step = std::min(lt.batch_size, n_test);
  // A step's chip-major tiled forward stays the size of one batch.
  const index_t chunk = std::max<index_t>(1, lt.batch_size / chip_batch);
  // The evaluator's chip lanes, built once per run and reused by every
  // window.
  ChipLanes lanes(model, lt.n_chips);

  // Per-chip window accumulators. A lane writes only its own chips'
  // entries; hits are integers and the stale sums are accumulated per
  // chip in step order, so every cross-chip reduction below runs in chip
  // order — bit-identical results for any lane split, chip_batch and
  // QAVAT_THREADS.
  std::vector<index_t> win_hits(nc, 0);
  std::vector<double> win_stale(nc, 0.0);
  std::vector<double> win_acc(nc, 0.0);

  for (index_t w = start_step / ck; w < n_windows; ++w) {
    const index_t t_first = w * ck + 1;
    const index_t t_last = (w + 1) * ck;
    std::fill(win_hits.begin(), win_hits.end(), index_t{0});
    std::fill(win_stale.begin(), win_stale.end(), 0.0);
    lanes.run([&](Module& replica, index_t c0, index_t c1) {
      const std::vector<QuantLayerBase*> qlayers = replica.quant_layers();
      std::vector<index_t> step_rows(static_cast<std::size_t>(rows_per_step));
      for (index_t chip0 = c0; chip0 < c1; chip0 += chip_batch) {
        const index_t nb = std::min(chip_batch, c1 - chip0);
        // Unlike the Monte-Carlo evaluator the state is ALWAYS active: a
        // pure-drift deployment (sigma_w == 0) still carries the drifting
        // eps_B through the (zeroed) eps planes. The static within-chip
        // field is re-drawn identically for this group every window; the
        // prologue zeroes ltm_err, which the fleet never models.
        sample_chip_group(qlayers, within, lt.seed, nullptr, chip0, nb, true,
                          correction);
        for (index_t t = t_first; t <= t_last; ++t) {
          // Advance + re-tune the group's chips: pure per-chip functions
          // of (stored state, counter stream), so any partition works.
          parallel_for(index_t{0}, nb, index_t{1}, [&](index_t b0, index_t b1) {
            for (index_t b = b0; b < b1; ++b) {
              ChipLifetimeState& st = chips[static_cast<std::size_t>(chip0 + b)];
              Rng rng = LifetimeModel::step_rng(lt, chip0 + b, t);
              lm.advance(&st, rng);
              lm.maybe_retune(&st, t, rng);
            }
          });
          for (QuantLayerBase* q : qlayers) {
            NoiseState& ns = q->noise_state();
            for (index_t b = 0; b < nb; ++b) {
              const ChipLifetimeState& st =
                  chips[static_cast<std::size_t>(chip0 + b)];
              ns.eps_b[static_cast<std::size_t>(b)] =
                  static_cast<float>(lm.eps_b(st, t));
              ns.eps_hat[static_cast<std::size_t>(b)] =
                  static_cast<float>(st.eps_hat);
            }
            // eps_b is baked into the stacked effective weights, which
            // cache on the revision — a new drift step needs a new build.
            ++ns.revision;
          }
          for (index_t b = 0; b < nb; ++b) {
            const ChipLifetimeState& st =
                chips[static_cast<std::size_t>(chip0 + b)];
            win_stale[static_cast<std::size_t>(chip0 + b)] +=
                std::fabs(st.eps_hat - lm.eps_b(st, t));
          }
          // Step t evaluates test rows [(t-1)*batch_size, ...) mod n_test
          // — a pure function of t, so a resumed run sees the same data.
          const index_t base = (t - 1) * lt.batch_size;
          for (index_t i = 0; i < rows_per_step; ++i) {
            step_rows[static_cast<std::size_t>(i)] = (base + i) % n_test;
          }
          score_chips(replica, test, step_rows, chunk, nb,
                      win_hits.data() + chip0);
        }
      }
    });
    // Close the window: per-chip window-mean accuracies, distribution
    // across chips, cumulative retunes, mean staleness. All reductions
    // run in chip order (see the accumulator comment above).
    const double denom = static_cast<double>(ck * rows_per_step);
    index_t retunes = 0;
    double stale_total = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      win_acc[c] = static_cast<double>(win_hits[c]) / denom;
      acc_sum[c] += win_acc[c] * static_cast<double>(ck);
      retunes += chips[c].retunes;
      stale_total += win_stale[c];
    }
    FleetCheckpoint row;
    row.step = t_last;
    double sum = 0.0;
    for (std::size_t c = 0; c < nc; ++c) sum += win_acc[c];
    row.mean = sum / static_cast<double>(nc);
    std::vector<double> sorted = win_acc;
    std::sort(sorted.begin(), sorted.end());
    row.min = sorted.front();
    row.max = sorted.back();
    row.p5 = quantile_sorted(sorted, 0.05);
    row.p50 = quantile_sorted(sorted, 0.50);
    row.p95 = quantile_sorted(sorted, 0.95);
    row.retunes = retunes;
    row.stale = stale_total / static_cast<double>(ck * lt.n_chips);
    rows.push_back(row);

    FleetSnapshot snap;
    snap.n_chips = lt.n_chips;
    snap.completed_steps = t_last;
    snap.rows = rows;
    snap.chips = chips;
    snap.acc_sum = acc_sum;
    if (store_save_state(kFleetBucket, key, snap.to_state_dict(key))) {
      ++res.snapshots_published;
    }
  }
  res.trajectory.checkpoints = std::move(rows);
  return res;
}

// -------------------------------------------------------- builtin grids

namespace {

FleetStudySpec builtin_base() {
  FleetStudySpec s;
  s.scenario = ScenarioSpec::within(ModelKind::kLeNet5s, 4, 2,
                                    ScenarioAlgo::kQAVAT,
                                    VarianceModel::kWeightProportional, 0.25);
  s.lifetime.drift.model = VarianceModel::kWeightProportional;
  s.lifetime.drift.sigma_w = 0.25;
  s.lifetime.drift.sigma_b = 0.35;
  s.lifetime.drift.tau = 16.0;
  s.lifetime.gtm_cells = 1000;
  s.lifetime.n_chips = 64;
  s.lifetime.n_steps = 64;
  s.lifetime.checkpoint_every = 16;
  s.lifetime.batch_size = 50;
  s.lifetime.policy.kind = RetunePolicyKind::kFixedInterval;
  s.lifetime.policy.interval = 16;
  return s;
}

}  // namespace

std::vector<std::string> builtin_fleet_names() {
  return {"fleet_ou", "fleet_aging", "fleet_thermal", "fleet_disturb",
          "fleet_mixed"};
}

bool builtin_fleet_study(const std::string& name, FleetStudySpec* out) {
  FleetStudySpec s = builtin_base();
  if (name == "fleet_ou") {
    // Pure OU drift, fixed-interval re-tuning — the bench_drift regime.
  } else if (name == "fleet_aging") {
    s.lifetime.events.aging_rate = 0.002;
    s.lifetime.policy.kind = RetunePolicyKind::kThreshold;
    s.lifetime.policy.budget = 0.1;
  } else if (name == "fleet_thermal") {
    s.lifetime.events.thermal_amp = 0.15;
    s.lifetime.events.thermal_period = 32.0;
  } else if (name == "fleet_disturb") {
    s.lifetime.events.disturb_rate = 0.02;
    s.lifetime.events.disturb_mag = 0.2;
    s.lifetime.policy.kind = RetunePolicyKind::kThreshold;
    s.lifetime.policy.budget = 0.1;
  } else if (name == "fleet_mixed") {
    s.lifetime.events.aging_rate = 0.001;
    s.lifetime.events.thermal_amp = 0.1;
    s.lifetime.events.thermal_period = 32.0;
    s.lifetime.events.disturb_rate = 0.01;
    s.lifetime.events.disturb_mag = 0.2;
    s.lifetime.policy.kind = RetunePolicyKind::kThreshold;
    s.lifetime.policy.budget = 0.1;
  } else {
    return false;
  }
  *out = s;
  return true;
}

}  // namespace qavat
