#include "core/variability/lifetime.h"

#include <cmath>
#include <utility>

#include "core/selftune/selftune.h"

namespace qavat {

using namespace json;

namespace {

constexpr double kPi = 3.14159265358979323846;

// Stream-purpose tags: every lifetime stream is Rng(seed', chip) with a
// distinct seed', so it is independent of every other per-chip stream
// (including the fleet layer's static within-chip field at
// Rng(seed, chip)) without any generator state crossing a step boundary.
constexpr std::uint64_t kInitStreamTag = 0x6c1fe97a73f8d2b5ULL;
constexpr std::uint64_t kStepStreamStride = 0x9e3779b97f4a7c15ULL;

const char* variance_token(VarianceModel m) {
  return m == VarianceModel::kWeightProportional ? "wp" : "lf";
}

const char* policy_kind_token(RetunePolicyKind k) {
  switch (k) {
    case RetunePolicyKind::kNever: return "never";
    case RetunePolicyKind::kFixedInterval: return "fixed_interval";
    case RetunePolicyKind::kThreshold: return "threshold";
  }
  return "?";
}

std::string events_token(const DriftEvents& e) {
  if (!e.any()) return "none";
  std::string s;
  auto sep = [&s]() {
    if (!s.empty()) s += '_';
  };
  if (e.aging_rate > 0.0) {
    sep();
    s += "ag" + fmt_g(e.aging_rate);
  }
  if (e.thermal_amp > 0.0 && e.thermal_period > 0.0) {
    sep();
    s += "th" + fmt_g(e.thermal_amp) + "x" + fmt_g(e.thermal_period);
  }
  if (e.disturb_rate > 0.0 && e.disturb_mag > 0.0) {
    sep();
    s += "pd" + fmt_g(e.disturb_rate) + "x" + fmt_g(e.disturb_mag);
  }
  return s;
}

std::string policy_token(const RetunePolicy& p) {
  switch (p.kind) {
    case RetunePolicyKind::kNever: return "never";
    case RetunePolicyKind::kFixedInterval: return "fix" + lld(p.interval);
    case RetunePolicyKind::kThreshold:
      return "thr" + fmt_g(p.budget) + "x" + lld(p.probe_cells);
  }
  return "?";
}

}  // namespace

std::string LifetimeSpec::key() const {
  std::string k = "lt" + std::to_string(kLifetimeSchemaVersion);
  k += "_dr[" + std::string(variance_token(drift.model)) + "w" +
       fmt_g(drift.sigma_w) + "b" + fmt_g(drift.sigma_b) + "t" +
       fmt_g(drift.tau) + "]";
  k += "_ev[" + events_token(events) + "]";
  k += "_rp[" + policy_token(policy) + "]";
  k += "_g" + lld(gtm_cells);
  k += "_fl[c" + lld(n_chips) + "_k" + lld(checkpoint_every) + "_bs" +
       lld(batch_size) + "_sd" + std::to_string(seed) + "]";
  return k;
}

std::string LifetimeSpec::to_json() const {
  std::string o = "{";
  json_kv(o, "lifetime_schema", std::to_string(kLifetimeSchemaVersion), false);
  {
    std::string d = "{";
    json_kv(d, "model", variance_token(drift.model), true);
    json_kv(d, "sigma_w", fmt_exact(drift.sigma_w), false);
    json_kv(d, "sigma_b", fmt_exact(drift.sigma_b), false);
    json_kv(d, "tau", fmt_exact(drift.tau), false, true);
    d += '}';
    json_kv(o, "drift", d, false);
  }
  {
    std::string e = "{";
    json_kv(e, "aging_rate", fmt_exact(events.aging_rate), false);
    json_kv(e, "thermal_amp", fmt_exact(events.thermal_amp), false);
    json_kv(e, "thermal_period", fmt_exact(events.thermal_period), false);
    json_kv(e, "disturb_rate", fmt_exact(events.disturb_rate), false);
    json_kv(e, "disturb_mag", fmt_exact(events.disturb_mag), false, true);
    e += '}';
    json_kv(o, "events", e, false);
  }
  {
    std::string p = "{";
    json_kv(p, "kind", policy_kind_token(policy.kind), true);
    json_kv(p, "interval", lld(policy.interval), false);
    json_kv(p, "budget", fmt_exact(policy.budget), false);
    json_kv(p, "probe_cells", lld(policy.probe_cells), false, true);
    p += '}';
    json_kv(o, "policy", p, false);
  }
  json_kv(o, "gtm_cells", lld(gtm_cells), false);
  json_kv(o, "n_chips", lld(n_chips), false);
  json_kv(o, "n_steps", lld(n_steps), false);
  json_kv(o, "checkpoint_every", lld(checkpoint_every), false);
  json_kv(o, "batch_size", lld(batch_size), false);
  json_kv(o, "seed", std::to_string(seed), false, true);
  o += '}';
  return o;
}

bool LifetimeSpec::from_json(const std::string& text, LifetimeSpec* out,
                             std::string* error) {
  if (error != nullptr) error->clear();
  Value root;
  return parse_object(text, &root, error) && from_value(root, out, error);
}

bool LifetimeSpec::from_value(const Value& root, LifetimeSpec* out,
                              std::string* error) {
  if (error != nullptr) error->clear();
  if (root.kind != Value::kObj) {
    if (error != nullptr) *error = "expected an object";
    return false;
  }
  std::string* err = error;

  LifetimeSpec s;
  if (!read_schema(root, "lifetime_schema", kLifetimeSchemaVersion, err)) {
    return false;
  }
  if (const Value* d = root.find("drift")) {
    if (d->kind != Value::kObj) {
      return fail_field(err, "", "drift", "expected an object");
    }
    if (!read_enum(*d, "model", {"wp", "lf"},
                   {VarianceModel::kWeightProportional,
                    VarianceModel::kLayerFixed},
                   &s.drift.model, err, "drift.") ||
        !read_num(*d, "sigma_w", &s.drift.sigma_w, err, "drift.") ||
        !read_num(*d, "sigma_b", &s.drift.sigma_b, err, "drift.") ||
        !read_num(*d, "tau", &s.drift.tau, err, "drift.")) {
      return false;
    }
  }
  if (const Value* e = root.find("events")) {
    if (e->kind != Value::kObj) {
      return fail_field(err, "", "events", "expected an object");
    }
    if (!read_num(*e, "aging_rate", &s.events.aging_rate, err, "events.") ||
        !read_num(*e, "thermal_amp", &s.events.thermal_amp, err, "events.") ||
        !read_num(*e, "thermal_period", &s.events.thermal_period, err,
                  "events.") ||
        !read_num(*e, "disturb_rate", &s.events.disturb_rate, err,
                  "events.") ||
        !read_num(*e, "disturb_mag", &s.events.disturb_mag, err, "events.")) {
      return false;
    }
  }
  if (const Value* pl = root.find("policy")) {
    if (pl->kind != Value::kObj) {
      return fail_field(err, "", "policy", "expected an object");
    }
    if (!read_enum(*pl, "kind", {"never", "fixed_interval", "threshold"},
                   {RetunePolicyKind::kNever, RetunePolicyKind::kFixedInterval,
                    RetunePolicyKind::kThreshold},
                   &s.policy.kind, err, "policy.") ||
        !read_index(*pl, "interval", &s.policy.interval, err, "policy.") ||
        !read_num(*pl, "budget", &s.policy.budget, err, "policy.") ||
        !read_index(*pl, "probe_cells", &s.policy.probe_cells, err,
                    "policy.")) {
      return false;
    }
  }
  if (!read_index(root, "gtm_cells", &s.gtm_cells, err) ||
      !read_index(root, "n_chips", &s.n_chips, err) ||
      !read_index(root, "n_steps", &s.n_steps, err) ||
      !read_index(root, "checkpoint_every", &s.checkpoint_every, err) ||
      !read_index(root, "batch_size", &s.batch_size, err) ||
      !read_u64(root, "seed", &s.seed, err)) {
    return false;
  }
  const std::pair<const char*, index_t> positive[] = {
      {"n_chips", s.n_chips},
      {"n_steps", s.n_steps},
      {"checkpoint_every", s.checkpoint_every},
      {"batch_size", s.batch_size}};
  for (const auto& [name, value] : positive) {
    if (value < 1) return fail_field(err, "", name, "must be >= 1");
  }
  if (s.n_steps % s.checkpoint_every != 0) {
    return fail_field(err, "", "checkpoint_every",
                      "must divide n_steps (" + lld(s.n_steps) + ")");
  }
  *out = s;
  return true;
}

// ------------------------------------------------------------- model

LifetimeModel::LifetimeModel(const LifetimeSpec& spec)
    : drift_(spec.drift),
      events_(spec.events),
      policy_(spec.policy),
      gtm_cells_(spec.gtm_cells) {}

Rng LifetimeModel::init_rng(const LifetimeSpec& spec, index_t chip) {
  return Rng(spec.seed ^ kInitStreamTag, static_cast<std::uint64_t>(chip));
}

Rng LifetimeModel::step_rng(const LifetimeSpec& spec, index_t chip,
                            index_t t) {
  return Rng(spec.seed + kStepStreamStride * static_cast<std::uint64_t>(t),
             static_cast<std::uint64_t>(chip));
}

void LifetimeModel::init(ChipLifetimeState* st, Rng& rng) const {
  st->ou = rng.normal(0.0, drift_.sigma_b);
  st->aging = 0.0;
  st->disturb = 0.0;
  st->phase = events_.thermal_amp > 0.0 && events_.thermal_period > 0.0
                  ? rng.uniform(0.0, 2.0 * kPi)
                  : 0.0;
  st->retunes = 0;
  // Factory calibration: the full GTM measurement at t = 0 (not counted
  // as a deployment re-tune).
  st->eps_hat = measure_eps_b(eps_b(*st, 0), drift_.sigma_w, gtm_cells_, rng);
}

void LifetimeModel::advance(ChipLifetimeState* st, Rng& rng) const {
  OuProcess ou(drift_.tau, drift_.sigma_b);
  ou.set_value(st->ou);
  st->ou = ou.step(rng);
  if (events_.aging_rate > 0.0) {
    st->aging -= events_.aging_rate * rng.uniform(0.5, 1.5);
  }
  if (events_.disturb_rate > 0.0 && events_.disturb_mag > 0.0) {
    if (rng.uniform(0.0, 1.0) < events_.disturb_rate) {
      st->disturb += rng.normal(0.0, events_.disturb_mag);
    }
  }
}

bool LifetimeModel::maybe_retune(ChipLifetimeState* st, index_t t,
                                 Rng& rng) const {
  switch (policy_.kind) {
    case RetunePolicyKind::kNever:
      return false;
    case RetunePolicyKind::kFixedInterval:
      if (policy_.interval <= 0 || t % policy_.interval != 0) return false;
      break;
    case RetunePolicyKind::kThreshold: {
      const double probe = measure_eps_b(eps_b(*st, t), drift_.sigma_w,
                                         policy_.probe_cells, rng);
      if (std::fabs(probe - st->eps_hat) <= policy_.budget) return false;
      break;
    }
  }
  st->eps_hat = measure_eps_b(eps_b(*st, t), drift_.sigma_w, gtm_cells_, rng);
  st->retunes += 1;
  return true;
}

double LifetimeModel::eps_b(const ChipLifetimeState& st, index_t t) const {
  double e = st.ou + st.aging + st.disturb;
  if (events_.thermal_amp > 0.0 && events_.thermal_period > 0.0) {
    e += events_.thermal_amp *
         std::sin(2.0 * kPi * static_cast<double>(t) /
                      events_.thermal_period +
                  st.phase);
  }
  return e;
}

}  // namespace qavat
