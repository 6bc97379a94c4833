// Fleet lifetime subsystem tests (DESIGN.md §16): OuProcess unit
// coverage (stationary moments, determinism, the tau -> inf and tau -> 0
// limits), LifetimeModel event/policy semantics and stream determinism,
// LifetimeSpec / FleetStudySpec JSON + key contracts, FleetSnapshot
// round-trip bit-identity, and FleetEvaluator end-to-end: warm-store
// load, corrupt-snapshot healing, horizon-extension resume ==
// uninterrupted run (bitwise), and chip-lane / chip-batch invariance. Runs against a private temp store
// (QAVAT_STORE_DIR set before any store call, as in test_store.cpp).
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "core/variability/lifetime.h"
#include "eval/fleet.h"
#include "eval/store.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ OuProcess

void test_ou_stationary_moments() {
  // A long chain visits the stationary distribution: mean 0, std sigma.
  const double tau = 4.0, sigma = 0.5;
  Rng rng(11);
  OuProcess ou(tau, sigma, rng);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = ou.step(rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // Effective sample count is ~ n / (2 tau); generous tolerances.
  CHECK_NEAR(mean, 0.0, 0.02);
  CHECK_NEAR(std::sqrt(var), sigma, 0.02);

  // The initial draw itself is stationary: across independent seeds the
  // ctor value has std sigma.
  double isum = 0.0, isum2 = 0.0;
  const int m = 20000;
  for (int s = 0; s < m; ++s) {
    Rng r(static_cast<std::uint64_t>(s), 99);
    OuProcess p(tau, sigma, r);
    isum += p.value();
    isum2 += p.value() * p.value();
  }
  const double imean = isum / m;
  CHECK_NEAR(imean, 0.0, 0.02);
  CHECK_NEAR(std::sqrt(isum2 / m - imean * imean), sigma, 0.02);
}

void test_ou_determinism_and_injection() {
  // Same seed => same trace, exactly.
  Rng r1(7), r2(7);
  OuProcess a(16.0, 0.35, r1);
  OuProcess b(16.0, 0.35, r2);
  for (int i = 0; i < 50; ++i) CHECK(a.step(r1) == b.step(r2));

  // The coefficients-only ctor + set_value replays a persistent chain
  // bit-identically while keeping the process state one external double
  // — the contract the fleet snapshot protocol stands on.
  Rng r3(21), r4(21);
  OuProcess persistent(8.0, 0.5);
  persistent.set_value(0.125);
  double external = 0.125;
  for (int i = 0; i < 50; ++i) {
    const double want = persistent.step(r3);
    OuProcess transient(8.0, 0.5);
    transient.set_value(external);
    external = transient.step(r4);
    CHECK(external == want);
  }

  // Coefficients-only construction consumes no RNG draw.
  Rng r5(3), r6(3);
  OuProcess no_draw(8.0, 0.5);
  (void)no_draw;
  CHECK(r5.normal() == r6.normal());
}

void test_ou_tau_limits() {
  // tau -> inf: a -> 1, innovation -> 0; the value freezes. (At tau =
  // 1e12 the per-step innovation is still ~ sigma * sqrt(2/tau) ~ 7e-7,
  // so 100 steps wander O(1e-5) — far below the stationary sigma.)
  Rng rng(5);
  OuProcess frozen(1e12, 0.5, rng);
  const double x0 = frozen.value();
  for (int i = 0; i < 100; ++i) frozen.step(rng);
  CHECK_NEAR(frozen.value(), x0, 1e-4);

  // tau -> 0: a -> 0; successive values are i.i.d. N(0, sigma^2) —
  // empirical lag-1 autocorrelation vanishes and the std stays sigma.
  Rng rng2(6);
  OuProcess white(1e-9, 0.5, rng2);
  const int n = 20000;
  double prev = white.value();
  double sum = 0.0, sum2 = 0.0, cross = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = white.step(rng2);
    sum += x;
    sum2 += x * x;
    cross += x * prev;
    prev = x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  CHECK_NEAR(std::sqrt(var), 0.5, 0.02);
  CHECK_NEAR(cross / n / var, 0.0, 0.05);  // lag-1 correlation
}

// --------------------------------------------------------- LifetimeModel

// A spec whose only drift source is the one under test: sigma_b = 0
// freezes the OU term at 0 (stationary draw and innovations both have
// zero sigma), sigma_w = 0 makes every GTM measurement exact.
LifetimeSpec isolated_spec() {
  LifetimeSpec s;
  s.drift.sigma_b = 0.0;
  s.drift.sigma_w = 0.0;
  s.drift.tau = 16.0;
  s.gtm_cells = 100;
  return s;
}

void test_event_aging() {
  LifetimeSpec s = isolated_spec();
  s.events.aging_rate = 0.01;
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 0);
  lm.init(&st, init);
  CHECK(st.ou == 0.0);
  CHECK(st.eps_hat == 0.0);  // exact factory calibration of eps_B(0) = 0
  double prev = 0.0;
  const int n = 64;
  for (index_t t = 1; t <= n; ++t) {
    Rng rng = LifetimeModel::step_rng(s, 0, t);
    lm.advance(&st, rng);
    CHECK(st.aging < prev);  // strictly monotone decay
    prev = st.aging;
  }
  // Jittered in [0.5, 1.5) per step.
  CHECK(st.aging <= -0.01 * 0.5 * n);
  CHECK(st.aging >= -0.01 * 1.5 * n);
  CHECK(lm.eps_b(st, n) == st.aging);  // no other component active
}

void test_event_thermal() {
  LifetimeSpec s = isolated_spec();
  s.events.thermal_amp = 0.2;
  s.events.thermal_period = 32.0;
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 3);
  lm.init(&st, init);
  CHECK(st.phase >= 0.0 && st.phase < 2.0 * 3.14159265358979323846);
  // The deterministic cycle: bounded by amp, exactly periodic, and the
  // composed eps_b is the pure sinusoid (every other component is 0).
  for (index_t t = 0; t <= 64; ++t) {
    const double e = lm.eps_b(st, t);
    CHECK(std::fabs(e) <= 0.2 + 1e-12);
    CHECK_NEAR(lm.eps_b(st, t + 32), e, 1e-9);
  }
  // Phase is per-chip: another chip draws a different one.
  ChipLifetimeState st2;
  Rng init2 = LifetimeModel::init_rng(s, 4);
  lm.init(&st2, init2);
  CHECK(st.phase != st2.phase);
  // A disabled cycle draws no phase (stream economy is part of the
  // schema: enabling thermal must not shift other chips' draws).
  LifetimeSpec off = isolated_spec();
  const LifetimeModel lm_off(off);
  ChipLifetimeState st3;
  Rng init3 = LifetimeModel::init_rng(off, 3);
  lm_off.init(&st3, init3);
  CHECK(st3.phase == 0.0);
}

void test_event_disturb() {
  LifetimeSpec s = isolated_spec();
  s.events.disturb_rate = 1.0;  // fires every step
  s.events.disturb_mag = 0.3;
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 0);
  lm.init(&st, init);
  double prev = 0.0;
  for (index_t t = 1; t <= 32; ++t) {
    Rng rng = LifetimeModel::step_rng(s, 0, t);
    lm.advance(&st, rng);
    CHECK(st.disturb != prev);  // a jump landed
    prev = st.disturb;
  }
  // rate 0 (or mag 0) never jumps.
  LifetimeSpec s0 = isolated_spec();
  s0.events.disturb_rate = 0.0;
  s0.events.disturb_mag = 0.3;
  const LifetimeModel lm0(s0);
  ChipLifetimeState st0;
  Rng init0 = LifetimeModel::init_rng(s0, 0);
  lm0.init(&st0, init0);
  for (index_t t = 1; t <= 32; ++t) {
    Rng rng = LifetimeModel::step_rng(s0, 0, t);
    lm0.advance(&st0, rng);
  }
  CHECK(st0.disturb == 0.0);
}

void test_stream_determinism() {
  // A chip's state at step t is a pure function of (seed, chip, t):
  // replaying the streams reproduces it bit-identically, and distinct
  // chips/seeds give distinct trajectories.
  LifetimeSpec s;
  s.events.aging_rate = 0.001;
  s.events.thermal_amp = 0.1;
  s.events.thermal_period = 16.0;
  s.events.disturb_rate = 0.1;
  s.events.disturb_mag = 0.2;
  const LifetimeModel lm(s);
  auto advance_to = [&](index_t chip, index_t t_end) {
    ChipLifetimeState st;
    Rng init = LifetimeModel::init_rng(s, chip);
    lm.init(&st, init);
    for (index_t t = 1; t <= t_end; ++t) {
      Rng rng = LifetimeModel::step_rng(s, chip, t);
      lm.advance(&st, rng);
      lm.maybe_retune(&st, t, rng);
    }
    return st;
  };
  const ChipLifetimeState a = advance_to(2, 24);
  const ChipLifetimeState b = advance_to(2, 24);
  CHECK(std::memcmp(&a, &b, sizeof a) == 0);
  const ChipLifetimeState c = advance_to(3, 24);
  CHECK(a.ou != c.ou);
}

// -------------------------------------------------------- retune policies

void test_policy_never() {
  LifetimeSpec s = isolated_spec();
  s.drift.sigma_b = 0.35;  // drifting, but never re-measured
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 0);
  lm.init(&st, init);
  const double factory = st.eps_hat;
  for (index_t t = 1; t <= 32; ++t) {
    Rng rng = LifetimeModel::step_rng(s, 0, t);
    lm.advance(&st, rng);
    CHECK(!lm.maybe_retune(&st, t, rng));
  }
  CHECK(st.retunes == 0);
  CHECK(st.eps_hat == factory);
}

void test_policy_fixed_interval() {
  LifetimeSpec s = isolated_spec();
  s.drift.sigma_b = 0.35;
  s.policy.kind = RetunePolicyKind::kFixedInterval;
  s.policy.interval = 4;
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 0);
  lm.init(&st, init);
  for (index_t t = 1; t <= 16; ++t) {
    Rng rng = LifetimeModel::step_rng(s, 0, t);
    lm.advance(&st, rng);
    const bool retuned = lm.maybe_retune(&st, t, rng);
    CHECK(retuned == (t % 4 == 0));
    if (retuned) {
      // sigma_w = 0: the re-measurement is exact.
      CHECK(st.eps_hat == lm.eps_b(st, t));
    }
  }
  CHECK(st.retunes == 4);
}

void test_policy_threshold() {
  // sigma_w = 0 makes probe and full measurement exact, so the policy
  // reduces to |eps_B(t) - eps_hat| > budget — exactly checkable.
  LifetimeSpec s = isolated_spec();
  s.drift.sigma_b = 0.35;
  s.drift.tau = 4.0;
  s.policy.kind = RetunePolicyKind::kThreshold;
  s.policy.budget = 0.05;
  const LifetimeModel lm(s);
  ChipLifetimeState st;
  Rng init = LifetimeModel::init_rng(s, 1);
  lm.init(&st, init);
  index_t expected = 0;
  for (index_t t = 1; t <= 64; ++t) {
    Rng rng = LifetimeModel::step_rng(s, 1, t);
    lm.advance(&st, rng);
    const bool should = std::fabs(lm.eps_b(st, t) - st.eps_hat) > 0.05;
    CHECK(lm.maybe_retune(&st, t, rng) == should);
    if (should) {
      ++expected;
      CHECK(st.eps_hat == lm.eps_b(st, t));  // refreshed exactly
    }
  }
  CHECK(st.retunes == expected);
  CHECK(expected > 0);  // sigma_b 0.35 >> budget 0.05: must trigger

  // An infinite budget behaves like kNever.
  LifetimeSpec s2 = s;
  s2.policy.budget = 1e9;
  const LifetimeModel lm2(s2);
  ChipLifetimeState st2;
  Rng init2 = LifetimeModel::init_rng(s2, 1);
  lm2.init(&st2, init2);
  for (index_t t = 1; t <= 32; ++t) {
    Rng rng = LifetimeModel::step_rng(s2, 1, t);
    lm2.advance(&st2, rng);
    CHECK(!lm2.maybe_retune(&st2, t, rng));
  }
  CHECK(st2.retunes == 0);
}

// ------------------------------------------------------------- spec JSON

LifetimeSpec distinctive_lifetime() {
  LifetimeSpec s;
  s.drift.model = VarianceModel::kLayerFixed;
  s.drift.sigma_w = 0.1250000000000001;
  s.drift.sigma_b = 0.44999999999999996;
  s.drift.tau = 12.345678901234567;
  s.events.aging_rate = 0.0012345;
  s.events.thermal_amp = 0.125;
  s.events.thermal_period = 48.5;
  s.events.disturb_rate = 0.015;
  s.events.disturb_mag = 0.25;
  s.policy.kind = RetunePolicyKind::kThreshold;
  s.policy.interval = 7;
  s.policy.budget = 0.0625;
  s.policy.probe_cells = 24;
  s.gtm_cells = 333;
  s.n_chips = 17;
  s.n_steps = 35;
  s.checkpoint_every = 7;
  s.batch_size = 13;
  s.seed = 0xFEDCBA9876543210ull;
  return s;
}

void test_lifetime_spec_json_and_key() {
  const LifetimeSpec s = distinctive_lifetime();
  LifetimeSpec back;
  std::string err;
  CHECK(LifetimeSpec::from_json(s.to_json(), &back, &err));
  CHECK(err.empty());
  CHECK(back.to_json() == s.to_json());
  CHECK(back.key() == s.key());
  CHECK(back.n_steps == s.n_steps);

  // Defaults round-trip too.
  LifetimeSpec d, dback;
  CHECK(LifetimeSpec::from_json(d.to_json(), &dback, &err));
  CHECK(dback.to_json() == d.to_json());

  // n_steps is deliberately NOT part of the key (trajectory-prefix
  // identity lets an extended horizon resume) — but it IS in the JSON.
  LifetimeSpec ext = s;
  ext.n_steps = 2 * s.n_steps;
  CHECK(ext.key() == s.key());
  CHECK(ext.to_json() != s.to_json());

  // Every other field is identity: each perturbation must move the key.
  std::vector<LifetimeSpec> cases;
  auto add = [&](void (*mut)(LifetimeSpec&)) {
    LifetimeSpec c = distinctive_lifetime();
    mut(c);
    cases.push_back(c);
  };
  add([](LifetimeSpec& c) { c.drift.model = VarianceModel::kWeightProportional; });
  add([](LifetimeSpec& c) { c.drift.sigma_w = 0.3; });
  add([](LifetimeSpec& c) { c.drift.sigma_b = 0.2; });
  add([](LifetimeSpec& c) { c.drift.tau = 99.0; });
  add([](LifetimeSpec& c) { c.events.aging_rate = 0.9; });
  add([](LifetimeSpec& c) { c.events.thermal_amp = 0.9; });
  add([](LifetimeSpec& c) { c.events.thermal_period = 9.0; });
  add([](LifetimeSpec& c) { c.events.disturb_rate = 0.9; });
  add([](LifetimeSpec& c) { c.events.disturb_mag = 0.9; });
  add([](LifetimeSpec& c) { c.policy.kind = RetunePolicyKind::kNever; });
  add([](LifetimeSpec& c) {
    c.policy.kind = RetunePolicyKind::kFixedInterval;
    c.policy.interval = 9;
  });
  add([](LifetimeSpec& c) { c.policy.budget = 0.9; });
  add([](LifetimeSpec& c) { c.policy.probe_cells = 9; });
  add([](LifetimeSpec& c) { c.gtm_cells = 9; });
  add([](LifetimeSpec& c) { c.n_chips = 9; });
  add([](LifetimeSpec& c) { c.checkpoint_every = 5; });
  add([](LifetimeSpec& c) { c.batch_size = 9; });
  add([](LifetimeSpec& c) { c.seed = 9; });
  for (const LifetimeSpec& c : cases) {
    CHECK(c.key() != s.key());
    LifetimeSpec cb;
    CHECK(LifetimeSpec::from_json(c.to_json(), &cb, &err));
    CHECK(cb.key() == c.key());
    CHECK(cb.to_json() == c.to_json());
  }

  // An all-default event mix prints as "ev[none]".
  LifetimeSpec plain;
  CHECK(plain.key().find("_ev[none]_") != std::string::npos);
}

void check_lifetime_rejected(const std::string& doc, const char* expect) {
  LifetimeSpec out = distinctive_lifetime();
  const std::string before = out.to_json();
  std::string err;
  if (LifetimeSpec::from_json(doc, &out, &err)) {
    std::printf("FAIL: accepted bad lifetime doc (expect '%s')\n", expect);
    ++qavat::test::failures;
    return;
  }
  CHECK(out.to_json() == before);  // untouched on failure
  if (err.find(expect) == std::string::npos) {
    std::printf("FAIL: error '%s' does not mention '%s'\n", err.c_str(),
                expect);
    ++qavat::test::failures;
  }
}

void test_lifetime_spec_rejection() {
  const std::string good = distinctive_lifetime().to_json();
  check_lifetime_rejected("", "malformed JSON");
  check_lifetime_rejected("nope", "malformed JSON");
  check_lifetime_rejected(good + "x", "trailing characters");
  check_lifetime_rejected("{}", "lifetime_schema");
  check_lifetime_rejected("{\"lifetime_schema\":99}", "version mismatch");

  auto swap = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const std::size_t pos = doc.find(from);
    CHECK(pos != std::string::npos);
    if (pos != std::string::npos) doc.replace(pos, from.size(), to);
    return doc;
  };
  check_lifetime_rejected(swap("\"kind\":\"threshold\"", "\"kind\":\"always\""),
                          "policy.kind: unknown token 'always'");
  check_lifetime_rejected(swap("\"model\":\"lf\"", "\"model\":\"xx\""),
                          "drift.model: unknown token 'xx'");
  check_lifetime_rejected(swap("\"sigma_w\":", "\"sigma_w\":\"x\",\"y\":"),
                          "drift.sigma_w: expected a number");
  check_lifetime_rejected(swap("\"aging_rate\":", "\"aging_rate\":true,\"y\":"),
                          "events.aging_rate: expected a number");
  check_lifetime_rejected(swap("\"drift\":{", "\"drift\":1,\"x\":{"),
                          "drift: expected an object");
  check_lifetime_rejected(swap("\"n_chips\":17", "\"n_chips\":\"many\""),
                          "n_chips: expected an integer");
  // Strict grammar, shared with ScenarioSpec through tensor/json.
  check_lifetime_rejected(swap("\"n_chips\":17", "\"n_chips\":1-2"),
                          "n_chips: malformed JSON (bad number '1-2')");
  check_lifetime_rejected(swap("\"tau\":", "\"tau\":--,\"y\":"),
                          "drift.tau: malformed JSON (bad number '--')");
  check_lifetime_rejected(swap("\"budget\":", "\"budget\":e,\"y\":"),
                          "policy.budget: malformed JSON (bad number 'e')");
  check_lifetime_rejected(swap("\"n_chips\":17", "\"n_chips\":2.9"),
                          "n_chips: expected an integer, got '2.9'");
  check_lifetime_rejected(
      swap("\"n_chips\":17", "\"n_chips\":99999999999999999999999"),
      "n_chips: integer out of range");
  check_lifetime_rejected(swap("\"seed\":", "\"seed\":-1,\"y\":"),
                          "seed: expected an unsigned integer, got '-1'");
  check_lifetime_rejected(
      swap("\"n_chips\":17", "\"n_chips\":17,\"n_chips\":18"),
      "n_chips: malformed JSON (duplicate key)");
  // Fleet sizes the decoder rejects up front, so a study file can never
  // reach FleetEvaluator::run's own checks.
  check_lifetime_rejected(swap("\"n_chips\":17", "\"n_chips\":0"),
                          "n_chips: must be >= 1");
  check_lifetime_rejected(swap("\"n_steps\":35", "\"n_steps\":-35"),
                          "n_steps: must be >= 1");
  check_lifetime_rejected(
      swap("\"checkpoint_every\":7", "\"checkpoint_every\":0"),
      "checkpoint_every: must be >= 1");
  check_lifetime_rejected(swap("\"batch_size\":13", "\"batch_size\":0"),
                          "batch_size: must be >= 1");
  check_lifetime_rejected(
      swap("\"checkpoint_every\":7", "\"checkpoint_every\":6"),
      "checkpoint_every: must divide n_steps (35)");
  const std::string deep = test::nested_json("{\"a\":", "}", 100000);
  check_lifetime_rejected(
      swap("\"drift\":{", "\"drift\":{\"deep\":" + deep + ","),
      "nesting deeper than 64 levels");
}

void test_fleet_study_spec_json() {
  for (const std::string& name : builtin_fleet_names()) {
    FleetStudySpec s;
    CHECK(builtin_fleet_study(name, &s));
    FleetStudySpec back;
    std::string err;
    if (!FleetStudySpec::from_json(s.to_json(), &back, &err)) {
      std::printf("FAIL study(%s): parse rejected: %s\n", name.c_str(),
                  err.c_str());
      ++qavat::test::failures;
      continue;
    }
    CHECK(back.to_json() == s.to_json());
    CHECK(back.key() == s.key());
    // The study key is the scenario key plus the lifetime key.
    CHECK(s.key() == s.scenario.key() + "_" + s.lifetime.key());
  }
  FleetStudySpec out;
  std::string err;
  CHECK(!builtin_fleet_study("no_such_study", &out));
  CHECK(!FleetStudySpec::from_json("{}", &out, &err));
  CHECK(err.find("scenario: missing object") != std::string::npos);
  FleetStudySpec good;
  CHECK(builtin_fleet_study("fleet_ou", &good));
  std::string doc = good.to_json();
  const std::size_t pos = doc.find("\"lifetime\"");
  CHECK(pos != std::string::npos);
  doc.replace(pos, std::strlen("\"lifetime\""), "\"liftime\"");
  CHECK(!FleetStudySpec::from_json(doc, &out, &err));
  CHECK(err.find("lifetime: missing object") != std::string::npos);
  // Errors inside a sub-object carry its prefix.
  std::string bad = good.to_json();
  const std::size_t kpos = bad.find("\"kind\":\"fixed_interval\"");
  CHECK(kpos != std::string::npos);
  bad.replace(kpos, std::strlen("\"kind\":\"fixed_interval\""),
              "\"kind\":\"sometimes\"");
  CHECK(!FleetStudySpec::from_json(bad, &out, &err));
  CHECK(err.find("lifetime: policy.kind: unknown token") != std::string::npos);
  // Whole-document rules match the other decoders: trailing bytes, a
  // root without braces, an array root, a duplicate member and nesting
  // deep enough to exhaust the stack are all rejected, *out untouched.
  const std::string g = good.to_json();
  const std::string deep = test::nested_json("{\"a\":", "}", 100000);
  std::string deep_doc = g;
  const char* scenario_open = "\"scenario\":{";
  deep_doc.replace(deep_doc.find(scenario_open), std::strlen(scenario_open),
                   scenario_open + ("\"deep\":" + deep + ","));
  const std::pair<std::string, const char*> loose[] = {
      {g + "GARBAGE{", "malformed JSON (trailing characters)"},
      {g.substr(1, g.size() - 2), "malformed JSON"},
      {"[" + g + "]", "malformed JSON (expected an object)"},
      {"{\"scenario\":" + good.scenario.to_json() + "," + g.substr(1),
       "scenario: malformed JSON (duplicate key)"},
      {deep_doc, "nesting deeper than 64 levels"},
  };
  const std::string before = out.to_json();
  for (const auto& c : loose) {
    CHECK(!FleetStudySpec::from_json(c.first, &out, &err));
    CHECK(err.find(c.second) != std::string::npos);
    CHECK(out.to_json() == before);
  }
}

// -------------------------------------------------------- snapshot codec

FleetSnapshot synthetic_snapshot() {
  FleetSnapshot s;
  s.n_chips = 3;
  s.completed_steps = 8;
  s.rows.resize(2);
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    FleetCheckpoint& row = s.rows[r];
    row.step = static_cast<index_t>(4 * (r + 1));
    row.mean = 0.1 + 0.2;  // a value that is NOT exactly representable
    row.min = 1e-300;
    row.max = 0.9999999999999999;
    row.p5 = 0.30000000000000004;
    row.p50 = 0.5;
    row.p95 = 0.7000000000000001;
    row.retunes = static_cast<index_t>(5 * r);
    row.stale = 0.012345678901234567;
  }
  s.chips.resize(3);
  s.acc_sum.resize(3);
  for (std::size_t c = 0; c < 3; ++c) {
    ChipLifetimeState& st = s.chips[c];
    st.ou = -0.1 * static_cast<double>(c + 1) / 3.0;
    st.aging = -1e-5 * static_cast<double>(c);
    st.disturb = 0.2 / 7.0;
    st.phase = 3.14159265358979323846 * static_cast<double>(c) / 3.0;
    st.eps_hat = 0.1 / 3.0;
    st.retunes = static_cast<index_t>(c);
    s.acc_sum[c] = 7.7 + static_cast<double>(c) / 7.0;
  }
  return s;
}

bool snapshots_equal(const FleetSnapshot& a, const FleetSnapshot& b) {
  if (a.n_chips != b.n_chips || a.completed_steps != b.completed_steps ||
      a.rows.size() != b.rows.size() || a.chips.size() != b.chips.size() ||
      a.acc_sum.size() != b.acc_sum.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (std::memcmp(&a.rows[r], &b.rows[r], sizeof(FleetCheckpoint)) != 0) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.chips.size(); ++c) {
    if (std::memcmp(&a.chips[c], &b.chips[c], sizeof(ChipLifetimeState)) !=
            0 ||
        std::memcmp(&a.acc_sum[c], &b.acc_sum[c], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void test_snapshot_roundtrip() {
  const FleetSnapshot s = synthetic_snapshot();
  const std::string key = "study_key_under_test";
  const StateDict sd = s.to_state_dict(key);
  CHECK(sd.tensors.empty());  // scalars only, by design

  // In-memory decode: bit-exact.
  FleetSnapshot back;
  CHECK(FleetSnapshot::from_state_dict(sd, key, &back));
  CHECK(snapshots_equal(s, back));

  // Through the serialized envelope too (doubles survive exactly).
  std::stringstream ss;
  save_state_dict(ss, sd);
  StateDict sd2;
  CHECK(load_state_dict(ss, &sd2));
  FleetSnapshot back2;
  CHECK(FleetSnapshot::from_state_dict(sd2, key, &back2));
  CHECK(snapshots_equal(s, back2));

  // Fingerprint mismatch: a snapshot can never be read for another study.
  FleetSnapshot wrong;
  CHECK(!FleetSnapshot::from_state_dict(sd, "some_other_study", &wrong));

  // Strict sequential decode: truncation, renames and stray tensors all
  // fail instead of silently defaulting.
  StateDict trunc = sd;
  trunc.scalars.pop_back();
  CHECK(!FleetSnapshot::from_state_dict(trunc, key, &wrong));
  StateDict renamed = sd;
  renamed.scalars[7].first = "row0.meen";  // was "row0.mean"
  CHECK(!FleetSnapshot::from_state_dict(renamed, key, &wrong));
  StateDict extra = sd;
  extra.add_scalar("trailing_garbage", 1.0);
  CHECK(!FleetSnapshot::from_state_dict(extra, key, &wrong));
  StateDict with_tensor = sd;
  with_tensor.add_tensor("t", Tensor({1}));
  CHECK(!FleetSnapshot::from_state_dict(with_tensor, key, &wrong));

  // Malformed counts are rejected before they size any allocation:
  // scalars 3..5 are n_chips, completed_steps and n_rows. NaN, negative,
  // fractional and out-of-range values never reach the index cast, and
  // counts larger than the scalars present are refused up front (1e18
  // rows or 1e12 chips would otherwise be resized into existence).
  CHECK(sd.scalars[3].first == "n_chips" && sd.scalars[5].first == "n_rows");
  const double nan = std::nan("");
  const std::pair<std::size_t, double> bad_counts[] = {
      {3, nan}, {3, -1.0}, {3, 2.5}, {3, 1e12}, {3, 1e300},
      {4, nan}, {4, -8.0}, {5, 1e18}, {5, 3.0}, {5, INFINITY}};
  for (const auto& bc : bad_counts) {
    StateDict bad = sd;
    bad.scalars[bc.first].second = bc.second;
    CHECK(!FleetSnapshot::from_state_dict(bad, key, &wrong));
  }
  // A chip block cut at a chip boundary (the last chip's 7 scalars gone)
  // fails the count check, not a half-filled decode.
  StateDict short_chips = sd;
  short_chips.scalars.resize(sd.scalars.size() - 7);
  CHECK(!FleetSnapshot::from_state_dict(short_chips, key, &wrong));
  // Failed decodes leave *out untouched.
  CHECK(wrong.n_chips == 0 && wrong.rows.empty() && wrong.chips.empty());
}

// ------------------------------------------------------- FleetEvaluator

// Tiny end-to-end study: 5 chips, 8 steps, 2 windows, odd batch size so
// the chunked tiled forward exercises a remainder chunk.
FleetStudySpec tiny_study() {
  FleetStudySpec s;
  s.scenario = ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4,
                                    ScenarioAlgo::kQAVAT,
                                    VarianceModel::kWeightProportional, 0.25);
  s.lifetime.drift.model = VarianceModel::kWeightProportional;
  s.lifetime.drift.sigma_w = 0.25;
  s.lifetime.drift.sigma_b = 0.35;
  s.lifetime.drift.tau = 4.0;
  s.lifetime.events.aging_rate = 0.002;
  s.lifetime.events.thermal_amp = 0.1;
  s.lifetime.events.thermal_period = 8.0;
  s.lifetime.events.disturb_rate = 0.1;
  s.lifetime.events.disturb_mag = 0.2;
  s.lifetime.policy.kind = RetunePolicyKind::kThreshold;
  s.lifetime.policy.budget = 0.1;
  s.lifetime.policy.probe_cells = 16;
  s.lifetime.gtm_cells = 200;
  s.lifetime.n_chips = 5;
  s.lifetime.n_steps = 8;
  s.lifetime.checkpoint_every = 4;
  s.lifetime.batch_size = 9;
  s.lifetime.seed = 4242;
  return s;
}

bool trajectories_equal(const FleetTrajectory& a, const FleetTrajectory& b) {
  if (a.checkpoints.size() != b.checkpoints.size()) return false;
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    if (std::memcmp(&a.checkpoints[i], &b.checkpoints[i],
                    sizeof(FleetCheckpoint)) != 0) {
      return false;
    }
  }
  return true;
}

void check_rows_sane(const FleetTrajectory& t, index_t ck) {
  for (std::size_t i = 0; i < t.checkpoints.size(); ++i) {
    const FleetCheckpoint& r = t.checkpoints[i];
    CHECK(r.step == static_cast<index_t>(ck * (i + 1)));
    CHECK(r.min >= 0.0 && r.max <= 1.0);
    CHECK(r.min <= r.p5 && r.p5 <= r.p50 && r.p50 <= r.p95 &&
          r.p95 <= r.max);
    CHECK(r.mean >= r.min && r.mean <= r.max);
    CHECK(r.stale >= 0.0);
    CHECK(r.retunes >= 0);
  }
}

void test_fleet_run_and_store(Session& session) {
  const FleetStudySpec spec = tiny_study();
  FleetEvaluator fleet(session);

  // The claim-unit list ends with the study's fleet snapshot unit.
  const std::vector<ClaimUnitRef> units = fleet.claim_units(spec);
  CHECK(!units.empty());
  CHECK(std::strcmp(units.back().bucket, kFleetBucket) == 0);
  CHECK(units.back().key == spec.key());
  for (std::size_t i = 0; i + 1 < units.size(); ++i) {
    CHECK(std::strcmp(units[i].bucket, "models") == 0);
  }

  // Cold run: computes, publishes one snapshot per window.
  const FleetRunResult cold = fleet.run(spec);
  CHECK(!cold.loaded);
  CHECK(cold.resumed_from_step == 0);
  CHECK(cold.n_chips == 5);
  CHECK(cold.snapshots_published == 2);
  CHECK(cold.trajectory.checkpoints.size() == 2);
  check_rows_sane(cold.trajectory, spec.lifetime.checkpoint_every);

  // Warm run: served from the store, bit-identical, nothing re-published.
  const FleetRunResult warm = fleet.run(spec);
  CHECK(warm.loaded);
  CHECK(warm.snapshots_published == 0);
  CHECK(trajectories_equal(warm.trajectory, cold.trajectory));

  // A corrupt published snapshot is quarantined and recomputed, and the
  // recompute counts as a retrain-after-corruption, exactly as for the
  // model and eval buckets. The healed trajectory is the cold one.
  {
    const fs::path snap = fs::path(store_root()) /
                          ("v" + std::to_string(kStoreSchemaVersion)) /
                          (fast_mode() ? "fast" : "full") / kFleetBucket /
                          store_key_filename(spec.key());
    CHECK(fs::exists(snap));
    fs::resize_file(snap, fs::file_size(snap) / 2);
    const StoreStats s0 = store_stats();
    const FleetRunResult healed = fleet.run(spec);
    CHECK(!healed.loaded);
    CHECK(healed.resumed_from_step == 0);
    CHECK(healed.snapshots_published == 2);
    CHECK(trajectories_equal(healed.trajectory, cold.trajectory));
    const StoreStats s1 = store_stats();
    CHECK(s1.loads_corrupt == s0.loads_corrupt + 1);
    CHECK(s1.retrains_after_corruption == s0.retrains_after_corruption + 1);
    CHECK(fleet.run(spec).loaded);  // healed artifact serves again
  }

  // Horizon extension resumes from the persisted checkpoint: the longer
  // study's first two rows are the short study's rows, bit-identical,
  // and only the new windows were computed and published.
  FleetStudySpec longer = spec;
  longer.lifetime.n_steps = 16;
  CHECK(longer.key() == spec.key());  // n_steps is not identity
  const FleetRunResult ext = fleet.run(longer);
  CHECK(!ext.loaded);
  CHECK(ext.resumed_from_step == 8);
  CHECK(ext.snapshots_published == 2);  // windows 3 and 4 only
  CHECK(ext.trajectory.checkpoints.size() == 4);
  check_rows_sane(ext.trajectory, spec.lifetime.checkpoint_every);
  FleetTrajectory prefix;
  prefix.checkpoints.assign(ext.trajectory.checkpoints.begin(),
                            ext.trajectory.checkpoints.begin() + 2);
  CHECK(trajectories_equal(prefix, cold.trajectory));

  // A shorter horizon over the same study serves the stored prefix.
  FleetStudySpec shorter = spec;
  shorter.lifetime.n_steps = 4;
  const FleetRunResult pre = fleet.run(shorter);
  CHECK(pre.loaded);
  CHECK(pre.trajectory.checkpoints.size() == 1);
  FleetTrajectory first;
  first.checkpoints.assign(cold.trajectory.checkpoints.begin(),
                           cold.trajectory.checkpoints.begin() + 1);
  CHECK(trajectories_equal(first, pre.trajectory));

  // Resume == uninterrupted, bitwise: recompute the 16-step study from
  // scratch with the store disabled (no snapshot to resume from, no
  // publication) and compare against the resumed trajectory.
  ::setenv("QAVAT_STORE", "0", 1);
  const FleetRunResult uninterrupted = fleet.run(longer);
  CHECK(!uninterrupted.loaded);
  CHECK(uninterrupted.resumed_from_step == 0);
  CHECK(uninterrupted.snapshots_published == 0);
  CHECK(trajectories_equal(uninterrupted.trajectory, ext.trajectory));

  // Chip lanes and grouping are result-invariant: any thread count
  // (min(threads, n_chips) lanes over contiguous chip ranges) and any
  // QAVAT_CHIP_BATCH give the same bits (still store-disabled, so
  // every run recomputes). 5 chips split raggedly over 2 and 4 lanes, 3
  // chips are fewer than 4 lanes, 7 chips split raggedly everywhere; the
  // 3- and 7-chip references are taken at 1 thread.
  struct LaneCase {
    FleetStudySpec spec;
    FleetTrajectory ref;
  };
  std::vector<LaneCase> lane_cases = {{longer, ext.trajectory}};
  const index_t saved_threads = num_threads();
  set_num_threads(1);
  for (index_t n_chips : {index_t{3}, index_t{7}}) {
    FleetStudySpec s = spec;
    s.lifetime.n_chips = n_chips;
    lane_cases.push_back({s, fleet.run(s).trajectory});
    check_rows_sane(lane_cases.back().ref, s.lifetime.checkpoint_every);
  }
  for (index_t threads : {index_t{1}, index_t{2}, index_t{4}}) {
    set_num_threads(threads);
    for (const char* cb : {"1", "2", "5", "64"}) {
      ::setenv("QAVAT_CHIP_BATCH", cb, 1);
      for (const LaneCase& lc : lane_cases) {
        const FleetRunResult r = fleet.run(lc.spec);
        CHECK(trajectories_equal(r.trajectory, lc.ref));
      }
    }
  }
  set_num_threads(saved_threads);
  ::unsetenv("QAVAT_CHIP_BATCH");
  ::setenv("QAVAT_STORE", "1", 1);

  // Lanes step clones: the session's model comes back without a noise
  // realization in any quant layer.
  const TrainedModel served = session.train_model(spec.scenario);
  for (QuantLayerBase* q : served.model->quant_layers()) {
    CHECK(!q->noise_state().active);
  }

  // Spec validation: a checkpoint interval that does not divide the
  // horizon is rejected up front.
  FleetStudySpec bad = spec;
  bad.lifetime.checkpoint_every = 3;
  bool threw = false;
  try {
    fleet.run(bad);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  FleetStudySpec bad2 = spec;
  bad2.lifetime.n_chips = 0;
  threw = false;
  try {
    fleet.run(bad2);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

// The one chip-group reader serves the Monte-Carlo defaults and the
// fleet alike, re-reading the environment on every call.
void test_chip_batch_env() {
  ::setenv("QAVAT_CHIP_BATCH", "5", 1);
  CHECK(chip_batch_from_env() == 5);
  CHECK(default_eval_config(ModelKind::kLeNet5s).chip_batch == 5);
  ::setenv("QAVAT_CHIP_BATCH", "3", 1);
  CHECK(chip_batch_from_env() == 3);
  CHECK(default_eval_config(ModelKind::kLeNet5s).chip_batch == 3);
  for (const char* bad : {"0", "abc"}) {
    ::setenv("QAVAT_CHIP_BATCH", bad, 1);
    CHECK(chip_batch_from_env() == 8);
  }
  ::unsetenv("QAVAT_CHIP_BATCH");
  CHECK(chip_batch_from_env() == 8);
}

}  // namespace

int main() {
  // Private store for this test binary; set before any store access.
  const fs::path store_dir =
      fs::temp_directory_path() /
      ("qavat_test_lifetime_" + std::to_string(::getpid()));
  ::setenv("QAVAT_STORE_DIR", store_dir.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);

  test_ou_stationary_moments();
  test_ou_determinism_and_injection();
  test_ou_tau_limits();
  test_event_aging();
  test_event_thermal();
  test_event_disturb();
  test_stream_determinism();
  test_policy_never();
  test_policy_fixed_interval();
  test_policy_threshold();
  test_lifetime_spec_json_and_key();
  test_lifetime_spec_rejection();
  test_fleet_study_spec_json();
  test_snapshot_roundtrip();
  test_chip_batch_env();
  {
    Session session;
    test_fleet_run_and_store(session);
  }

  std::error_code ec;
  fs::remove_all(store_dir, ec);
  return qavat::test::finish("test_lifetime");
}
