// Deterministic mutation fuzzer for the decoders that read disk or user
// input: the JSON documents ScenarioSpec, LifetimeSpec, FleetStudySpec
// and SweepManifest.
//
// Seeds are valid to_json() documents: every spec of the builtin
// manifests, the default lifetime spec, the builtin fleet studies (and
// their scenario and lifetime halves) and both builtin manifests. Each
// iteration applies 1-3 byte mutations (flip, truncate, splice,
// duplicate) drawn from the repo's counter-based Rng, so every run sees
// the same inputs, and feeds the result to every decoder. The invariant:
// a decoder either rejects the input with a non-empty error and *out
// untouched, or accepts it, and then to_json() of the result re-parses
// to identical bytes. A crash or hang fails the test. Documents nested
// 100,000 deep must be rejected without exhausting the stack.
#include <cstdio>
#include <string>
#include <vector>

#include "eval/fleet.h"
#include "eval/manifest.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

constexpr int kIterations = 8000;
constexpr int kMaxReports = 10;

// Bytes a flip may write besides a random bit flip: the grammar's
// structural and number characters, so mutations reach the parser's
// branches rather than just corrupting string contents.
constexpr char kAlphabet[] = "{}[]:,\"-+.eE0123456789 \ntf\\";

struct Tally {
  const char* name;
  long accepted = 0;
  long rejected = 0;
};

void report(const char* decoder, const char* what, const std::string& input) {
  if (qavat::test::failures < kMaxReports) {
    std::printf("FAIL %s: %s on input (%zu bytes): %.200s\n", decoder, what,
                input.size(), input.c_str());
  }
  ++qavat::test::failures;
}

// Check one decoder's invariant on `input`; `sentinel` pre-fills *out.
template <typename T>
void check(Tally* t, const std::string& input, const T& sentinel) {
  T out = sentinel;
  std::string err;
  if (!T::from_json(input, &out, &err)) {
    ++t->rejected;
    if (err.empty()) report(t->name, "rejected without an error", input);
    if (out.to_json() != sentinel.to_json()) {
      report(t->name, "modified *out on rejection", input);
    }
    return;
  }
  ++t->accepted;
  const std::string once = out.to_json();
  T again;
  std::string again_err;
  if (!T::from_json(once, &again, &again_err)) {
    report(t->name, ("accepted, but its to_json was rejected: " + again_err)
                        .c_str(),
           input);
  } else if (again.to_json() != once) {
    report(t->name, "accepted, but to_json does not round-trip", input);
  }
}

std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.below(static_cast<index_t>(n)));
}

// 1-3 byte mutations of `doc`; splices draw their bytes from `pool`.
std::string mutate(const std::string& doc,
                   const std::vector<std::string>& pool, Rng& rng) {
  std::string s = doc;
  const index_t ops = 1 + rng.below(3);
  for (index_t k = 0; k < ops; ++k) {
    const index_t op = rng.below(4);
    if (s.empty() && op != 2) continue;
    if (op == 0) {  // flip one byte
      char& c = s[below(rng, s.size())];
      c = rng.below(2) == 0
              ? kAlphabet[below(rng, sizeof(kAlphabet) - 1)]
              : static_cast<char>(c ^ (1 << rng.below(8)));
    } else if (op == 1) {  // truncate
      s.resize(below(rng, s.size() + 1));
    } else if (op == 2) {  // splice: a slice of a pool document replaces
                           // a slice of this one
      const std::string& src = pool[below(rng, pool.size())];
      const std::size_t from = below(rng, src.size());
      const std::size_t len = below(rng, src.size() - from + 1);
      const std::size_t at = below(rng, s.size() + 1);
      const std::size_t cut = below(rng, s.size() - at + 1);
      s.replace(at, cut, src, from, len);
    } else {  // duplicate a slice in place
      const std::size_t from = below(rng, s.size());
      const std::size_t len = 1 + below(rng, s.size() - from);
      const std::string piece = s.substr(from, len);
      s.insert(from, piece);
    }
  }
  return s;
}

}  // namespace

int main() {
  // Seed documents and the sentinels each decoder's *out starts from.
  std::vector<std::string> seeds;
  SweepManifest manifest_sentinel;
  manifest_sentinel.name = "sentinel";
  for (const std::string& name : builtin_manifest_names()) {
    SweepManifest m;
    CHECK(builtin_manifest(name, &m));
    seeds.push_back(m.to_json());
    for (const ScenarioSpec& s : m.specs) seeds.push_back(s.to_json());
  }
  seeds.push_back(LifetimeSpec().to_json());
  FleetStudySpec fleet_sentinel;
  for (const std::string& name : builtin_fleet_names()) {
    FleetStudySpec f;
    CHECK(builtin_fleet_study(name, &f));
    seeds.push_back(f.to_json());
    seeds.push_back(f.scenario.to_json());
    seeds.push_back(f.lifetime.to_json());
    fleet_sentinel = f;
  }
  fleet_sentinel.lifetime.seed = 12345;
  ScenarioSpec scenario_sentinel = ScenarioSpec::base(
      ModelKind::kResNet18s, 8, 4, ScenarioAlgo::kPTQVAT);
  scenario_sentinel.eval.seed = 0xABCDEF0123456789ull;
  LifetimeSpec lifetime_sentinel;
  lifetime_sentinel.n_chips = 3;
  lifetime_sentinel.policy.kind = RetunePolicyKind::kThreshold;

  Tally scenario{"ScenarioSpec"}, lifetime{"LifetimeSpec"},
      fleet{"FleetStudySpec"}, manifest{"SweepManifest"};
  auto check_all = [&](const std::string& input) {
    check(&scenario, input, scenario_sentinel);
    check(&lifetime, input, lifetime_sentinel);
    check(&fleet, input, fleet_sentinel);
    check(&manifest, input, manifest_sentinel);
  };

  for (const std::string& s : seeds) check_all(s);
  Rng rng(0xF0220001ull, 0);
  for (int i = 0; i < kIterations; ++i) {
    check_all(mutate(seeds[static_cast<std::size_t>(i) % seeds.size()],
                     seeds, rng));
  }

  // Stack-exhaustion probes: deep objects and arrays, alone and inside
  // an otherwise valid document. All must be rejected.
  const std::string deep_obj = test::nested_json("{\"a\":", "}", 100000);
  const std::string deep_arr = test::nested_json("[", "]", 100000);
  const std::string spec_doc = scenario_sentinel.to_json();
  for (const std::string& deep :
       {deep_obj, deep_arr,
        "{\"deep\":" + deep_obj + "," + spec_doc.substr(1),
        "{\"scenario\":{\"deep\":" + deep_arr + "," + spec_doc.substr(1) +
            "}"}) {
    const long accepted_before = scenario.accepted + lifetime.accepted +
                                 fleet.accepted + manifest.accepted;
    check_all(deep);
    CHECK(scenario.accepted + lifetime.accepted + fleet.accepted +
              manifest.accepted ==
          accepted_before);
  }

  for (const Tally* t : {&scenario, &lifetime, &fleet, &manifest}) {
    std::printf("%-15s accepted %5ld  rejected %5ld\n", t->name, t->accepted,
                t->rejected);
    CHECK(t->accepted > 0);
    CHECK(t->rejected > 0);
  }
  return qavat::test::finish("test_fuzz_decoders");
}
