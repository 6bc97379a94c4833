// ScenarioSpec JSON contract tests: property-style round-trip over
// to_json/from_json — perturb every serialized field (including every
// enum token) and require key() and the re-encoded JSON to be
// bit-identical — plus the rejection side: malformed documents,
// unknown enum tokens and schema mismatches must return false, leave
// *out untouched, and name the offending field in the error string.
// Also covers the SweepManifest document built on top (lossless
// round-trip, per-entry validation with "specs[i]: ..." attribution).
// Runs with QAVAT_STORE=0; nothing here trains or touches disk except
// the manifest save/load and spec-file round trips (private temp files).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "eval/manifest.h"
#include "eval/scenario.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

// A spec with every field off its default, so "untouched on failure"
// comparisons can't pass by accident.
ScenarioSpec distinctive_spec() {
  ScenarioSpec s = ScenarioSpec::mixed(ModelKind::kVGG11s, 8, 4,
                                       ScenarioAlgo::kQAVAT,
                                       VarianceModel::kWeightProportional,
                                       0.3);
  s.with_selftune(SelfTuneMode::kGtmLtm, 512, 3);
  s.model_cfg.init_seed = 0xDEADBEEFCAFEBABEull;
  s.train.seed = 0xFEEDFACE12345678ull;
  s.train.lr = 0.0012345678901234567;
  s.eval.seed = 0xABCDEF0123456789ull;
  s.eval.backend = EvalBackend::kCircuit;
  s.eval.tile_size = 32;
  s.fast = true;
  return s;
}

// The round-trip property: parse(to_json()) must reproduce the spec's
// identity exactly — same canonical key, same re-encoded document.
void check_roundtrip(const ScenarioSpec& s, const char* what) {
  ScenarioSpec back;
  std::string err;
  if (!ScenarioSpec::from_json(s.to_json(), &back, &err)) {
    std::printf("FAIL roundtrip(%s): parse rejected: %s\n", what, err.c_str());
    ++qavat::test::failures;
    return;
  }
  if (back.key() != s.key()) {
    std::printf("FAIL roundtrip(%s): key mismatch\n  %s\n  %s\n", what,
                s.key().c_str(), back.key().c_str());
    ++qavat::test::failures;
  }
  if (back.to_json() != s.to_json()) {
    std::printf("FAIL roundtrip(%s): re-encoded JSON differs\n", what);
    ++qavat::test::failures;
  }
  CHECK(err.empty());
}

void test_roundtrip_field_sweep() {
  // Base cases through the named constructors.
  check_roundtrip(ScenarioSpec::base(ModelKind::kLeNet5s, 2, 2,
                                     ScenarioAlgo::kQAT),
                  "base");
  check_roundtrip(distinctive_spec(), "distinctive");

  // One perturbation per serialized field: each mutation must survive
  // the round trip on its own (catches any field to_json forgets or
  // from_json misroutes).
  std::vector<ScenarioSpec> cases;
  auto add = [&](void (*mut)(ScenarioSpec&)) {
    ScenarioSpec s = ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4,
                                          ScenarioAlgo::kQAVAT,
                                          VarianceModel::kLayerFixed, 0.25);
    mut(s);
    cases.push_back(s);
  };
  add([](ScenarioSpec& s) { s.fast = !s.fast; });
  add([](ScenarioSpec& s) { s.model_cfg.a_bits = 7; });
  add([](ScenarioSpec& s) { s.model_cfg.w_bits = 3; });
  add([](ScenarioSpec& s) { s.model_cfg.in_channels = 5; });
  add([](ScenarioSpec& s) { s.model_cfg.image_size = 17; });
  add([](ScenarioSpec& s) { s.model_cfg.num_classes = 13; });
  add([](ScenarioSpec& s) { s.model_cfg.init_seed = 0xFFFFFFFFFFFFFFFFull; });
  add([](ScenarioSpec& s) { s.train.epochs = 9; });
  add([](ScenarioSpec& s) { s.train.lr = 1.9999999999999998e-3; });
  add([](ScenarioSpec& s) { s.train.batch_size = 5; });
  add([](ScenarioSpec& s) { s.train.n_variation_samples = 4; });
  add([](ScenarioSpec& s) { s.train.reparam = !s.train.reparam; });
  add([](ScenarioSpec& s) {
    s.train.scale_update = ScaleUpdatePolicy::kInitOnly;
  });
  add([](ScenarioSpec& s) { s.train.seed = 0x8000000000000001ull; });
  add([](ScenarioSpec& s) { s.train.train_noise.sigma_w = 0.0625; });
  add([](ScenarioSpec& s) { s.train.train_noise.sigma_b = 0.031250000000000003; });
  add([](ScenarioSpec& s) {
    s.train.train_noise.model = VarianceModel::kWeightProportional;
  });
  add([](ScenarioSpec& s) { s.deploy.sigma_w = 0.4499999999999999; });
  add([](ScenarioSpec& s) { s.deploy.sigma_b = 0.125; });
  add([](ScenarioSpec& s) {
    s.deploy.model = VarianceModel::kWeightProportional;
  });
  add([](ScenarioSpec& s) { s.selftune.mode = SelfTuneMode::kGtm; });
  add([](ScenarioSpec& s) {
    s.selftune.mode = SelfTuneMode::kGtmLtm;
    s.selftune.gtm_cells = 77;
    s.selftune.ltm_columns = 2;
  });
  add([](ScenarioSpec& s) { s.eval.n_chips = 11; });
  add([](ScenarioSpec& s) { s.eval.max_test_samples = 123; });
  add([](ScenarioSpec& s) { s.eval.batch_size = 7; });
  add([](ScenarioSpec& s) { s.eval.seed = 0x123456789ABCDEF0ull; });
  add([](ScenarioSpec& s) { s.eval.chip_batch = 3; });
  add([](ScenarioSpec& s) { s.eval.tile_size = 64; });
  for (const ScenarioSpec& s : cases) check_roundtrip(s, "field perturbation");

  // Every enum token through every enum field.
  for (ModelKind k :
       {ModelKind::kLeNet5s, ModelKind::kVGG11s, ModelKind::kResNet18s}) {
    ScenarioSpec s = ScenarioSpec::base(k, 4, 4, ScenarioAlgo::kQAT);
    check_roundtrip(s, "model token");
  }
  for (ScenarioAlgo a :
       {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT, ScenarioAlgo::kQAVAT}) {
    check_roundtrip(ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4, a,
                                         VarianceModel::kLayerFixed, 0.1),
                    "algo token");
  }
  for (EvalBackend b :
       {EvalBackend::kWeightDomain, EvalBackend::kCircuit, EvalBackend::kInt8}) {
    ScenarioSpec s = ScenarioSpec::base(ModelKind::kLeNet5s, 4, 4,
                                        ScenarioAlgo::kQAVAT);
    s.eval.backend = b;
    check_roundtrip(s, "backend token");
  }
  for (SelfTuneMode m :
       {SelfTuneMode::kNone, SelfTuneMode::kGtm, SelfTuneMode::kGtmLtm}) {
    ScenarioSpec s = ScenarioSpec::base(ModelKind::kLeNet5s, 4, 4,
                                        ScenarioAlgo::kQAVAT);
    s.selftune.mode = m;
    check_roundtrip(s, "selftune token");
  }
}

// Rejection helper: parsing `doc` must fail, leave the pre-filled spec
// byte-identical, and mention `expect_in_error` in the error string.
void check_rejected(const std::string& doc, const char* expect_in_error) {
  ScenarioSpec out = distinctive_spec();
  const std::string before = out.to_json();
  std::string err;
  if (ScenarioSpec::from_json(doc, &out, &err)) {
    std::printf("FAIL: accepted bad doc: %s\n", doc.c_str());
    ++qavat::test::failures;
    return;
  }
  if (out.to_json() != before) {
    std::printf("FAIL: *out modified by failed parse of: %s\n", doc.c_str());
    ++qavat::test::failures;
  }
  if (err.find(expect_in_error) == std::string::npos) {
    std::printf("FAIL: error '%s' does not mention '%s'\n", err.c_str(),
                expect_in_error);
    ++qavat::test::failures;
  }
}

void test_rejection() {
  const std::string good =
      ScenarioSpec::base(ModelKind::kLeNet5s, 4, 4, ScenarioAlgo::kQAVAT)
          .to_json();

  check_rejected("", "malformed JSON");
  check_rejected("not json", "malformed JSON");
  check_rejected("{\"schema\":1", "malformed JSON");
  check_rejected(good + "trailing", "trailing characters");
  check_rejected("{}", "schema");
  check_rejected("{\"schema\":\"1\"}", "schema");
  check_rejected("{\"schema\":2}", "version mismatch");

  // Unknown token per enum field.
  auto swap = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const std::size_t pos = doc.find(from);
    if (pos == std::string::npos) {
      std::printf("FAIL: '%s' not found in spec JSON\n", from.c_str());
      ++qavat::test::failures;
      return doc;
    }
    doc.replace(pos, from.size(), to);
    return doc;
  };
  check_rejected(swap("\"model\":\"lenet5s\"", "\"model\":\"lenet5\""),
                 "model: unknown token 'lenet5'");
  check_rejected(swap("\"algo\":\"QAVAT\"", "\"algo\":\"QVT\""),
                 "algo: unknown token 'QVT'");
  check_rejected(swap("\"backend\":\"weight_domain\"", "\"backend\":\"wd\""),
                 "eval.backend: unknown token 'wd'");
  check_rejected(swap("\"mode\":\"none\"", "\"mode\":\"ltm\""),
                 "selftune.mode: unknown token 'ltm'");
  check_rejected(swap("\"scale_update\":\"per_epoch\"",
                      "\"scale_update\":\"always\""),
                 "train.scale_update: unknown token 'always'");
  const std::string noisy =
      ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4, ScenarioAlgo::kQAVAT,
                           VarianceModel::kLayerFixed, 0.1)
          .to_json();
  {
    std::string doc = noisy;
    const std::size_t pos = doc.find("\"model\":\"lf\"");
    CHECK(pos != std::string::npos);
    doc.replace(pos, std::strlen("\"model\":\"lf\""), "\"model\":\"xx\"");
    check_rejected(doc, "unknown token 'xx'");
  }

  // Wrong types, with the dotted field path in the error. (The fast
  // flag serializes as whatever the environment set, so probe both.)
  const char* fast_tok = good.find("\"fast\":true") != std::string::npos
                             ? "\"fast\":true"
                             : "\"fast\":false";
  check_rejected(swap(fast_tok, "\"fast\":\"no\""),
                 "fast: expected true or false");
  check_rejected(swap("\"lr\":", "\"lr\":\"x\",\"xlr\":"),
                 "train.lr: expected a number");
  check_rejected(swap("\"a_bits\":4", "\"a_bits\":true"),
                 "model_cfg.a_bits: expected an integer");
  check_rejected(swap("\"n_chips\":", "\"n_chips\":\"many\",\"x\":"),
                 "eval.n_chips: expected an integer");
  check_rejected(swap("\"model_cfg\":{", "\"model_cfg\":true,\"x\":{"),
                 "model_cfg: expected an object");

  // Counts that size a division or a chip population must be >= 1:
  // train.batch_size 0 divided by zero in training, and eval.n_chips < 1
  // published the stats of an empty chip vector.
  for (const char* bad : {"0", "-4"}) {
    check_rejected(swap("\"batch_size\":", std::string("\"batch_size\":") +
                                                bad + ",\"x\":"),
                   "train.batch_size: must be >= 1");
  }
  for (const char* bad : {"0", "-3"}) {
    check_rejected(swap("\"n_chips\":",
                        std::string("\"n_chips\":") + bad + ",\"x\":"),
                   "eval.n_chips: must be >= 1");
  }

  // Strict grammar: numbers outside the RFC 8259 grammar, integers that
  // are fractional, out of range or (unsigned fields) signed, duplicate
  // keys, and nesting deep enough to exhaust a recursive parser's stack.
  check_rejected(swap("\"a_bits\":4", "\"a_bits\":1-2"),
                 "model_cfg.a_bits: malformed JSON (bad number '1-2')");
  check_rejected(swap("\"a_bits\":4", "\"a_bits\":--"),
                 "model_cfg.a_bits: malformed JSON (bad number '--')");
  check_rejected(swap("\"lr\":", "\"lr\":e,\"xlr\":"),
                 "train.lr: malformed JSON (bad number 'e')");
  check_rejected(swap("\"a_bits\":4", "\"a_bits\":2.9"),
                 "model_cfg.a_bits: expected an integer, got '2.9'");
  check_rejected(swap("\"n_chips\":",
                      "\"n_chips\":99999999999999999999999,\"x\":"),
                 "eval.n_chips: integer out of range");
  check_rejected(swap("\"init_seed\":", "\"init_seed\":-1,\"x\":"),
                 "model_cfg.init_seed: expected an unsigned integer, got '-1'");
  check_rejected(swap("\"n_chips\":", "\"n_chips\":5,\"n_chips\":"),
                 "eval.n_chips: malformed JSON (duplicate key)");
  const std::string deep = test::nested_json("{\"a\":", "}", 100000);
  check_rejected(
      swap("\"model_cfg\":{", "\"model_cfg\":{\"deep\":" + deep + ","),
      "nesting deeper than 64 levels");
}

void test_manifest_roundtrip() {
  for (const std::string& name : builtin_manifest_names()) {
    SweepManifest m;
    CHECK(builtin_manifest(name, &m));
    CHECK(m.name == name);
    CHECK(!m.specs.empty());
    SweepManifest back;
    std::string err;
    if (!SweepManifest::from_json(m.to_json(), &back, &err)) {
      std::printf("FAIL manifest(%s): parse rejected: %s\n", name.c_str(),
                  err.c_str());
      ++qavat::test::failures;
      continue;
    }
    CHECK(back.name == m.name);
    CHECK(back.specs.size() == m.specs.size());
    CHECK(back.to_json() == m.to_json());
    for (std::size_t i = 0; i < m.specs.size(); ++i) {
      CHECK(back.specs[i].key() == m.specs[i].key());
    }
  }
  {
    SweepManifest m;
    CHECK(!builtin_manifest("no_such_grid", &m));
  }

  // Save/load round trip through a private temp file.
  SweepManifest m;
  CHECK(builtin_manifest("sweep_sigma", &m));
  const std::string path =
      "test_scenario_json.manifest." + std::to_string(::getpid()) + ".json";
  std::string err;
  CHECK(m.save(path, &err));
  SweepManifest loaded;
  CHECK(SweepManifest::load(path, &loaded, &err));
  CHECK(loaded.to_json() == m.to_json());
  std::remove(path.c_str());
  CHECK(!SweepManifest::load(path + ".missing", &loaded, &err));
  CHECK(!err.empty());
}

void test_manifest_rejection() {
  SweepManifest good;
  CHECK(builtin_manifest("sweep_sigma", &good));
  const std::string doc = good.to_json();

  auto rejected = [&](const std::string& text, const char* expect) {
    SweepManifest out;
    out.name = "sentinel";
    std::string err;
    if (SweepManifest::from_json(text, &out, &err)) {
      std::printf("FAIL: accepted bad manifest (expect '%s')\n", expect);
      ++qavat::test::failures;
      return;
    }
    CHECK(out.name == "sentinel");  // untouched on failure
    if (err.find(expect) == std::string::npos) {
      std::printf("FAIL: manifest error '%s' does not mention '%s'\n",
                  err.c_str(), expect);
      ++qavat::test::failures;
    }
  };
  rejected("", "malformed JSON");
  rejected("{\"name\":\"x\",\"specs\":[]}", "manifest_schema: missing");
  rejected("{\"manifest_schema\":1,\"name\":\"x\"}", "specs: missing");
  rejected("{\"manifest_schema\":9,\"name\":\"x\",\"specs\":[]}",
           "version mismatch");
  rejected("{\"manifest_schema\":1,\"bogus\":1,\"specs\":[]}",
           "unknown manifest field 'bogus'");
  rejected(doc + "x", "trailing characters");
  // Duplicate members are errors, not a concatenation or a last-wins.
  rejected("{\"manifest_schema\":1,\"name\":\"x\",\"specs\":[],\"specs\":[]}",
           "specs: malformed JSON (duplicate key)");
  rejected("{\"manifest_schema\":1,\"name\":\"x\",\"name\":\"y\",\"specs\":[]}",
           "name: malformed JSON (duplicate key)");
  // The spec grammar probes, reported at their element path.
  auto swap_first = [&](const std::string& from, const std::string& to) {
    std::string text = doc;
    const std::size_t at = text.find(from);
    CHECK(at != std::string::npos);
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  rejected(swap_first("\"a_bits\":4", "\"a_bits\":1-2"),
           "specs[0].model_cfg.a_bits: malformed JSON (bad number '1-2')");
  rejected(swap_first("\"a_bits\":4", "\"a_bits\":2.9"),
           "specs[0]: model_cfg.a_bits: expected an integer, got '2.9'");
  rejected(swap_first("\"init_seed\":", "\"init_seed\":-1,\"x\":"),
           "specs[0]: model_cfg.init_seed: expected an unsigned integer");
  const std::string deep = test::nested_json("{\"a\":", "}", 100000);
  rejected(swap_first("\"train\":{", "\"train\":{\"deep\":" + deep + ","),
           "nesting deeper than 64 levels");

  // A bad entry is attributed by index and field: corrupt spec 2's algo.
  std::string bad = doc;
  std::size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    pos = bad.find("\"algo\":\"QAVAT\"", pos + 1);
    CHECK(pos != std::string::npos);
  }
  bad.replace(pos, std::strlen("\"algo\":\"QAVAT\""), "\"algo\":\"BOGUS\"");
  {
    SweepManifest out;
    std::string err;
    CHECK(!SweepManifest::from_json(bad, &out, &err));
    CHECK(err.find("specs[2]:") != std::string::npos);
    CHECK(err.find("algo: unknown token 'BOGUS'") != std::string::npos);
  }
}

// The one spec-file writer/reader pair (manifests and fleet study specs):
// a byte-exact round trip that overwrites rather than appends and
// leaves no temp file behind, and clean failures on unreadable or
// unwritable paths.
void test_spec_file_io() {
  const std::string path =
      "test_scenario_json.spec." + std::to_string(::getpid()) + ".json";
  const std::string doc = "{\"a\":1,\n\"b\":[2,3]}\n";
  std::string err, text;
  CHECK(write_spec_file(path, doc + doc, &err));
  CHECK(write_spec_file(path, doc, &err));
  CHECK(read_spec_file(path, &text, &err));
  CHECK(text == doc);
  CHECK(err.empty());
  CHECK(!read_spec_file(path + ".tmp", &text, &err));  // renamed away
  std::remove(path.c_str());

  const std::string missing = "no_such_dir." + path + "/spec.json";
  text = "untouched";
  CHECK(!read_spec_file(missing, &text, &err));
  CHECK(err.find(missing) != std::string::npos);
  CHECK(text == "untouched");
  err.clear();
  CHECK(!write_spec_file(missing, doc, &err));
  CHECK(!err.empty());
  CHECK(!read_spec_file(missing, &text, &err));
}

}  // namespace

int main() {
  test_roundtrip_field_sweep();
  test_rejection();
  test_manifest_roundtrip();
  test_manifest_rejection();
  test_spec_file_io();
  return qavat::test::finish("test_scenario_json");
}
