#include "eval/manifest.h"

#include <cstdio>
#include <utility>

namespace qavat {

namespace {

// ------------------------------------------------------------- encoding

// The document is deliberately line-oriented — header, one spec per
// line, closing line — so campaign edits show up as one-line diffs:
//   {"manifest_schema":1,"name":"table1","specs":[
//   {...spec 0...},
//   {...spec 1...}
//   ]}
std::string encode(const SweepManifest& m) {
  std::string o = "{\"manifest_schema\":";
  o += std::to_string(kManifestSchemaVersion);
  o += ",\"name\":\"";
  o += m.name;
  o += "\",\"specs\":[";
  for (std::size_t i = 0; i < m.specs.size(); ++i) {
    o += '\n';
    o += m.specs[i].to_json();
    if (i + 1 < m.specs.size()) o += ',';
  }
  o += "\n]}";
  return o;
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

}  // namespace

std::string SweepManifest::to_json() const { return encode(*this); }

bool SweepManifest::from_json(const std::string& text, SweepManifest* out,
                              std::string* error) {
  if (error != nullptr) error->clear();
  json::Value root;
  if (!json::parse_object(text, &root, error)) return false;
  for (const auto& member : root.obj) {
    if (member.first != "manifest_schema" && member.first != "name" &&
        member.first != "specs") {
      return fail(error, "unknown manifest field '" + member.first + "'");
    }
  }
  if (!json::read_schema(root, "manifest_schema", kManifestSchemaVersion,
                         error)) {
    return false;
  }
  SweepManifest m;
  if (const json::Value* name = root.find("name")) {
    if (name->kind != json::Value::kStr) {
      return fail(error, "name: expected a string");
    }
    m.name = name->text;
  }
  const json::Value* specs = root.find("specs");
  if (specs == nullptr) return fail(error, "specs: missing");
  if (specs->kind != json::Value::kArr) {
    return fail(error, "specs: expected an array");
  }
  for (const json::Value& item : specs->items) {
    ScenarioSpec spec;
    std::string spec_err;
    if (!ScenarioSpec::from_value(item, &spec, &spec_err)) {
      return fail(error, "specs[" + std::to_string(m.specs.size()) + "]: " +
                             spec_err);
    }
    m.specs.push_back(std::move(spec));
  }
  *out = std::move(m);
  return true;
}

bool SweepManifest::save(const std::string& path, std::string* error) const {
  return write_spec_file(path, to_json() + "\n", error);
}

bool SweepManifest::load(const std::string& path, SweepManifest* out,
                         std::string* error) {
  std::string text;
  if (!read_spec_file(path, &text, error)) return false;
  std::string parse_err;
  if (!from_json(text, out, &parse_err)) {
    return fail(error, path + ": " + parse_err);
  }
  return true;
}

bool write_spec_file(const std::string& path, const std::string& text,
                     std::string* error) {
  if (error != nullptr) error->clear();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open '" + tmp + "' for write");
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return fail(error, "write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, "rename to '" + path + "' failed");
  }
  return true;
}

bool read_spec_file(const std::string& path, std::string* text,
                    std::string* error) {
  if (error != nullptr) error->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open '" + path + "'");
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return fail(error, "read of '" + path + "' failed");
  *text = std::move(out);
  return true;
}

// ------------------------------------------------------- built-in grids

namespace {

// The bench_table1 Table-I grid, in its exact nested order (rows, then
// sigma, then algorithm) — bench_table1 itself consumes this manifest,
// so its printed table stays byte-identical to the historical spec loop.
SweepManifest make_table1() {
  SweepManifest m;
  m.name = "table1";
  const VarianceModel vm = VarianceModel::kLayerFixed;
  struct Row {
    ModelKind kind;
    index_t a_bits, w_bits;
  };
  const Row rows[] = {
      {ModelKind::kResNet18s, 4, 2}, {ModelKind::kResNet18s, 8, 4},
      {ModelKind::kVGG11s, 4, 2},    {ModelKind::kVGG11s, 8, 4},
      {ModelKind::kLeNet5s, 2, 2},
  };
  const ScenarioAlgo algos[] = {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT,
                                ScenarioAlgo::kQAVAT};
  for (const Row& row : rows) {
    for (double sigma : {0.1, 0.5}) {
      for (ScenarioAlgo algo : algos) {
        m.specs.push_back(ScenarioSpec::within(row.kind, row.a_bits,
                                               row.w_bits, algo, vm, sigma));
      }
    }
  }
  return m;
}

// bench_sweep's contention workload: one model kind, QAVAT, four sigma
// points of weight-proportional within-chip noise — small enough for CI
// races, distinct enough that every spec is its own claim unit.
SweepManifest make_sweep_sigma() {
  SweepManifest m;
  m.name = "sweep_sigma";
  for (double sigma : {0.1, 0.2, 0.3, 0.4}) {
    m.specs.push_back(ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4,
                                           ScenarioAlgo::kQAVAT,
                                           VarianceModel::kWeightProportional,
                                           sigma));
  }
  return m;
}

}  // namespace

std::vector<std::string> builtin_manifest_names() {
  return {"table1", "sweep_sigma"};
}

bool builtin_manifest(const std::string& name, SweepManifest* out) {
  if (name == "table1") {
    *out = make_table1();
    return true;
  }
  if (name == "sweep_sigma") {
    *out = make_sweep_sigma();
    return true;
  }
  return false;
}

}  // namespace qavat
