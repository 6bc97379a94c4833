// Sweep manifests: a thousand-point scenario grid as DATA, not code.
// A SweepManifest is an ordered list of ScenarioSpec JSON documents
// plus campaign metadata (name, schema version), with a lossless
// load/save round trip — so a grid can be emitted once (`qavat-sweep
// emit`), diffed, versioned, split across a fleet, and consumed by the
// generic sweep engine (`qavat-sweep run`, Session::run_all) without
// recompiling a bench binary. Validation is per-entry and
// per-field: a malformed manifest reports the offending spec index and
// field (via ScenarioSpec::from_value's error channel), never a bare
// "false". DESIGN.md §15.
#pragma once

#include <string>
#include <vector>

#include "eval/scenario.h"

namespace qavat {

/// Manifest-document schema version ("manifest_schema" in the JSON);
/// bump together with any incompatible change to the document layout.
/// Independent of kScenarioSchemaVersion, which each embedded spec
/// carries (and is validated against) itself.
inline constexpr int kManifestSchemaVersion = 1;

/// An ordered scenario grid with campaign metadata. Unit order IS the
/// result order: Session::run_all returns results[i] for specs[i]
/// whatever order its training lanes produced the units in.
struct SweepManifest {
  std::string name;                 ///< campaign name (space-free token)
  std::vector<ScenarioSpec> specs;  ///< the grid, in result order

  /// Lossless JSON encoding: one spec document per line inside a
  /// "specs" array, so manifests diff cleanly under version control.
  std::string to_json() const;

  /// Parse a to_json() document. Returns false — leaving *out
  /// untouched — on malformed JSON, a manifest-schema mismatch or any
  /// invalid spec entry; `*error` (optional) then names the failure
  /// down to the entry index and field, e.g. "specs[17]: train.lr:
  /// expected a number".
  static bool from_json(const std::string& text, SweepManifest* out,
                        std::string* error = nullptr);

  /// Write to_json() to `path` (write_spec_file: temp file + rename).
  /// Returns false with *error (optional) set on I/O failure.
  bool save(const std::string& path, std::string* error = nullptr) const;

  /// Read (read_spec_file) and parse a manifest file. Returns false
  /// with *error (optional) naming the I/O or validation failure.
  static bool load(const std::string& path, SweepManifest* out,
                   std::string* error = nullptr);
};

/// Write `text` verbatim to `path` through a temp file + rename, so a
/// crash never leaves a torn spec document where a reader might pick it
/// up (the artifact store's discipline). Returns false with *error
/// (optional) set on I/O failure; the temp file is removed.
bool write_spec_file(const std::string& path, const std::string& text,
                     std::string* error = nullptr);

/// Read the whole file at `path` into *text. Returns false with *error
/// (optional) naming the path on an open or read failure.
bool read_spec_file(const std::string& path, std::string* text,
                    std::string* error = nullptr);

/// Names of the built-in grid generators: the spec grids the stock
/// benches sweep, exposed as manifests so `qavat-sweep emit <name>`
/// replaces recompiling a bench to change a campaign. Currently
/// "table1" (the bench_table1 Table-I grid) and "sweep_sigma"
/// (bench_sweep's 4-point LeNet-5s sigma grid).
std::vector<std::string> builtin_manifest_names();

/// Materialize the named built-in grid under the CURRENT environment
/// (fast budgets, eval backend — the same defaults the bench binary
/// would bake in). Returns false on an unknown name. The emitting and
/// consuming processes must agree on QAVAT_FAST: spec budgets are
/// frozen into the manifest, and the store namespaces artifacts by the
/// running process's budget.
bool builtin_manifest(const std::string& name, SweepManifest* out);

}  // namespace qavat
