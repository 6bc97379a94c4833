// qavat-sweep: manifest-driven sweep engine — the operational front end
// of Session::run_all (eval/runner.h) for a fleet of processes sharing
// one artifact store.
//
//   qavat-sweep emit
//       List the built-in grid generators.
//   qavat-sweep emit <grid> [-o FILE]
//       Materialize a built-in grid ("table1", "sweep_sigma") as a
//       manifest JSON document, to stdout or FILE. Budgets are frozen
//       under the CURRENT QAVAT_FAST — run the manifest under the same
//       setting.
//   qavat-sweep run <manifest.json> [--dry-run]
//       Execute a manifest: one in-process run_all pass. --dry-run
//       probes each spec's claim units (done/busy/ready) and runs
//       nothing. To spread a grid over many processes or hosts, start N
//       independent `qavat-sweep run` processes on one store: run_all's
//       lanes skip units a peer is producing and the work-claim protocol
//       trains each unit exactly once (DESIGN.md §15).
//
// Per-result stdout lines are byte-stable across processes, stores and
// thread counts:
//   result <i> key=<spec key> clean=<g> mean=<g> stddev=<g>
// Provenance goes to stderr:
//   [qavat-sweep] manifest=<name> specs=<n> train_runs=<this process's>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/manifest.h"
#include "eval/runner.h"

using namespace qavat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <emit|run> ...\n"
               "  emit                         list built-in grids\n"
               "  emit <grid> [-o FILE]        write a built-in grid as a "
               "manifest\n"
               "  run <manifest.json> [--dry-run]\n"
               "                               execute a manifest\n",
               argv0);
  return 2;
}

int cmd_emit(int argc, char** argv) {
  if (argc < 3) {
    for (const std::string& name : builtin_manifest_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  const std::string grid = argv[2];
  const char* out_path = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  SweepManifest m;
  if (!builtin_manifest(grid, &m)) {
    std::fprintf(stderr, "qavat-sweep: unknown grid '%s'\n", grid.c_str());
    return 1;
  }
  if (out_path == nullptr) {
    std::printf("%s\n", m.to_json().c_str());
    return 0;
  }
  std::string err;
  if (!m.save(out_path, &err)) {
    std::fprintf(stderr, "qavat-sweep: %s\n", err.c_str());
    return 1;
  }
  return 0;
}

// --dry-run: probe every claim unit of every spec without running
// anything. "done" = artifact published, "busy" = live lease held by
// some process, "ready" = this process could claim it right now.
int dry_run(const SweepManifest& m) {
  Session session;
  for (std::size_t i = 0; i < m.specs.size(); ++i) {
    const std::vector<ClaimUnitRef> units = session.claim_units(m.specs[i]);
    for (const ClaimUnitRef& u : units) {
      const char* state = claim_state_name(claim_state(u.bucket, u.key));
      std::printf("unit %zu %s %s/%s\n", i, state, u.bucket, u.key.c_str());
    }
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[2];
  bool dry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dry-run") {
      dry = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  SweepManifest m;
  std::string err;
  if (!SweepManifest::load(path, &m, &err)) {
    std::fprintf(stderr, "qavat-sweep: %s\n", err.c_str());
    return 1;
  }
  if (dry) return dry_run(m);
  const long long runs_before = static_cast<long long>(training_runs());
  Session session;
  const std::vector<ScenarioResult> results = session.run_all(m.specs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("result %zu key=%s clean=%.17g mean=%.17g stddev=%.17g\n", i,
                r.key.c_str(), r.clean_acc, r.mean_acc,
                r.mc.accuracy.stddev);
  }
  session.print_summary("qavat-sweep");
  std::fprintf(stderr,
               "[qavat-sweep] manifest=%s specs=%zu train_runs=%lld\n",
               m.name.c_str(), m.specs.size(),
               static_cast<long long>(training_runs()) - runs_before);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "emit") return cmd_emit(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  return usage(argv[0]);
}
