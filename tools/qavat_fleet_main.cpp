// qavat-fleet: fleet lifetime study front end — the operational driver
// of FleetEvaluator (eval/fleet.h).
//
//   qavat-fleet emit
//       List the built-in lifetime studies.
//   qavat-fleet emit <study> [-o FILE]
//       Materialize a built-in study as a spec JSON document, to stdout
//       or FILE. Budgets are frozen under the CURRENT QAVAT_FAST — run
//       the spec under the same setting.
//   qavat-fleet run <spec.json> [--resume] [--dry-run]
//       Execute (or resume, or load) a study. Snapshots stream to the
//       store's "fleet" bucket after every checkpoint, so an interrupted
//       run picks up from the last published checkpoint. --resume
//       additionally asserts that a persisted snapshot was actually
//       resumed from (exit 1 when the study started from factory state —
//       the CI resume gate's tripwire). --dry-run probes the study's
//       claim units (done/busy/ready) and runs nothing.
//
// Per-checkpoint stdout lines are byte-stable across runs, resumes and
// thread counts:
//   study key=<study key> chips=<n> steps=<n> checkpoint=<k>
//   traj <i> step=<t> mean=<g> min=<g> max=<g> p5=<g> p50=<g> p95=<g>
//        retunes=<n> stale=<g>
// An invalid spec or any other error prints "qavat-fleet: <reason>" to
// stderr and exits 1. Provenance goes to stderr:
//   [qavat-fleet] key=<key> resumed_from=<t> published=<n> loaded=<0|1>
//   trained=<0|1>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "eval/fleet.h"
#include "eval/manifest.h"

using namespace qavat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <emit|run> ...\n"
               "  emit                      list built-in lifetime studies\n"
               "  emit <study> [-o FILE]    write a built-in study spec\n"
               "  run <spec.json> [--resume] [--dry-run]\n"
               "                            execute/resume a study "
               "(--resume asserts a\n"
               "                            snapshot was resumed from)\n",
               argv0);
  return 2;
}

int cmd_emit(int argc, char** argv) {
  if (argc < 3) {
    for (const std::string& name : builtin_fleet_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  const std::string study = argv[2];
  const char* out_path = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  FleetStudySpec spec;
  if (!builtin_fleet_study(study, &spec)) {
    std::fprintf(stderr, "qavat-fleet: unknown study '%s'\n", study.c_str());
    return 1;
  }
  const std::string json = spec.to_json();
  if (out_path == nullptr) {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::string err;
  if (!write_spec_file(out_path, json + "\n", &err)) {
    std::fprintf(stderr, "qavat-fleet: %s\n", err.c_str());
    return 1;
  }
  return 0;
}

int dry_run(const FleetStudySpec& spec) {
  Session session;
  FleetEvaluator fleet(session);
  const std::vector<ClaimUnitRef> units = fleet.claim_units(spec);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const ClaimUnitRef& u = units[i];
    const char* state = claim_state_name(claim_state(u.bucket, u.key));
    std::printf("unit %zu %s %s/%s\n", i, state, u.bucket, u.key.c_str());
  }
  return 0;
}

void print_trajectory(const FleetStudySpec& spec, const FleetRunResult& res) {
  std::printf("study key=%s chips=%lld steps=%lld checkpoint=%lld\n",
              spec.key().c_str(),
              static_cast<long long>(spec.lifetime.n_chips),
              static_cast<long long>(spec.lifetime.n_steps),
              static_cast<long long>(spec.lifetime.checkpoint_every));
  const std::vector<FleetCheckpoint>& rows = res.trajectory.checkpoints;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FleetCheckpoint& r = rows[i];
    std::printf(
        "traj %zu step=%lld mean=%.17g min=%.17g max=%.17g p5=%.17g "
        "p50=%.17g p95=%.17g retunes=%lld stale=%.17g\n",
        i, static_cast<long long>(r.step), r.mean, r.min, r.max, r.p5, r.p50,
        r.p95, static_cast<long long>(r.retunes), r.stale);
  }
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[2];
  bool resume = false;
  bool dry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--dry-run") {
      dry = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  std::string text, err;
  if (!read_spec_file(path, &text, &err)) {
    std::fprintf(stderr, "qavat-fleet: %s\n", err.c_str());
    return 1;
  }
  FleetStudySpec spec;
  if (!FleetStudySpec::from_json(text, &spec, &err)) {
    std::fprintf(stderr, "qavat-fleet: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  if (dry) return dry_run(spec);

  Session session;
  FleetEvaluator fleet(session);
  const FleetRunResult res = fleet.run(spec);
  print_trajectory(spec, res);
  session.print_summary("qavat-fleet");
  std::fprintf(stderr,
               "[qavat-fleet] key=%s resumed_from=%lld published=%lld "
               "loaded=%d trained=%d\n",
               spec.key().c_str(),
               static_cast<long long>(res.resumed_from_step),
               static_cast<long long>(res.snapshots_published),
               res.loaded ? 1 : 0, res.trained ? 1 : 0);
  if (resume && res.resumed_from_step == 0 && !res.loaded) {
    std::fprintf(stderr,
                 "qavat-fleet: --resume but no persisted snapshot was "
                 "resumed from (study restarted from factory state)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "emit") return cmd_emit(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qavat-fleet: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
