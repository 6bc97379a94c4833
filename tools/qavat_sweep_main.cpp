// qavat-sweep: manifest-driven sweep engine — the operational front end
// of Session::run_all (eval/runner.h) for a fleet of processes sharing
// one artifact store.
//
//   qavat-sweep emit
//       List the built-in grid generators.
//   qavat-sweep emit <grid> [-o FILE] [--shards K]
//       Materialize a built-in grid ("table1", "sweep_sigma") as a
//       manifest JSON document, to stdout or FILE. Budgets are frozen
//       under the CURRENT QAVAT_FAST — run the manifest under the same
//       setting. --shards K instead writes K disjoint round-robin
//       manifests (<base>.shard<i>of<K>) for hosts that do not share a
//       store; together they partition the grid losslessly.
//   qavat-sweep run <manifest.json> [--workers K] [--dry-run]
//       Execute a manifest. Default: one in-process run_all pass.
//       --workers K forks K workers (before any compute, so no pool
//       threads cross fork), each a run_all pass over the shared store
//       whose lanes skip units a peer is producing; the parent asserts
//       every worker's result vector is byte-identical and prints
//       worker 0's. --dry-run probes each spec's claim units
//       (done/busy/ready) and runs nothing.
//
// K in --workers K and --shards K must be a positive decimal integer;
// anything else prints usage and exits 2.
//
// Per-result stdout lines are byte-stable across all run modes:
//   result <i> key=<spec key> clean=<g> mean=<g> stddev=<g>
// Provenance goes to stderr:
//   [qavat-sweep] manifest=<name> specs=<n> workers=<k> train_runs=<sum>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/manifest.h"
#include "eval/runner.h"
#include "eval/store.h"

using namespace qavat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <emit|run> ...\n"
               "  emit                         list built-in grids\n"
               "  emit <grid> [-o FILE] [--shards K]\n"
               "                               write a built-in grid as a "
               "manifest\n"
               "                               (--shards K: K disjoint "
               "round-robin manifests)\n"
               "  run <manifest.json> [--workers K] [--dry-run]\n"
               "                               execute a manifest "
               "(--workers K: K processes\n"
               "                               sharing one store)\n",
               argv0);
  return 2;
}

void print_results(const std::vector<ScenarioResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("result %zu key=%s clean=%.17g mean=%.17g stddev=%.17g\n", i,
                r.key.c_str(), r.clean_acc, r.mean_acc,
                r.mc.accuracy.stddev);
  }
}

void print_provenance(const SweepManifest& m, int workers,
                      long long train_runs) {
  std::fprintf(stderr,
               "[qavat-sweep] manifest=%s specs=%zu workers=%d "
               "train_runs=%lld\n",
               m.name.c_str(), m.specs.size(), workers, train_runs);
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
  int shards = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!parse_positive_count(argv[++i], &shards)) {
        std::fprintf(stderr,
                     "qavat-sweep: --shards expects a positive integer, "
                     "got '%s'\n",
                     argv[i]);
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  SweepManifest m;
  if (!builtin_manifest(grid, &m)) {
    std::fprintf(stderr, "qavat-sweep: unknown grid '%s'\n", grid.c_str());
    return 1;
  }
  if (shards > 0) {
    // Round-robin split for hosts that do not share a store: shard i is
    // written next to the base path as <base>.shard<i>of<K> and carries
    // the matching manifest name. The shards partition the grid
    // losslessly (shard i holds specs i, i+K, i+2K, ... in grid order).
    const std::string base =
        out_path != nullptr ? std::string(out_path) : grid + ".json";
    const std::vector<SweepManifest> parts = shard_manifest(m, shards);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const std::string path = base + ".shard" + std::to_string(i) + "of" +
                               std::to_string(shards);
      std::string err;
      if (!parts[i].save(path, &err)) {
        std::fprintf(stderr, "qavat-sweep: %s\n", err.c_str());
        return 1;
      }
      std::printf("shard %zu %s specs=%zu\n", i, path.c_str(),
                  parts[i].specs.size());
    }
    return 0;
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
      const char* state = store_has(u.bucket, u.key)          ? "done"
                          : store_claim_busy(u.bucket, u.key) ? "busy"
                                                              : "ready";
      std::printf("unit %zu %s %s/%s\n", i, state, u.bucket, u.key.c_str());
    }
  }
  return 0;
}

// One in-process pass.
int run_single(const SweepManifest& m) {
  const long long runs_before = static_cast<long long>(training_runs());
  Session session;
  const std::vector<ScenarioResult> results = session.run_all(m.specs);
  print_results(results);
  session.print_summary("qavat-sweep");
  print_provenance(m, 1, static_cast<long long>(training_runs()) - runs_before);
  return 0;
}

bool write_all(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// --workers K: fork K run_all workers over the (shared) store this
// process inherited. Forked BEFORE any compute so no thread-pool
// threads exist yet. Each worker reports its train-run delta plus the
// [clean, mean, stddev] triple per spec in MANIFEST order; the parent
// asserts all reports byte-identical (the determinism contract) and
// prints the canonical result lines itself.
int run_workers(const SweepManifest& m, int workers) {
  const size_t n_values = 3 * m.specs.size();
  std::vector<pid_t> pids;
  std::vector<int> pipes;
  std::fflush(stdout);
  std::fflush(stderr);
  for (int w = 0; w < workers; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::close(fds[0]);
      const long long runs_before = static_cast<long long>(training_runs());
      Session session;
      const std::vector<ScenarioResult> results = session.run_all(m.specs);
      session.print_summary("qavat-sweep.worker");
      const long long runs =
          static_cast<long long>(training_runs()) - runs_before;
      std::vector<double> values(n_values, 0.0);
      for (std::size_t i = 0; i < results.size(); ++i) {
        values[3 * i + 0] = results[i].clean_acc;
        values[3 * i + 1] = results[i].mean_acc;
        values[3 * i + 2] = results[i].mc.accuracy.stddev;
      }
      const bool ok =
          write_all(fds[1], &runs, sizeof runs) &&
          write_all(fds[1], values.data(), n_values * sizeof(double));
      ::close(fds[1]);
      std::fflush(nullptr);
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    pipes.push_back(fds[0]);
  }

  bool failed = false;
  long long runs_sum = 0;
  std::vector<std::vector<double>> worker_values(
      static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    long long runs = 0;
    worker_values[w].resize(n_values, 0.0);
    if (!read_all(pipes[w], &runs, sizeof runs) ||
        !read_all(pipes[w], worker_values[w].data(),
                  n_values * sizeof(double))) {
      std::fprintf(stderr, "qavat-sweep: worker %d report truncated\n", w);
      failed = true;
    }
    ::close(pipes[w]);
    runs_sum += runs;
  }
  for (int w = 0; w < workers; ++w) {
    int status = 0;
    if (::waitpid(pids[w], &status, 0) != pids[w] || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "qavat-sweep: worker %d exited abnormally\n", w);
      failed = true;
    }
  }
  for (int w = 1; w < workers; ++w) {
    if (std::memcmp(worker_values[w].data(), worker_values[0].data(),
                    n_values * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "qavat-sweep: worker %d results differ from worker 0 — "
                   "determinism contract broken\n",
                   w);
      failed = true;
    }
  }
  if (failed) return 1;

  std::vector<ScenarioResult> results(m.specs.size());
  for (std::size_t i = 0; i < m.specs.size(); ++i) {
    results[i].key = m.specs[i].key();
    results[i].clean_acc = worker_values[0][3 * i + 0];
    results[i].mean_acc = worker_values[0][3 * i + 1];
    results[i].mc.accuracy.stddev = worker_values[0][3 * i + 2];
  }
  print_results(results);
  print_provenance(m, workers, runs_sum);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[2];
  int workers = 1;
  bool dry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      if (!parse_positive_count(argv[++i], &workers)) {
        std::fprintf(stderr,
                     "qavat-sweep: --workers expects a positive integer, "
                     "got '%s'\n",
                     argv[i]);
        return usage(argv[0]);
      }
    } else if (arg == "--dry-run") {
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
  if (workers == 1) return run_single(m);
  return run_workers(m, workers);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "emit") return cmd_emit(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  return usage(argv[0]);
}
