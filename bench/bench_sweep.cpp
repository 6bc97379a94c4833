// Multi-process sweep orchestration check: fork K worker processes over
// ONE manifest sharing ONE cold artifact store, and assert the
// work-claim protocol (eval/store.h, DESIGN.md §14) plus run_all's
// busy skip (Session::run_all, DESIGN.md §15) coordinated them —
//
//   1. exactly one training per claim unit: the sum of the workers'
//      train() phase counts equals what a single process needs for the
//      grid (no duplicated work, no lost work);
//   2. byte-identical results: every worker's result vector — which
//      run_all returns in manifest order whatever order its lanes
//      produced the units in — is bitwise equal to a single-process
//      run_all reference on a second fresh store.
//
// Workers all start at manifest position 0; the lanes themselves
// provide the contention schedule (a lane finding a unit's claim busy
// moves on to the next ready unit), which is exactly the mechanism
// under test. Workers are forked before any compute so no thread pool
// threads exist yet.
//
//   bench_sweep [--workers K]     (K a positive integer; default 2)
//
// Exits 0 with "bench_sweep: PASS" on stdout, nonzero with a diagnostic
// otherwise. QAVAT_FAST=1 is respected like every bench.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/manifest.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "eval/store.h"
#include "tensor/env.h"

namespace fs = std::filesystem;
using namespace qavat;

namespace {

SweepManifest sweep_manifest() {
  SweepManifest m;
  if (!builtin_manifest("sweep_sigma", &m)) {
    std::fprintf(stderr, "bench_sweep: missing built-in sweep_sigma grid\n");
    std::exit(1);
  }
  return m;
}

// What each process reports for comparison: the per-scenario numbers
// that must be bitwise identical across workers and reference.
struct SweepReport {
  long long train_runs = 0;
  std::vector<double> values;  // [clean_acc, mean_acc, mc.accuracy.stddev] * n
};

// One run_all pass over the grid against QAVAT_STORE_DIR: the body of
// every worker (shared store) and of the reference (private store).
SweepReport run_sweep(const char* name) {
  const SweepManifest m = sweep_manifest();
  const long long runs_before = static_cast<long long>(training_runs());
  Session session;
  const std::vector<ScenarioResult> results = session.run_all(m.specs);
  session.print_summary(name);
  SweepReport rep;
  rep.train_runs = static_cast<long long>(training_runs()) - runs_before;
  rep.values.resize(3 * results.size(), 0.0);
  for (size_t i = 0; i < results.size(); ++i) {
    rep.values[3 * i + 0] = results[i].clean_acc;
    rep.values[3 * i + 1] = results[i].mean_acc;
    rep.values[3 * i + 2] = results[i].mc.accuracy.stddev;
  }
  return rep;
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

}  // namespace

int main(int argc, char** argv) {
  int workers = 2;
  for (int i = 1; i < argc; ++i) {
    long long k = 0;
    if (std::strcmp(argv[i], "--workers") != 0 || i + 1 >= argc ||
        !parse_int(argv[++i], 1, INT_MAX, &k)) {
      std::fprintf(stderr, "usage: %s [--workers K]  (K >= 1)\n", argv[0]);
      return 2;
    }
    workers = static_cast<int>(k);
  }

  // Fresh private stores: one shared by all workers (cold, contended),
  // one for the single-process reference. Unique per invocation so a
  // rerun is cold again and the exactly-once assertion is meaningful.
  const fs::path base = fs::temp_directory_path() /
                        ("qavat-sweep-" + std::to_string(::getpid()));
  const fs::path shared_store = base / "shared";
  const fs::path ref_store = base / "ref";
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(shared_store);
  fs::create_directories(ref_store);
  ::setenv("QAVAT_STORE", "1", 1);  // the test is about the store

  const size_t n_values = 3 * sweep_manifest().specs.size();
  std::vector<pid_t> pids;
  std::vector<int> pipes;
  // Fork BEFORE any training/eval: compute thread pools and dataset
  // caches start lazily, so pre-compute children carry no stray threads.
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
      ::setenv("QAVAT_STORE_DIR", shared_store.c_str(), 1);
      const SweepReport rep = run_sweep("bench_sweep.worker");
      const bool ok = write_all(fds[1], &rep.train_runs,
                                sizeof rep.train_runs) &&
                      write_all(fds[1], rep.values.data(),
                                rep.values.size() * sizeof(double));
      ::close(fds[1]);
      std::fflush(nullptr);
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    pipes.push_back(fds[0]);
  }

  bool failed = false;
  long long worker_runs_sum = 0;
  std::vector<std::vector<double>> worker_values(workers);
  for (int w = 0; w < workers; ++w) {
    long long runs = 0;
    worker_values[w].resize(n_values, 0.0);
    if (!read_all(pipes[w], &runs, sizeof runs) ||
        !read_all(pipes[w], worker_values[w].data(),
                  n_values * sizeof(double))) {
      std::fprintf(stderr, "bench_sweep: worker %d report truncated\n", w);
      failed = true;
    }
    ::close(pipes[w]);
    worker_runs_sum += runs;
  }
  for (int w = 0; w < workers; ++w) {
    int status = 0;
    if (::waitpid(pids[w], &status, 0) != pids[w] ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "bench_sweep: worker %d exited abnormally\n", w);
      failed = true;
    }
  }
  // Single-process reference on its own fresh store (the parent has run
  // no compute yet, so this is a true cold run of the grid) — the
  // workers' results are checked against it bitwise.
  ::setenv("QAVAT_STORE_DIR", ref_store.c_str(), 1);
  const SweepReport ref = run_sweep("bench_sweep.ref");

  if (worker_runs_sum != ref.train_runs) {
    std::fprintf(stderr,
                 "bench_sweep: FAIL train-run sum %lld across %d workers, "
                 "expected %lld (single-process cold run) — work was "
                 "duplicated or lost\n",
                 worker_runs_sum, workers, ref.train_runs);
    failed = true;
  }
  for (int w = 0; w < workers; ++w) {
    if (worker_values[w].size() == n_values &&
        std::memcmp(worker_values[w].data(), ref.values.data(),
                    n_values * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_sweep: FAIL worker %d results differ from "
                   "single-process reference\n",
                   w);
      for (size_t i = 0; i < n_values; ++i) {
        if (worker_values[w][i] != ref.values[i]) {
          std::fprintf(stderr, "  value[%zu]: worker %.17g vs ref %.17g\n", i,
                       worker_values[w][i], ref.values[i]);
        }
      }
      failed = true;
    }
  }

  fs::remove_all(base, ec);
  if (failed) {
    std::printf("bench_sweep: FAIL (workers=%d)\n", workers);
    return 1;
  }
  std::printf("bench_sweep: PASS workers=%d scenarios=%zu train_runs=%lld "
              "(sum across workers == single-process reference; results "
              "byte-identical)\n",
              workers, sweep_manifest().specs.size(), ref.train_runs);
  return 0;
}
