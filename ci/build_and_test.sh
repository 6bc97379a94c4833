#!/usr/bin/env bash
# Tier-1 verify, end-to-end from a clean checkout. Safe to wire into any
# CI runner: no network access, no system mutation, nonzero exit on any
# configure/build/test failure.
#
# Builds and tests BOTH Release and Debug: the always-on GEMM shape checks
# must throw in NDEBUG (Release) builds too, and Debug catches the
# assert-based invariants — running only one config would miss a whole
# regression class (e.g. assert-only checks compiling out under NDEBUG).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
DEBUG_BUILD_DIR="${DEBUG_BUILD_DIR:-${REPO_ROOT}/build-debug}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

run_suite() {
  local dir="$1" type="$2"

  echo "== configure (${type}) =="
  cmake -B "${dir}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE="${type}"

  echo "== build (${type}) =="
  cmake --build "${dir}" -j "${JOBS}"

  # The whole suite runs at two thread budgets: QAVAT_THREADS=1 keeps the
  # pool dormant (pure serial paths), QAVAT_THREADS=4 forces worker
  # dispatch, stealing and nested jobs even on small CI hosts. Results
  # must be identical — the bit-identity contract (DESIGN.md §7/§13).
  for nt in 1 4; do
    echo "== test (${type}, QAVAT_THREADS=${nt}) =="
    (cd "${dir}" && QAVAT_THREADS="${nt}" ctest --output-on-failure -j "${JOBS}")
  done
}

run_suite "${BUILD_DIR}" Release
run_suite "${DEBUG_BUILD_DIR}" Debug

# Optional ThreadSanitizer pass over the pool-heavy tests (Debug +
# -fsanitize=thread via -DQAVAT_TSAN=ON). test_eval_batched and
# test_lifetime cover the evaluator's and the fleet's chip lanes: whole
# model forwards on several pool workers at once. test_runner covers
# run_all's training lanes: whole training units, the shared model
# cache and concurrent store publishes. test_lifetime and test_runner
# turn the store on themselves, on their own private stores.
# Probed at runtime: hosts whose toolchain lacks the TSan runtime skip
# gracefully instead of failing.
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${REPO_ROOT}/build-tsan}"
TSAN_PROBE="$(mktemp -d)"
trap 'rm -rf "${TSAN_PROBE}"' EXIT
echo 'int main() { return 0; }' > "${TSAN_PROBE}/probe.cc"
if "${CXX:-c++}" -fsanitize=thread "${TSAN_PROBE}/probe.cc" \
     -o "${TSAN_PROBE}/probe" >/dev/null 2>&1 && "${TSAN_PROBE}/probe"; then
  echo "== tsan (Debug, pool-heavy tests) =="
  cmake -B "${TSAN_BUILD_DIR}" -S "${REPO_ROOT}" \
        -DCMAKE_BUILD_TYPE=Debug -DQAVAT_TSAN=ON
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
        --target test_gemm test_conv_ops test_thread_pool test_eval_batched \
                 test_lifetime test_runner
  for t in test_gemm test_conv_ops test_thread_pool test_eval_batched \
           test_lifetime test_runner; do
    echo "-- tsan ${t} --"
    QAVAT_FAST=1 QAVAT_STORE=0 QAVAT_THREADS=4 "${TSAN_BUILD_DIR}/${t}"
  done
  echo "tsan: OK (test_gemm test_conv_ops test_thread_pool" \
       "test_eval_batched test_lifetime test_runner, QAVAT_THREADS=4)"
else
  echo "tsan: toolchain has no usable ThreadSanitizer runtime - skipped"
fi

# Optional ASan+UBSan pass over the decoders of disk and user input
# (Debug, -fno-sanitize-recover so any report fails the run).
# test_fuzz_decoders feeds them mutated and deeply nested documents.
# test_eval_batched, test_store, test_store_faults and test_train_smoke
# cover the NoiseState slot writes, the model cache and the eval cache;
# test_runner covers run_all's lanes and their busy skip. test_int_ops
# and test_conv_ops run the int8 and conv chip lanes of
# evaluate_under_variability through the shared chip-lane engine.
# test_gemm covers the GEMM register tile's partial widths (the
# overlapping last tile and the narrow panel), where a read of B or a
# write of C past the last column would hide. test_env covers the one
# reader of environment and argv text, where an overflowing parse or
# backoff shift would hide. The store tests, test_runner and
# test_lifetime turn the store on themselves, on their own private
# stores. The flags go through CMAKE_CXX_FLAGS/CMAKE_EXE_LINKER_FLAGS,
# so the pass needs no CMake option. Probed at runtime like the TSan
# pass.
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-${REPO_ROOT}/build-asan}"
ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
if "${CXX:-c++}" ${ASAN_FLAGS} "${TSAN_PROBE}/probe.cc" \
     -o "${TSAN_PROBE}/probe-asan" >/dev/null 2>&1 &&
   "${TSAN_PROBE}/probe-asan"; then
  echo "== asan+ubsan (Debug, decoder tests) =="
  cmake -B "${ASAN_BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="${ASAN_FLAGS}" \
        -DCMAKE_EXE_LINKER_FLAGS="${ASAN_FLAGS}"
  ASAN_TESTS=(test_scenario_json test_lifetime test_fuzz_decoders
              test_eval_batched test_store test_store_faults test_train_smoke
              test_runner test_int_ops test_conv_ops test_gemm test_env)
  cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    echo "-- asan+ubsan ${t} --"
    QAVAT_FAST=1 QAVAT_STORE=0 "${ASAN_BUILD_DIR}/${t}"
  done
  echo "asan+ubsan: OK (${ASAN_TESTS[*]})"
else
  echo "asan+ubsan: toolchain has no usable ASan/UBSan runtime - skipped"
fi
rm -rf "${TSAN_PROBE}"
trap - EXIT

# Docs gate: the public headers must carry well-formed doc comments.
# The repo's own lint is the portable baseline (python3 ships with the
# toolchain) and enforces COVERAGE — every public declaration documented
# — so the verdict never depends on which extra tool the host has;
# doxygen (markup parse, warnings as errors) or clang's -Wdocumentation
# layer syntax checking on top when available. Nonzero exit on malformed
# docs fails the build via set -e.
DOC_HEADERS=(pim/chip.h pim/tiling.h eval/evaluator.h eval/scenario.h
             eval/manifest.h eval/store.h eval/runner.h eval/fleet.h
             tensor/workspace.h tensor/json.h tensor/env.h
             tensor/conv_ops.h tensor/ops.h tensor/serialize.h
             tensor/int_ops.h tensor/thread_pool.h
             core/quant/int8_backend.h core/variability/lifetime.h)
echo "== docs check =="
DOC_TOOL_RAN=0
if command -v python3 >/dev/null 2>&1; then
  (cd "${REPO_ROOT}" && python3 ci/check_doc_comments.py "${DOC_HEADERS[@]}")
  DOC_TOOL_RAN=1
fi
if command -v doxygen >/dev/null 2>&1; then
  DOXY_DIR="$(mktemp -d)"
  trap 'rm -rf "${DOXY_DIR}"' EXIT  # clean the scratch dir on failure too
  {
    echo "INPUT = ${DOC_HEADERS[*]/#/${REPO_ROOT}/}"
    echo "OUTPUT_DIRECTORY = ${DOXY_DIR}"
    echo "GENERATE_LATEX = NO"
    echo "GENERATE_HTML = NO"
    echo "GENERATE_XML = YES"
    echo "WARN_AS_ERROR = YES"
    echo "QUIET = YES"
    echo "EXTRACT_ALL = YES"
  } > "${DOXY_DIR}/Doxyfile"
  doxygen "${DOXY_DIR}/Doxyfile"
  rm -rf "${DOXY_DIR}"
  trap - EXIT
  echo "docs check: OK (doxygen, ${#DOC_HEADERS[@]} headers)"
  DOC_TOOL_RAN=1
elif command -v clang++ >/dev/null 2>&1; then
  for h in "${DOC_HEADERS[@]}"; do
    clang++ -std=c++17 -fsyntax-only -x c++-header -I "${REPO_ROOT}" \
      -Wdocumentation -Werror=documentation "${REPO_ROOT}/${h}"
  done
  echo "docs check: OK (clang -Wdocumentation, ${#DOC_HEADERS[@]} headers)"
  DOC_TOOL_RAN=1
fi
if [[ "${DOC_TOOL_RAN}" -eq 0 ]]; then
  echo "docs check: no tool available (need python3, doxygen or clang++)" >&2
  exit 1
fi
if [[ -f "${REPO_ROOT}/docs/ARCHITECTURE.md" ]]; then
  echo "docs/ present: ARCHITECTURE.md"
else
  echo "docs/ARCHITECTURE.md missing" >&2
  exit 1
fi

# Artifact-store round-trip gate: one bench cold then warm against a
# private store, for every evaluation backend (weight_domain, circuit,
# int8). The warm run must (a) hit the store for every model and
# Monte-Carlo result — zero training, zero evaluations, asserted via the
# [qavat-session] stderr summary — and (b) print byte-identical table
# output (stdout carries only the deterministic numbers;
# provenance/timing goes to stderr). Train keys carry no backend token,
# so the circuit and int8 cold runs reuse the weight_domain-trained
# models from the shared store (trained=0 even cold); only their eval
# results are new.
echo "== store round-trip (bench_table1 cold vs warm) =="
STORE_TMP="$(mktemp -d)"
trap 'rm -rf "${STORE_TMP}"' EXIT
for backend in weight_domain circuit int8; do
  for phase in cold warm; do
    echo "-- ${backend} ${phase} --"
    QAVAT_FAST=1 QAVAT_STORE_DIR="${STORE_TMP}/store" \
      QAVAT_EVAL_BACKEND="${backend}" "${BUILD_DIR}/bench_table1" \
      > "${STORE_TMP}/${backend}.${phase}.out" \
      2> "${STORE_TMP}/${backend}.${phase}.err"
  done
  if ! cmp "${STORE_TMP}/${backend}.cold.out" \
           "${STORE_TMP}/${backend}.warm.out"; then
    echo "store gate: warm ${backend} stdout differs from cold" >&2
    exit 1
  fi
  if ! grep -q ' trained=0 ' "${STORE_TMP}/${backend}.warm.err" ||
     ! grep -q ' evals_computed=0 ' "${STORE_TMP}/${backend}.warm.err"; then
    echo "store gate: warm ${backend} run retrained or re-evaluated:" >&2
    grep '\[qavat-session\]' "${STORE_TMP}/${backend}.warm.err" >&2 || true
    exit 1
  fi
done
echo "store round-trip: OK (all backends: warm = 0 trainings, byte-identical tables)"

# Concurrent-sweep gate: two bench_table1 processes race against ONE
# fresh store. The work-claim protocol (DESIGN.md §14) must make them
# split the work — the summed train_runs across both processes equals
# the single-process cold run's (every unit trained exactly once, none
# lost) — and both must print tables byte-identical to the cold
# reference. Afterwards the store must verify clean and hold no leases.
echo "== store concurrent sweep (2x bench_table1, one cold store) =="
SWEEP_STORE="${STORE_TMP}/sweep-store"
for w in 1 2; do
  QAVAT_FAST=1 QAVAT_STORE_DIR="${SWEEP_STORE}" \
    QAVAT_EVAL_BACKEND=weight_domain "${BUILD_DIR}/bench_table1" \
    > "${STORE_TMP}/sweep.${w}.out" \
    2> "${STORE_TMP}/sweep.${w}.err" &
  SWEEP_PID[${w}]=$!
done
for w in 1 2; do
  if ! wait "${SWEEP_PID[${w}]}"; then
    echo "concurrent sweep gate: worker ${w} failed:" >&2
    cat "${STORE_TMP}/sweep.${w}.err" >&2
    exit 1
  fi
done
for w in 1 2; do
  if ! cmp "${STORE_TMP}/weight_domain.cold.out" "${STORE_TMP}/sweep.${w}.out"
  then
    echo "concurrent sweep gate: worker ${w} stdout differs from the" \
         "single-process cold reference" >&2
    exit 1
  fi
done
train_runs_of() {
  sed -n 's/.*\[qavat-session\].* train_runs=\([0-9]*\) .*/\1/p' "$1" | tail -1
}
REF_RUNS="$(train_runs_of "${STORE_TMP}/weight_domain.cold.err")"
W1_RUNS="$(train_runs_of "${STORE_TMP}/sweep.1.err")"
W2_RUNS="$(train_runs_of "${STORE_TMP}/sweep.2.err")"
if [[ -z "${REF_RUNS}" || -z "${W1_RUNS}" || -z "${W2_RUNS}" ]]; then
  echo "concurrent sweep gate: missing train_runs= token in a summary" >&2
  exit 1
fi
if [[ "$((W1_RUNS + W2_RUNS))" -ne "${REF_RUNS}" ]]; then
  echo "concurrent sweep gate: train_runs ${W1_RUNS}+${W2_RUNS} != single-" \
       "process ${REF_RUNS} - work was duplicated or lost" >&2
  exit 1
fi
# (Deeper inspect/gc/evict CLI coverage lives in the ctest-registered
# store_cli_smoke test; here verify doubles as the race's clean-store
# assertion.)
"${BUILD_DIR}/qavat-store" verify --root "${SWEEP_STORE}"
echo "concurrent sweep: OK (train_runs ${W1_RUNS}+${W2_RUNS} = ${REF_RUNS}," \
     "byte-identical tables, store verifies clean)"

# Manifest sweep gate: run_all's busy skip end-to-end through the
# qavat-sweep CLI (DESIGN.md §15). Emit the Table-I grid as a manifest,
# run it once in a single process on a fresh store as the reference,
# then race two independent qavat-sweep processes against a second cold
# store — the way a grid is shared across processes or hosts. Each
# process's manifest-order stdout must be byte-identical to the
# reference, their summed train_runs must equal the reference run's
# (exactly once per unit, fleet-wide), a dry-run after must show every
# claim unit done, and the contended store must verify clean.
echo "== manifest sweep (2x qavat-sweep, table1, one cold store) =="
MANIFEST_TMP="${STORE_TMP}/manifest"
mkdir -p "${MANIFEST_TMP}"
QAVAT_FAST=1 "${BUILD_DIR}/qavat-sweep" emit table1 \
  -o "${MANIFEST_TMP}/table1.json"
QAVAT_FAST=1 QAVAT_STORE_DIR="${MANIFEST_TMP}/seq-store" \
  "${BUILD_DIR}/qavat-sweep" run "${MANIFEST_TMP}/table1.json" \
  > "${MANIFEST_TMP}/seq.out" 2> "${MANIFEST_TMP}/seq.err"
for w in 1 2; do
  QAVAT_FAST=1 QAVAT_STORE_DIR="${MANIFEST_TMP}/race-store" \
    "${BUILD_DIR}/qavat-sweep" run "${MANIFEST_TMP}/table1.json" \
    > "${MANIFEST_TMP}/race.${w}.out" 2> "${MANIFEST_TMP}/race.${w}.err" &
  RACE_PID[${w}]=$!
done
for w in 1 2; do
  if ! wait "${RACE_PID[${w}]}"; then
    echo "manifest gate: process ${w} failed:" >&2
    cat "${MANIFEST_TMP}/race.${w}.err" >&2
    exit 1
  fi
  if ! cmp "${MANIFEST_TMP}/seq.out" "${MANIFEST_TMP}/race.${w}.out"; then
    echo "manifest gate: process ${w} stdout differs from the" \
         "single-process reference" >&2
    exit 1
  fi
done
sweep_runs_of() {
  sed -n 's/.*\[qavat-sweep\].* train_runs=\([0-9]*\).*/\1/p' "$1" | tail -1
}
SEQ_RUNS="$(sweep_runs_of "${MANIFEST_TMP}/seq.err")"
R1_RUNS="$(sweep_runs_of "${MANIFEST_TMP}/race.1.err")"
R2_RUNS="$(sweep_runs_of "${MANIFEST_TMP}/race.2.err")"
if [[ -z "${SEQ_RUNS}" || -z "${R1_RUNS}" || -z "${R2_RUNS}" ]]; then
  echo "manifest gate: missing train_runs= token in a provenance line" >&2
  exit 1
fi
if [[ "$((R1_RUNS + R2_RUNS))" -ne "${SEQ_RUNS}" ]]; then
  echo "manifest gate: train_runs ${R1_RUNS}+${R2_RUNS} != single-process" \
       "${SEQ_RUNS} - work was duplicated or lost" >&2
  exit 1
fi
QAVAT_FAST=1 QAVAT_STORE_DIR="${MANIFEST_TMP}/race-store" \
  "${BUILD_DIR}/qavat-sweep" run "${MANIFEST_TMP}/table1.json" --dry-run \
  > "${MANIFEST_TMP}/dry.out"
if grep -v ' done ' "${MANIFEST_TMP}/dry.out"; then
  echo "manifest gate: dry-run shows unproduced units after the sweep" >&2
  exit 1
fi
"${BUILD_DIR}/qavat-store" verify --root "${MANIFEST_TMP}/race-store"
echo "manifest sweep: OK (train_runs ${R1_RUNS}+${R2_RUNS} = ${SEQ_RUNS}," \
     "each process's output byte-identical, all units done, store clean)"

# Fleet resume gate (DESIGN.md §16): an interrupted lifetime study must
# resume from its persisted snapshots and reproduce the uninterrupted
# single-process trajectory byte-for-byte, at both thread budgets. The
# interruption is real: the store's fault hook kills the process during
# the SECOND snapshot publish (writes 1-2 are the QAT/QAVAT models,
# writes 3+ the per-checkpoint snapshots), and the resuming process must
# reclaim the dead holder's lease (QAVAT_CLAIM_TTL_S=1 keeps the wait
# short) and assert via --resume that it actually continued from a
# snapshot. Then two racing processes on one cold store must publish
# each snapshot exactly once (summed published= equals the reference
# count), and every store must verify clean.
echo "== fleet resume (kill mid-publish, resume, byte-identical trajectory) =="
FLEET_TMP="${STORE_TMP}/fleet"
mkdir -p "${FLEET_TMP}"
QAVAT_FAST=1 "${BUILD_DIR}/qavat-fleet" emit fleet_mixed \
  -o "${FLEET_TMP}/study.json"
published_of() {
  sed -n 's/.*\[qavat-fleet\].* published=\([0-9]*\) .*/\1/p' "$1" | tail -1
}
for nt in 1 4; do
  # Uninterrupted single-process reference on its own cold store.
  QAVAT_FAST=1 QAVAT_THREADS="${nt}" \
    QAVAT_STORE_DIR="${FLEET_TMP}/ref-store.${nt}" \
    "${BUILD_DIR}/qavat-fleet" run "${FLEET_TMP}/study.json" \
    > "${FLEET_TMP}/ref.${nt}.out" 2> "${FLEET_TMP}/ref.${nt}.err"
  # Interrupted run: killed mid-rename of the second snapshot.
  set +e
  QAVAT_FAST=1 QAVAT_THREADS="${nt}" \
    QAVAT_STORE_DIR="${FLEET_TMP}/store.${nt}" \
    QAVAT_STORE_FAULT=kill_before_rename:4 \
    "${BUILD_DIR}/qavat-fleet" run "${FLEET_TMP}/study.json" \
    > /dev/null 2> "${FLEET_TMP}/killed.${nt}.err"
  rc=$?
  set -e
  if [[ "${rc}" -ne 42 ]]; then
    echo "fleet gate: fault injection did not kill the run (rc=${rc})" >&2
    exit 1
  fi
  # Resume on the same store; --resume exits 1 if the study restarted
  # from factory state instead of a persisted snapshot.
  QAVAT_FAST=1 QAVAT_THREADS="${nt}" QAVAT_CLAIM_TTL_S=1 \
    QAVAT_STORE_DIR="${FLEET_TMP}/store.${nt}" \
    "${BUILD_DIR}/qavat-fleet" run "${FLEET_TMP}/study.json" --resume \
    > "${FLEET_TMP}/resumed.${nt}.out" 2> "${FLEET_TMP}/resumed.${nt}.err"
  if ! cmp "${FLEET_TMP}/ref.${nt}.out" "${FLEET_TMP}/resumed.${nt}.out"; then
    echo "fleet gate: resumed trajectory differs from uninterrupted" \
         "reference (QAVAT_THREADS=${nt})" >&2
    exit 1
  fi
  "${BUILD_DIR}/qavat-store" verify --root "${FLEET_TMP}/store.${nt}"
done
if ! cmp "${FLEET_TMP}/ref.1.out" "${FLEET_TMP}/ref.4.out"; then
  echo "fleet gate: trajectory differs between QAVAT_THREADS=1 and 4" >&2
  exit 1
fi
# Exactly-once snapshot publication: two racing processes, one cold
# store. The loser backs off on the fleet lease and loads the winner's
# completed trajectory, so the summed published count equals the
# single-process reference's.
for w in 1 2; do
  QAVAT_FAST=1 QAVAT_CLAIM_TTL_S=1 \
    QAVAT_STORE_DIR="${FLEET_TMP}/race-store" \
    "${BUILD_DIR}/qavat-fleet" run "${FLEET_TMP}/study.json" \
    > "${FLEET_TMP}/race.${w}.out" 2> "${FLEET_TMP}/race.${w}.err" &
  FLEET_PID[${w}]=$!
done
for w in 1 2; do
  if ! wait "${FLEET_PID[${w}]}"; then
    echo "fleet gate: racing worker ${w} failed:" >&2
    cat "${FLEET_TMP}/race.${w}.err" >&2
    exit 1
  fi
  if ! cmp "${FLEET_TMP}/ref.1.out" "${FLEET_TMP}/race.${w}.out"; then
    echo "fleet gate: racing worker ${w} trajectory differs from the" \
         "reference" >&2
    exit 1
  fi
done
REF_PUB="$(published_of "${FLEET_TMP}/ref.1.err")"
RACE_PUB="$(( $(published_of "${FLEET_TMP}/race.1.err") \
            + $(published_of "${FLEET_TMP}/race.2.err") ))"
if [[ -z "${REF_PUB}" || "${RACE_PUB}" -ne "${REF_PUB}" ]]; then
  echo "fleet gate: racing processes published ${RACE_PUB} snapshots," \
       "reference published ${REF_PUB} - publication was duplicated or" \
       "lost" >&2
  exit 1
fi
"${BUILD_DIR}/qavat-store" verify --root "${FLEET_TMP}/race-store"
echo "fleet resume: OK (resume = uninterrupted at QAVAT_THREADS=1/4," \
     "exactly-once publication ${RACE_PUB} = ${REF_PUB}, stores clean)"
rm -rf "${STORE_TMP}"
trap - EXIT

# Micro-bench perf record (Release only; skipped when google-benchmark was
# not found). Writes the machine-readable BENCH_micro.json artifact and
# runs the soft GMAC/s regression gate against ci/bench_baseline.json
# (loud banner on >20% drop; fails the build only with
# QAVAT_BENCH_STRICT=1, since shared CI hosts are noisy).
ARTIFACT_DIR="${ARTIFACT_DIR:-${REPO_ROOT}/artifacts}"
echo "== micro-bench (Release) =="
rm -f "${BUILD_DIR}/BENCH_micro.json"  # fresh record (writers merge-by-name)
(cd "${BUILD_DIR}" && QAVAT_BENCH_JSON=BENCH_micro.json ./bench_gemm_sweep)
# bench_fleet contributes the fleet steps/s rows; it runs its frontier
# against a throwaway store so CI never mixes with manual bench runs.
BENCH_FLEET_STORE="$(mktemp -d)"
(cd "${BUILD_DIR}" && QAVAT_FAST=1 QAVAT_BENCH_JSON=BENCH_micro.json \
   QAVAT_STORE_DIR="${BENCH_FLEET_STORE}" ./bench_fleet >/dev/null)
rm -rf "${BENCH_FLEET_STORE}"
if [[ -x "${BUILD_DIR}/bench_micro_smoke" ]]; then
  (cd "${BUILD_DIR}" &&
   QAVAT_BENCH_JSON=BENCH_micro.json ./bench_micro_smoke \
     --benchmark_min_time=0.1 >/dev/null)
else
  echo "bench_micro_smoke not built - google-benchmark kernels skipped"
fi
mkdir -p "${ARTIFACT_DIR}"
cp "${BUILD_DIR}/BENCH_micro.json" "${ARTIFACT_DIR}/BENCH_micro.json"
echo "archived ${ARTIFACT_DIR}/BENCH_micro.json"
if command -v python3 >/dev/null 2>&1; then
  python3 "${REPO_ROOT}/ci/check_bench_regression.py" \
    "${BUILD_DIR}/BENCH_micro.json" "${REPO_ROOT}/ci/bench_baseline.json"
else
  echo "python3 not found - skipping bench regression check"
fi

echo "tier-1 verify: OK (Release + Debug + docs + store round-trip)"
