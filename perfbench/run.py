#!/usr/bin/env python3
"""Repository benchmark: build qavat_perfbench from source, run one workload
in a pinned environment, and print the result JSON as the last stdout line.

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. Workloads: table1_sweep, table2_deploy,
fleet_mixed (see perfbench/README.md). The build lives in $CARGO_TARGET_DIR
(default .bench_build); each run gets a private scratch directory there for
its artifact stores, removed afterwards. Run records (the result line and
the host facts) and, for --trace 1, the span file are kept under
<build dir>/records/. Exits non-zero without printing a result when the
build or the run fails or the run exceeds its time limit.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
THREADS = "4"
WORKLOADS = ("table1_sweep", "table2_deploy", "fleet_mixed")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(root, build_dir, env):
    src = os.path.join(root, "perfbench")
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        rc, _ = run_checked(["cmake", "-S", src, "-B", cmake_dir,
                             "-DCMAKE_BUILD_TYPE=Release"],
                            BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if rc != 0:
            return None
    rc, _ = run_checked(["cmake", "--build", cmake_dir, "--target",
                         "qavat_perfbench", "-j", THREADS],
                        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if rc != 0:
        return None
    return os.path.join(cmake_dir, "qavat_perfbench")


def local_tmp_env(build_dir):
    """The caller's environment with temporary files (compiler
    intermediates included) kept inside the build directory."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def pinned_env(build_dir, scratch):
    """The QAVAT_* environment every run sees: 4 threads, fast budgets, the
    store off unless a workload enables a private one; everything else
    (eval backend, store faults, chip batch, tile size, ...) unset."""
    env = {k: v for k, v in local_tmp_env(build_dir).items()
           if not k.startswith("QAVAT_")}
    env.update({
        "QAVAT_THREADS": THREADS,
        "QAVAT_FAST": "1",
        "QAVAT_STORE": "0",
        "QAVAT_STORE_DIR": os.path.join(scratch, "store-unused"),
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for required in ("CMakeLists.txt", os.path.join("eval", "runner.h")):
        if not os.path.exists(os.path.join(root, required)):
            log(f"no qavat sources here ({required} missing); run from the "
                "repository root")
            return 1
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(root, build_dir, local_tmp_env(build_dir))
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    if binary is None:
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(build_dir, "runs", f"{tag}-{os.getpid()}")
    records = os.path.join(build_dir, "records")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    os.makedirs(records, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    t0 = time.monotonic()
    try:
        rc, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              env=pinned_env(build_dir, scratch), text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        shutil.rmtree(scratch, ignore_errors=True)
        return 1
    wall = time.monotonic() - t0
    trace_file = os.path.join(scratch, "trace.json")
    if os.path.exists(trace_file):
        shutil.move(trace_file, os.path.join(records, f"{tag}.spans.json"))
    try:
        with open(os.path.join(scratch, "host.json")) as f:
            host = json.load(f)
    except (OSError, json.JSONDecodeError):
        host = None
    shutil.rmtree(scratch, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    if rc != 0 or not lines:
        log(f"run failed (exit {rc})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    with open(os.path.join(records, f"{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "wall_s": wall, "host": host, "result": result}, f,
                  indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
