#!/usr/bin/env python3
"""Builds and runs the SUDAF benchmark.

    python3 perfbench/run.py --workload explore|dashboard|append --seed N \
        --seconds S --trace 0|1 [--out DIR]

Run it from the repository root. It builds perfbench/CMakeLists.txt (the
library in src/ plus the benchmark program) in $CARGO_TARGET_DIR/perfbench,
or in build/perfbench/cmake when that variable is unset, then runs one
workload for S seconds. Build output and progress go to standard error. The last line of
standard output is the run's result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
A report with the build and machine fingerprint (and, for --trace 1, a
span log) is written to DIR, by default build/perfbench/results.
perfbench/compare.py compares two directories of such reports.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return (ROOT / target / "perfbench").resolve()
    return ROOT / "build" / "perfbench" / "cmake"


def build():
    """Configures (once) and builds the program; returns its path or None."""
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(cpus()),
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_sha256():
    """Hash of the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "dashboard", "append"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", default=str(ROOT / "build" / "perfbench" /
                                         "results"))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no library sources under %s/src: run from a full checkout" % ROOT)
        return 2
    binary = build()
    if binary is None:
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(pathlib.Path(args.out).resolve()),
           "--git-sha", git_sha(), "--src-sha256", source_sha256()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    if r.returncode != 0:
        log("benchmark exited with code %d" % r.returncode)
        return r.returncode
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("benchmark printed no result line")
        return 5
    print(r.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
