#!/usr/bin/env python3
"""Builds the repo benchmark from source in this checkout, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (CMake, Release) goes to
$CARGO_TARGET_DIR, or .bench_build when unset; scratch files of a run
go under <build>/run and span files of traced runs under
<build>/traces. The last line of stdout is the benchmark's JSON result;
build output goes to stderr. Exits non-zero, printing no result, when
the build or the run fails.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def source_id(root):
    """Content hash of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def build(build_dir):
    """Configures once, then (re)builds; serialised by a lock file so two
    runs starting together in one checkout build only once."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isdir(os.path.join(root, "src")) or not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "perfbench")
    # Relative paths keep UNIX socket paths short whatever the checkout path.
    rel = os.path.relpath(build_dir, root)
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", os.path.join(rel, "run"),
           "--trace-dir", os.path.join(rel, "traces"),
           "--source", source_id(root), "--build-type", "Release"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    out = proc.stdout.decode()
    sys.stdout.write(out)
    last = out.rstrip("\n").rsplit("\n", 1)[-1] if out.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
