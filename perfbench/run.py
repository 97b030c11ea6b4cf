#!/usr/bin/env python3
"""The repository benchmark's entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-serve --seed 1 --seconds 20 --trace 0

Builds `rw` and the benchmark from source into `.bench_build/`, then
runs one workload (see perfbench/README.md). The last line of standard
output is the result object. Exits non-zero, without a result line,
when the checkout holds no buildable repository, the build fails, or
the run crashes or times out; and non-zero after the result line when
an answer did not match its reference.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "bin", "lib", "perfbench"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """A digest of the program's sources: the checkout is not a git
    repository, so this stands in for the commit id."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build(workload):
    missing = [p for p in SOURCES + ["bin/rw.ml", "perfbench/dune"]
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"workload {workload}: not a repository checkout "
             f"(missing {', '.join(missing)})", 2)
    # dune makes the build directory but not its parent.
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./bin/rw.exe", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(f"workload {workload}: build failed: dune not found", 2)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload}: build timed out after {BUILD_TIMEOUT_S}s")
    if r.returncode != 0:
        fail(f"workload {workload}: build failed:\n{(r.stdout + r.stderr)[-3000:]}")
    return (os.path.join(BUILD_DIR, "default", "bin", "rw.exe"),
            os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    rw, bench = build(a.workload)
    cmd = [bench, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--rw", rw, "--commit", source_digest()]
    # Its own process group, so a timeout takes its servers down too.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"workload {a.workload}: run timed out after {RUN_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
