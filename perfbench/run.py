#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload pde_pcg|serve_warm \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which builds the library
from the sources one directory up) in an optimized build under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed.  serve_warm first primes its schedule caches with an
untimed cold pass in a separate process.  The benchmark program prints the
result, a JSON object, as the last line of standard output; this script
checks it names exactly the metrics BENCHMARK.json lists for the mode and
prints it as its own last line.  Everything else goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("pde_pcg", "serve_warm")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 150
PRIME_TIMEOUT_S = 20


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, capture=False):
    """Run cmd with its standard output on our standard error (or
    captured), waiting until it ends; None when it failed."""
    try:
        proc = subprocess.run(
            cmd, env=env, timeout=timeout, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: %s exited with %d" % (" ".join(cmd), proc.returncode),
              file=sys.stderr)
        return None
    return proc.stdout if capture else b""


def build(root, build_dir, env):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, env, BUILD_TIMEOUT_S) is None:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    if run(["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", str(os.cpu_count() or 1)], env, BUILD_TIMEOUT_S) is None:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    # Keep the compiler's and our scratch files inside the tree.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    binary = build(root, build_dir, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    cache_dir = None
    try:
        if args.workload == "serve_warm":
            cache_dir = tempfile.mkdtemp(prefix="sched-", dir=env["TMPDIR"])
            if run([binary, "--prime", cache_dir], env,
                   PRIME_TIMEOUT_S) is None:
                fail("priming the schedule caches failed")
            cmd += ["--cache-dir", cache_dir]
        out = run(cmd, env, RUN_TIMEOUT_S, capture=True)
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if out is None:
        fail("the benchmark program failed")

    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark program printed no result")
    want = expected_metrics(root, args.trace)
    if set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
    print(lines[-1])


if __name__ == "__main__":
    main()
