#!/usr/bin/env python3
"""End-to-end benchmark of rlcx: builds e2ebench/ (which pulls in the
repository's libraries) and runs one workload.

    python3 e2ebench/run.py --workload htree_skew --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental; build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("characterize_cold", "htree_skew", "serve_warm")


def build(build_dir, env):
    """Configures and builds the benchmark (incrementally); returns its
    path."""
    tree = os.path.join(build_dir, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", tree,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", tree, "--target", "rlcx_e2ebench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(tree, "rlcx_e2ebench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    # Compiler and run temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "e2ebench-out")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
