#!/usr/bin/env python3
"""Build and run the fastcast benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bcast-thm1 --seed 1 --seconds 10 --trace 0

Workloads: bcast-thm1, serve-warm, serve-cold (perfbench/README.md says why
each exists). The seed keys every generated input; 1000003 is the hold-out
seed on which a performance claim must also hold. --trace 1 runs the replayed,
span-recorded variant and reports the per-layer metrics instead of the
end-to-end ones.

The script compiles the library from the checkout's src/ together with the
benchmark harness (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
harness. It prints human-readable lines, a {"meta": ...} line and, as the
last line, the JSON result. The exit code is nonzero when the build fails,
when any output check fails, or when the sources are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("bcast-thm1", "serve-warm", "serve-cold")
RUN_TIMEOUT_S = 170


def source_digest(src_dir):
    """sha256 over the compiled sources' paths and contents."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """The commit of `root` when it is itself a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return "unknown"
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(bench_dir, build_dir):
    """Configure (once) and build the harness; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "congest", "network.hpp")):
        print("perfbench: no fastcast sources at %s; run from a full checkout" % src_dir,
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds,
           "--trace=%d" % args.trace,
           "--out-dir=" + os.path.join(build_dir, "out"),
           "--commit=" + git_commit(root),
           "--src-digest=" + source_digest(src_dir)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
