#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload tpcc_up --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first call configures and builds
simbench/ (which compiles the simulator library from src/) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later calls
only bring the build up to date. Build output goes to standard error.
The last line of standard output is the benchmark's result JSON.
`--workload all` runs the four workloads one after another, each
printing its own lines and result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALL = ("tpcc_up", "specint_up", "tpcc_smp4", "fig_sweep")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_rev():
    """Git revision when the tree is a checkout, plus a digest of the sources."""
    h = hashlib.sha256()
    for sub in ("src", "simbench"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src-sha256:" + h.hexdigest()[:16]
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = "git:" + lines[1][:12] + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def build(out):
    """Configure once, then build the simbench target. Returns the binary path."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "simbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("simbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: simulator sources not found under " + ROOT)
    out = build_dir()
    exe = build(out)
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    rev = source_rev()
    rc = 0
    for workload in ALL if args.workload == "all" else (args.workload,):
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans-dir", spans, "--source-rev", rev]
        sys.stdout.flush()
        # Run inside the build tree: a crash report the simulator
        # writes on a failed point lands there, not in the source tree.
        rc = subprocess.run(cmd, cwd=out).returncode or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
