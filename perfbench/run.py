#!/usr/bin/env python3
"""Builds the Table 6 serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload table6-cold --seed 1 --seconds 15 --trace 0

Configures and builds a Release tree under .bench_build/ at the repository
root (the first run compiles everything; later runs only check it is up to
date), then runs table6_bench, whose last stdout line is the JSON summary.
Build output goes to stderr. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORKLOADS = ("table6-cold", "table6-warm", "table6-solo")


def build():
    """Configures and builds table6_bench and the rls server (both steps are
    cheap no-ops once the tree is up to date)."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "table6_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def provenance():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha1()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return commit + "+src:" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        build()
        commit = provenance()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: cannot build the benchmark: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "table6_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_build", "run",
                                      args.workload),
           "--commit", commit]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
