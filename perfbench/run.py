#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the libraries under src/ plus the benchmark program) into
.bench_build/ with CMake; later calls only let CMake confirm the build is
current. Build output goes to standard error, so the benchmark program's
result object stays the last line of standard output. Exits non-zero,
without a result, when the build fails (for instance when src/ is absent).

--self-test runs every workload at reduced size, untraced and traced, and
checks that each run prints every metric BENCHMARK.json names exactly once,
with its unit, and records commit, nproc, build type and SIMD level.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "wnet_perfbench")
BUILD_TYPE = "RelWithDebInfo"
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the benchmark program; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wnet_perfbench", "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_digest():
    """SHA-256 over the sources the program is built from, so runs of a
    checkout that is not a git repository can still be matched to code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_program(workload, seed, seconds, trace, reduced=False, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--reduced", "1" if reduced else "0", "--out-dir", OUT_DIR,
           "--commit", commit(), "--source-digest", source_digest()]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_program(workload, 1, 1, trace, reduced=True, capture=True)
            sys.stderr.write(proc.stderr)
            label = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append("%s: exit %d, %d output lines" % (label, proc.returncode, len(lines)))
                continue
            info = json.loads(lines[-2])["perfbench"]
            for field in ("commit", "nproc", "build_type", "simd_level"):
                if field not in info:
                    problems.append("%s: run info lacks %s" % (label, field))
            # Duplicate keys would be silently merged by json.loads.
            pairs = json.loads(lines[-1], object_pairs_hook=lambda kv: kv)
            result = dict(pairs)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            printed = [name for name, _ in result["metrics"]]
            units = {name: dict(m)["unit"] for name, m in result["metrics"]}
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name in set(printed):
                if printed.count(name) > 1:
                    problems.append("%s: %s printed %d times" % (label, name, printed.count(name)))
            for name, unit in expected.items():
                if name not in units:
                    problems.append("%s: %s missing" % (label, name))
                elif units[name] != unit:
                    problems.append("%s: %s in %s, not %s" % (label, name, units[name], unit))
            for name in set(printed) - set(expected):
                problems.append("%s: %s is not in BENCHMARK.json" % (label, name))
            if not result["correct"]:
                problems.append("%s: output checks failed" % label)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    return run_program(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
