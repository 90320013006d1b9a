#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds the
`perfbench` program and the vstream libraries from source (Release,
VSTREAM_CHECK_LEVEL=0) under $CARGO_TARGET_DIR, default `.bench_build`;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the result object. The program reports its metrics
as bare numbers by name; this script gives each the unit BENCHMARK.json
names, reads a per-layer metric the program does not report (a layer the
workload never runs) as 0, and refuses a name BENCHMARK.json does not list.
Exits non-zero, without a result, when the sources are missing, the build
or the run fails, or the metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_sweep", "pcap_labels")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def metric_units(trace):
    """Unit of every metric of the run's kind, by name, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    """The program's metric values with their units, or None if the names do
    not match BENCHMARK.json."""
    units = metric_units(trace)
    unknown = sorted(set(values) - set(units))
    missing = [] if trace else sorted(set(units) - set(values))
    if unknown or missing:
        print(f"perfbench: metrics not in BENCHMARK.json: {unknown}; missing: {missing}",
              file=sys.stderr)
        return None
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def call(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    out = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", out])
    call(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", "perfbench"])
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_sha256():
    """Digest of the sources the program is built from, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="minimal scale, for the benchmark's own test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no vstream sources next to perfbench/", file=sys.stderr)
        return 1
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_root(), "data")
    os.makedirs(data_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(), PERFBENCH_SOURCE_SHA256=source_sha256())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--data-dir", data_dir]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if done.returncode != 0:
        return done.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"perfbench: malformed result keys {sorted(result)}", file=sys.stderr)
        return 1
    result["metrics"] = with_units(result["metrics"], args.trace == "1")
    if result["metrics"] is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
