#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 rcbench/run.py --workload rpc_zipf --seed 42 --seconds 10 --trace 0

The first run configures and builds rcbench/ (which compiles ../src) into
.bench_build/rcbench; later runs only rebuild what changed. Build output goes
to stderr. The benchmark's own output is passed through; its last line is
the JSON result record. Each record is also appended, with its host stamp, to
.bench_build/rcbench-out/records.jsonl.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rcbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "rcbench-out")
WORKLOADS = ("rpc_zipf", "client_mix", "sched_month")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("rcbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git sha when the checkout is a repository, plus a digest of the
    sources the benchmark builds, so records from different code never
    compare equal."""
    digest = hashlib.sha256()
    for top in ("src", "rcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "sources-" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            ident = "git-" + sha.stdout.strip() + " " + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to rcbench/; this is not a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    binary = os.path.join(BUILD_DIR, "rcbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no rcbench binary", 3)
    return binary


def recorded_sched_outcome(seed):
    with open(os.path.join(HERE, "workloads.json")) as f:
        record = json.load(f)
    outcomes = record["sched_month"]["recorded_outcomes"]
    return outcomes.get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--source", source_id()]
    if args.workload == "sched_month":
        outcome = recorded_sched_outcome(args.seed)
        if outcome is not None:
            command += ["--expect-sched", ",".join(str(v) for v in outcome)]

    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("the %s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    lines = out.splitlines()
    # Everything but the result record is passed through first, so the
    # record stays the last line of stdout.
    result = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    try:
        parsed = json.loads(result)
    except ValueError:
        print(result)
        fail("the benchmark printed no result record (exit status %d)" % proc.returncode, 5)
    stamp = None
    for line in lines:
        if line.startswith('{"stamp":'):
            stamp = json.loads(line)["stamp"]
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps({"stamp": stamp, "result": parsed}) + "\n")
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
