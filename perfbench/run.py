#!/usr/bin/env python3
"""Builds the purchase benchmark from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot_product --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into .bench_build/,
then runs one workload. --seconds sets the amount of work, not a deadline:
each phase runs a fixed number of purchases per second of --seconds, sized
to take about that long on the machine in perfbench/README.md. Shard state
goes to .bench_state/ and the traced replay's spans to .bench_out/. Passes
the program's output through; its last line is the JSON result. Exits
non-zero, without a result line, when the sources are missing, the build
fails or the result line is malformed, and with the program's own code when
a correctness gate fails.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build")
STATE_DIR = os.path.join(ROOT, ".bench_state")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "purchase_bench")
RUN_TIMEOUT_S = 170
# Threads for the program's parallel loops (set-up curve builds, model
# training), per workload. hot_product's set-up builds two curves; on 4
# threads of the 4-vCPU VM in perfbench/README.md they ran either at four
# threads' speed or at one's, presumably as the VM woke its idle vCPUs fast
# or slowly (set-up medians of 0.013 s and 0.028 s in consecutive ten-run
# sets), so it builds them on one. wide_catalog's 400 builds keep 4: its
# set-up medians stayed within 1.1-1.3 s across sets, and on one thread a
# set-up took ~3.3 s.
SETUP_THREADS = {"hot_product": 1, "wide_catalog": 4}
# Variables the program reads that would change what a run measures.
CLEARED_ENV = ("NIMBUS_TRACE", "NIMBUS_FAULTS", "NIMBUS_METRICS",
               "NIMBUS_FLIGHT_RECORDER", "NIMBUS_LOG_FORMAT")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "purchase_bench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(step))


def source_id():
    """Git sha when the checkout is a repository, else a digest of the
    sources the benchmark compiles."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:12]


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric %s keys: %s" % (name, sorted(metric)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["NIMBUS_THREADS"] = str(SETUP_THREADS[args.workload])
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", STATE_DIR, "--out-dir", OUT_DIR,
               "--source-id", source_id()]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(STATE_DIR, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1])
    except (ValueError, IndexError, TypeError, AttributeError) as error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("malformed result line (%s), exit code %d" %
             (error, proc.returncode))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
