#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the vmbench driver (and the
vmargin library sources it links) into .bench_build/perfbench with
CMake, runs one workload and relays its output; the last line of
standard output is the result object vmbench prints. At the default
seed, every op must reproduce the output hash pinned in
perfbench/pinned.json.

Exits non-zero without a result when the build or the run fails, for
example in a directory that lacks the library sources.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "vmbench")
DEFAULT_SEED = 1
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def pinned_hash(workload, seed_text):
    """The pinned output hash when the seed is the default one."""
    try:
        seed = int(seed_text)
    except ValueError:
        return None  # vmbench rejects the value and names it
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "pinned.json")) as handle:
        return json.load(handle)["hashes"].get(workload)


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S "
             "--trace 0|1")
    build()
    command = [BINARY, "--workdir", WORK_DIR] + argv
    expect = pinned_hash(args["--workload"], args["--seed"])
    if expect:
        command += ["--expect", expect]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("vmbench did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("vmbench exited with code %d" % done.returncode)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
