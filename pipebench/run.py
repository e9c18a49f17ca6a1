#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see README.md).

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --self-test

Run from the repository root. The driver is built from source into
.bench_build/ (build output goes to stderr); the last line of stdout is the
driver's JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "pipebench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
PINS = os.path.join(BENCH, "pins.txt")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures on first use, then builds `targets`; False on failure."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def commit():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "pipebench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def driver(workload, seed, seconds, trace, pins=PINS, capture=False):
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "bgc_pipebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--pins", pins, "--workdir", WORK,
           "--commit", commit()]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test():
    """Runs the benchmark's tests, then shows the driver flags an altered
    pin: the cora cell at the default seed against a pin file whose asr
    is off by one digit must fail every op, naming the field."""
    if not build(["bgc_pipebench", "pipebench_test"]):
        return 1
    if subprocess.run([os.path.join(BUILD, "pipebench_test")],
                      cwd=ROOT).returncode != 0:
        log("pipebench_test failed")
        return 1
    with open(PINS) as f:
        lines = f.read().splitlines()
    altered = []
    for line in lines:
        parts = line.split()
        if parts[:2] == ["cora-gcond-bgc", "asr"]:
            value = parts[2]
            last = "1" if value[-1] != "1" else "2"
            line = " ".join(parts[:2] + [value[:-1] + last])
        altered.append(line)
    os.makedirs(WORK, exist_ok=True)
    altered_pins = os.path.join(WORK, "altered_pins.txt")
    with open(altered_pins, "w") as f:
        f.write("\n".join(altered) + "\n")
    out = driver("cora-gcond-bgc", 1, 0, 0, pins=altered_pins, capture=True)
    os.remove(altered_pins)
    sys.stdout.write(out.stdout)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    flagged = any(line.startswith("op 1 FAILED asr: ")
                  for line in out.stdout.splitlines())
    if out.returncode != 0 or result["correct"] or not flagged \
            or result["failed"] != result["attempted"]:
        log("self-test FAILED: the altered pin was not reported")
        return 1
    log("self-test passed: the altered asr pin was reported as incorrect")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if not build(["bgc_pipebench"]):
        return 1
    return driver(args.workload, args.seed, args.seconds,
                  args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
