#!/usr/bin/env python3
"""Build and run the whole-epoch SIES benchmark.

    python3 epochbench/run.py --workload scale_sum --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
epoch_bench (CMake project in this directory, compiling ../src) under
$CARGO_TARGET_DIR/epochbench, default .bench_build/epochbench. Its stdout
is relayed; the last line is the result JSON
{"correct", "attempted", "failed", "metrics"}.

    python3 epochbench/run.py --selftest

builds epoch_bench and runs its ctest suite (differential self-check and
determinism check on every workload).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(message):
    print("epochbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "epochbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SIES sources at %s; run from a full checkout" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", out, "--target", "epoch_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    if args.selftest:
        ctest = ["ctest", "--test-dir", out, "--output-on-failure"]
        sys.exit(subprocess.run(ctest, stdout=sys.stderr).returncode)
    if not args.workload:
        fail("--workload is required")

    cmd = [os.path.join(out, "epoch_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("epoch_bench exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("epoch_bench exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        fail("epoch_bench printed no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
