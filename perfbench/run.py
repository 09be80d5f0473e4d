#!/usr/bin/env python3
"""Build the simulator-speed benchmark from source and run one workload.

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 12 --trace 0

Run from the root of a source tree. The benchmark and the simulator library
are built into .bench_build/ (Release). The last stdout line is the result
object {correct, attempted, failed, metrics}; the line before it is the
benchmark's detail line, and the first line records the host, build type and
source revision. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("verify_mix", "manycore_mix", "fault_campaign")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"cannot run cmake: {err}")
        if done.returncode != 0:
            fail("build failed")
    return os.path.join(cmake_dir, "flexbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """Digest of every file the benchmark builds from (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(file_digest(path).encode())
    return h.hexdigest()


def git_revision():
    """The checked-out commit when the tree is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)

    knobs = sorted(k for k in os.environ if k.startswith("FLEX_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set: the benchmark "
             "pins every simulator knob itself", code=2)
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scenario.h")):
        fail(f"simulator sources not found under {ROOT}/src")

    binary = build()
    digest = file_digest(binary)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--oracle-cache", os.path.join(BUILD, "oracle", digest[:16])]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")

    context = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "binary_digest": digest,
    }
    print(json.dumps({"context": context}))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
