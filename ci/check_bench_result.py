#!/usr/bin/env python3
"""Fail unless a benchmark run passed its oracles.

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 3 --trace 0 \\
        | python3 ci/check_bench_result.py

Reads perfbench/run.py's stdout and takes its last line, the result object.
Exits non-zero unless that object reports "correct": true, "failed": 0 and
"attempted" >= 1 (a run that timed nothing passes no oracle), or when there
is no result line at all. Timing is not checked.
"""
import json
import sys


def main():
    lines = sys.stdin.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("check_bench_result: no result line on stdin", file=sys.stderr)
        return 1
    correct = result.get("correct") is True
    failed = result.get("failed")
    attempted = result.get("attempted")
    print(f"correct={correct} failed={failed} attempted={attempted}")
    if not isinstance(attempted, int) or attempted < 1:
        print("check_bench_result: the run attempted no operation", file=sys.stderr)
        return 1
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
