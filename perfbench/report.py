"""Run every workload once and print each metric by name, with its unit.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own process through ``run.py``, exactly as a
single-workload run does; the table ends with whether every answer was
correct.  Exits non-zero if a workload fails or answers wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if completed.returncode:
            print(f"{name}: exited {completed.returncode}\n{completed.stderr}")
            status = 1
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for metric, reading in result["metrics"].items():
            print(f"{name:15s} {metric:42s} {reading['value']:14.4f} "
                  f"{reading['unit']}")
        print(f"{name:15s} {'correct':42s} {str(result['correct']):>14s} "
              f"({result['failed']} of {result['attempted']} failed)")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
