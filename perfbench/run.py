"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join_cycle6 --seed 1 --seconds 15 --trace 0

The workloads, the metric names, their units and bounds are declared in
``BENCHMARK.json`` at the root; this script reads them from there.  With
``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric, from a separate traced run whose spans are written to
``.perfbench_out/``.  Lines before the last one record the environment and
the workload's inputs; the last line is the result::

    {"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` of the checkout; without
it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: The string hash seed of every run, whatever its ``--seed``.
HASH_SEED = "0"


def _fix_hashing() -> None:
    """Re-execute with ``PYTHONHASHSEED`` fixed to :data:`HASH_SEED`.

    The program iterates sets of strings in places, so string hashing can
    decide ties between equally good plans and join orders, and with it
    the cost of an operation.  One fixed hash seed — inherited by the
    service process — keeps that choice out of the run-to-run spread: the
    figures hold for this hash order, and a large move in them should be
    checked under another ``PYTHONHASHSEED`` before it is believed.
    """
    wanted = HASH_SEED
    if os.environ.get("PYTHONHASHSEED") != wanted:
        environment = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)


def main(argv=None) -> int:
    args = _parse(argv)
    _fix_hashing()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {workloads}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program source at {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    from harness import Tracer, environment

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = Tracer() if args.trace else None
    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, args.seconds, tracer)

    measured = outcome["metrics"]
    unknown = sorted(set(measured) - {metric["name"] for metric in declared})
    if unknown:
        raise SystemExit(f"workload reported undeclared metrics {unknown}")
    if not args.trace:
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise SystemExit(f"workload did not report {missing}")
    # A per-layer metric of a layer this workload never reaches reads 0.
    metrics = {
        metric["name"]: {
            "value": measured.get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    if tracer is not None:
        path = os.path.join(
            OUTPUT, f"{args.workload}-seed{args.seed}.spans.jsonl"
        )
        tracer.write(path)
        outcome["info"]["spans"] = {
            "count": len(tracer.spans), "file": os.path.relpath(path, ROOT),
        }
        outcome["info"]["layers_reached"] = sorted(
            name for name in measured if measured[name]
        )
    tally = outcome["tally"]
    print(json.dumps({"environment": environment(ROOT)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "inputs": outcome["info"]}, default=repr))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
