"""The query service in a process of its own, for ``serve_mixed``.

Started by :mod:`serve_mixed` as ``python3 perfbench/server.py [--trace]``.
It builds the :data:`BATCH` database the load process builds too,
registers it as dataset ``bench`` with a service in its shipped default
configuration, serves on a free local port and prints ``{"port": P}``.  It serves until
its standard input closes, then stops the service and prints its peak RSS
and — with ``--trace`` — the peak number of requests waiting in the
admission queue, which the service does not count itself.  With fewer
closed-loop clients than the default configuration's execution slots, no
request ever waits or is shed, so both admission figures read 0 by design.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.cq import workloads  # noqa: E402
from repro.service import QueryService, serve_in_thread  # noqa: E402

#: The batch both processes build.  Its seed is fixed: the batch's slowest
#: tenth depends on which scenarios a seed draws, and the engine's own p90
#: over it ranged from 2.3 to 5.2 ms across batch seeds 1-8 while its p50
#: stayed within 0.59-0.71 ms.  The run's seed sets the request order.
BATCH = {"seed": 0, "copies": 2, "size": "small"}


def track_queue_peak(admission) -> dict:
    """Record the admission queue's peak depth: a request that arrives
    while every execution slot is taken waits behind those already
    queued."""
    peak = {"queued": 0}
    acquire = admission.acquire

    async def acquire_and_track():
        if admission.in_flight >= admission.max_concurrent:
            depth = min(admission.queued + 1, admission.max_queue)
            peak["queued"] = max(peak["queued"], depth)
        return await acquire()

    admission.acquire = acquire_and_track
    return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    _, database = workloads.mixed_batch(**BATCH)
    service = QueryService()
    service.register_dataset("bench", database)
    peak = track_queue_peak(service.admission) if args.trace else None
    with serve_in_thread(service) as handle:
        print(json.dumps({"port": handle.port}), flush=True)
        sys.stdin.read()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    if peak is not None:
        report["queued_peak"] = peak["queued"]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
