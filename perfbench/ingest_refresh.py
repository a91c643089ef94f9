"""Workload ``ingest_refresh``: appends beside a standing query.

A standing :class:`~repro.engine.incremental.IncrementalView` of the
2-path ``E(x, y), E(y, z)`` projected onto ``(x, z)`` sits over a sparse
random graph of 20 000 nodes and 60 000 edges.  Each operation appends a
batch of 10 fresh edges with ``add_fact`` and then runs ``refresh()``.
This is the only workload that exercises the version seam, the append
logs and the semi-naive delta joins, which run on the tuple-set relations.
A batch is 10 / 60 000 of the data, far below the refresh threshold, so
every refresh should take the incremental path.  The first incremental
refresh builds the atom views (about half a second), so set-up includes
one warm batch.

Every operation is checked against reference answers computed untimed in
a child process (:mod:`ingest_reference`) from the same seeded edge
stream: the answer count after each operation, and a checksum of the
whole answer set.  The run is cut into segments of 1000 operations that
each start again from the built graph, so the graph an operation sees
does not depend on how many operations ran before it.  At the end of
every segment and of the run, with the clock stopped, the view's rows are
compared in full against a fresh session's ``answer()`` and against the
reference's count and checksum; on a mismatch every operation since the
previous check counts as failed.

``peak_rss_mb`` is the peak RSS of the operations alone: the high-water
mark is reset once the segment's graph and view are built and read before
each check, so neither set-up nor the checks count.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from engine_layers import EngineTrace
from harness import PeakWindows, Stopwatch, Tally, alternating_loop, \
    end_to_end_metrics, overhead_pct, timed_loop, timed_setups, \
    wall_clock_figures
from ingest_reference import BATCH, EDGES, NODES, SEGMENT_OPS, checksum, \
    edge_stream

from repro.cq.database import Database, Relation
from repro.cq.query import Atom, ConjunctiveQuery
from repro.engine import MODE_FULL, EngineSession

HERE = os.path.dirname(os.path.abspath(__file__))


def two_path_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        [Atom("E", ["x", "y"]), Atom("E", ["y", "z"])], free_variables=["x", "z"]
    )


def build(seed: int):
    """Graph, session and a view warmed by its initial evaluation and one
    incremental refresh; returns them with the segment's edge batches."""
    graph, warm, batches = edge_stream(seed)
    database = Database([Relation("E", 2, graph)])
    view = EngineSession().incremental_view(two_path_query(), database)
    view.refresh()
    for edge in warm:
        database.add_fact("E", edge)
    view.refresh()
    return database, view, batches


def reference_answers(seed: int) -> list:
    """``[count, checksum]`` after each operation of a segment, from the
    child process; ``[0]`` is the state after set-up."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "ingest_reference.py"),
         "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


class Segment:
    """One stretch of the run: a freshly built graph and view, and the
    edge batches that extend them."""

    def __init__(self, built) -> None:
        self.database, self.view, self.batches = built
        self.done = 0


def run(seed: int, seconds: float, tracer) -> dict:
    expected = reference_answers(seed)
    built, setup_runs = timed_setups(lambda: build(seed))
    segment = Segment(built)
    del built  # the segment owns it, so replacing the segment frees it
    tally = Tally()
    watch = Stopwatch()
    peaks = PeakWindows()
    unchecked = {"ops": 0, "failed": 0}
    engine = EngineTrace(tracer, []) if tracer else None
    refreshes: list = []

    def checkpoint() -> None:
        """Compare the view in full; on a mismatch every operation since the
        previous checkpoint counts as failed."""
        peaks.end()
        with watch.paused():
            view = segment.view
            fresh = EngineSession().answer(view.query, segment.database).rows
            count, digest = expected[segment.done]
            if not (view.rows == fresh and len(fresh) == count
                    and checksum(fresh) == digest):
                tally.failed += unchecked["ops"] - unchecked["failed"]
            unchecked.update(ops=0, failed=0)

    def append_and_refresh(batch):
        for edge in batch:
            segment.database.add_fact("E", edge)
        return segment.view.refresh()

    def traced_append_and_refresh(batch):
        if segment.view.session not in engine.sessions:
            engine.sessions.append(segment.view.session)
        with engine.active(), engine.operation("ingest_refresh.op",
                                               tally.attempted):
            for edge in batch:
                with tracer.span("cq.database.append"):
                    segment.database.add_fact("E", edge)
            with tracer.span("engine.incremental.refresh"):
                return segment.view.refresh()

    def op(call):
        nonlocal segment
        batch = segment.batches[segment.done]
        started = time.perf_counter()
        result = call(batch)
        latency = time.perf_counter() - started
        segment.done += 1
        ok = tally.record(len(result.rows) == expected[segment.done][0])
        unchecked["ops"] += 1
        unchecked["failed"] += not ok
        if call is traced_append_and_refresh:
            engine.record_result(result)
            refreshes.append(result.timings["incremental"])
        if segment.done == SEGMENT_OPS:
            # Start over from the built graph, so the graph every operation
            # sees stays within one segment's growth however fast it runs.
            checkpoint()
            with watch.paused():
                segment = None
                segment = Segment(build(seed))
            peaks.start()
        return latency

    info = {
        "query": "E(x,y), E(y,z) projected onto (x,z)",
        "graph": {"nodes": NODES, "edges": EDGES},
        "batch_edges": BATCH,
        "segment_operations": SEGMENT_OPS,
        "answers_at_start": len(segment.view.rows),
        "clients": 1,
        "loop": "closed",
        "reference": "separate process",
    }
    peaks.start()
    if tracer is None:
        gauge = timed_loop(seconds, lambda: op(append_and_refresh), watch)
        checkpoint()
        metrics = end_to_end_metrics(gauge, setup_runs, peaks.peak_mb)
        info["operations"] = tally.attempted
        info["wall_clock"] = wall_clock_figures(gauge)
        info["peak_rss_windows"] = ("operations only" if peaks.resettable
                                    else "whole process")
        return {"tally": tally, "metrics": metrics, "info": info}
    plain_latencies, traced_latencies = alternating_loop(
        seconds,
        lambda: op(append_and_refresh),
        lambda: op(traced_append_and_refresh),
        watch,
    )
    checkpoint()
    metrics = engine.metrics()
    metrics.update({
        "cq.database.append_us": statistics.median(
            span.duration_ns for span in tracer.named("cq.database.append")
        ) / 1e3,
        "engine.incremental.refresh_ms": statistics.median(
            span.duration_ns
            for span in tracer.named("engine.incremental.refresh")
        ) / 1e6,
        "engine.incremental.delta_rows": statistics.median(
            record["delta_rows"] for record in refreshes
        ),
        "engine.incremental.full_fallback_share": sum(
            record["mode"] == MODE_FULL for record in refreshes
        ) / len(refreshes),
        "trace.overhead_pct": overhead_pct(traced_latencies, plain_latencies),
    })
    info["operations"] = len(plain_latencies) + len(traced_latencies)
    return {"tally": tally, "metrics": metrics, "info": info}
