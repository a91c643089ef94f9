"""Workload ``join_cycle6``: one big warm join, in process.

The cycle-6 query projected onto ``x0`` over one ``random_database`` (30
values, 1200 tuples per relation), answered again and again by one warm
:class:`~repro.engine.session.EngineSession`.
Planning is a plan-cache hit; bag materialisation, the semijoin reduction
and the joins of the columnar kernel carry almost all of the time, which
makes this the workload where a faster relational kernel must show.  One
operation type over one database, so every operation has the same cost
and the percentiles never straddle two cost modes.

The database's shape is drawn once, from a fixed seed; the run's seed
renames its values by a permutation of the domain.  Every seed thus gets
an isomorphic instance with the same join sizes: independently drawn
instances differ in join sizes, and with them in cost, by more than the
benchmark's bounds allow runs to spread.

The reference answer comes from an independent path: a closed-walk search
over successor sets (``x0`` is an answer iff some walk ``x0 → x1 → … →
x5 → x0`` follows ``R0 … R5``), which shares no code with the engine.
"""

from __future__ import annotations

import random
import time

from engine_layers import EngineTrace
from harness import Tally, alternating_loop, end_to_end_metrics, overhead_pct, \
    peak_rss_mb, timed_loop, timed_setups, wall_clock_figures

from repro.cq.database import Database, Relation
from repro.cq.generators import cycle_query, random_database
from repro.engine import EngineSession

DOMAIN = 30
TUPLES = 1200
CYCLE = 6


def instance(seed: int):
    """The query and the seed's renaming of the fixed database."""
    query = cycle_query(CYCLE).project(["x0"])
    shape = random_database(query, DOMAIN, TUPLES, seed="join_cycle6")
    names = list(range(DOMAIN))
    random.Random(f"join_cycle6|{seed}").shuffle(names)
    database = Database([
        Relation(name, relation.arity,
                 [tuple(names[value] for value in row)
                  for row in relation.delta_since(0)])
        for name, relation in shape.relations.items()
    ])
    return query, database


def build(seed: int):
    """Inputs plus a warm session: the first answer plans the query,
    interns the database and builds its columnar views."""
    query, database = instance(seed)
    session = EngineSession()
    session.answer(query, database)
    return query, database, session


def closed_walk_answers(query, database) -> set:
    """``{(v,)}`` for every value ``v`` that starts a closed walk through
    the cycle's atoms in order — the cycle query projected onto ``x0``."""
    successors = []
    for atom in query.atoms:
        table: dict = {}
        for source, target in database.relation(atom.relation).tuples:
            table.setdefault(source, set()).add(target)
        successors.append(table)
    answers = set()
    for start in successors[0]:
        frontier = {start}
        for table in successors:
            frontier = set().union(*(table.get(v, ()) for v in frontier))
        if start in frontier:
            answers.add((start,))
    return answers


def run(seed: int, seconds: float, tracer) -> dict:
    (query, database, session), setup_runs = timed_setups(lambda: build(seed))
    expected = closed_walk_answers(query, database)
    tally = Tally()

    def plain():
        started = time.perf_counter()
        result = session.answer(query, database)
        latency = time.perf_counter() - started
        tally.record(result.rows == expected)
        return latency

    info = {
        "query": f"cycle{CYCLE} projected onto x0",
        "database": f"random_database(domain={DOMAIN}, "
                    f"tuples_per_relation={TUPLES})",
        "stored_tuples": database.total_tuples(),
        "answer_rows": len(expected),
        "clients": 1,
        "loop": "closed",
    }
    if tracer is None:
        gauge = timed_loop(seconds, plain)
        metrics = end_to_end_metrics(gauge, setup_runs, peak_rss_mb())
        info["operations"] = tally.attempted
        info["wall_clock"] = wall_clock_figures(gauge)
        return {"tally": tally, "metrics": metrics, "info": info}

    engine = EngineTrace(tracer, [session])

    def traced():
        with engine.active(), engine.operation("join_cycle6.answer",
                                               tally.attempted):
            started = time.perf_counter()
            result = session.answer(query, database)
            latency = time.perf_counter() - started
        engine.record_result(result)
        tally.record(result.rows == expected)
        return latency

    plain_latencies, traced_latencies = alternating_loop(seconds, plain, traced)
    metrics = engine.metrics()
    metrics["trace.overhead_pct"] = overhead_pct(traced_latencies, plain_latencies)
    info["operations"] = len(plain_latencies) + len(traced_latencies)
    return {"tally": tally, "metrics": metrics, "info": info}
