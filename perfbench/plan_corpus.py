"""Workload ``plan_corpus``: the paper's corpus, planned cold.

The stream is the Table 1 corpus — :func:`repro.benchdata.generate_corpus`
with corpus seed 2022, as ``benchmarks/bench_table1_hyperbench.py`` uses
it — at scale 0.7: 770 structures (degree-2 jigsaws and thickened jigsaws,
duals of random graphs and partial k-trees, hyper-cycles, chains, plus
non-degree-2 stars and acyclic hypergraphs), 283 of them distinct, which
is more than the 256-entry analysis cache holds; repeats are served by the
512-entry plan cache.  Each structure becomes a query
(:func:`~repro.cq.generators.query_from_hypergraph`) over a planted
database with one row per relation, and each query gets ``is_satisfiable``
once, in stream order, through one session.  Analysis — GYO plus the
Lemma 4.6 ghw search — dominates; the kernel does almost nothing.

Every pass starts cold on purpose (a fresh session, and the databases'
columnar views dropped), because every new structure pays cold planning.
The run's ``--seed`` draws the planted rows.  The corpus and its stream
order are fixed, like the HyperBench corpus it stands in for: drawing a
new corpus per seed moved the median latency between 1.4 and 2.1 ms over
five seeds at scale 1.0, a spread no affordable run length averages out,
and the order decides which structures the analysis cache still holds
when they come again.

The reference answers come from the naive solver.
"""

from __future__ import annotations

import gc
import random
import time

from engine_layers import EngineTrace
from harness import SpeedGauge, Stopwatch, Tally, end_to_end_metrics, \
    overhead_pct, peak_rss_mb, timed_setups, wall_clock_figures

from repro.benchdata import generate_corpus
from repro.cq.generators import planted_database, query_from_hypergraph
from repro.cq.homomorphism import naive_boolean_answer
from repro.engine import EngineSession

CORPUS_SEED = 2022
SCALE = 0.7
DOMAIN = 8


def build(seed: int) -> list:
    """The stream of ``(family, query, database)``, in a fixed shuffled
    order, with planted rows drawn from ``seed``."""
    corpus = generate_corpus(seed=CORPUS_SEED, scale=SCALE)
    random.Random(f"plan_corpus|{CORPUS_SEED}").shuffle(corpus)
    rng = random.Random(f"plan_corpus|{seed}")
    stream = []
    for entry in corpus:
        query = query_from_hypergraph(entry.hypergraph)
        database = planted_database(query, DOMAIN, 0, seed=rng)
        stream.append((entry.family, query, database))
    return stream


def _cold(stream) -> EngineSession:
    for _, _, database in stream:
        database.drop_columnar()
        database.drop_statistics()
    return EngineSession()


def run(seed: int, seconds: float, tracer) -> dict:
    stream, setup_runs = timed_setups(lambda: build(seed))
    expected = [naive_boolean_answer(query, db) for _, query, db in stream]
    tally = Tally()

    def one_pass(session, engine=None, gauge=None) -> list:
        latencies = []
        for index, ((_, query, database), answer) in enumerate(
            zip(stream, expected)
        ):
            if engine is None:
                started = time.perf_counter()
                result = session.is_satisfiable(query, database)
                latencies.append(time.perf_counter() - started)
                if gauge is not None:
                    gauge.record(latencies[-1])
            else:
                with engine.operation("plan_corpus.is_satisfiable", index):
                    started = time.perf_counter()
                    result = session.is_satisfiable(query, database)
                    latencies.append(time.perf_counter() - started)
                engine.record_result(result)
            tally.record(result.value == answer)
        return latencies

    info = {
        "corpus": f"generate_corpus(seed={CORPUS_SEED}, scale={SCALE})",
        "structures": len(stream),
        "distinct_structures": len({query for _, query, _ in stream}),
        "families": sorted({family for family, _, _ in stream}),
        "database": f"planted_database(domain={DOMAIN}, one row per relation)",
        "clients": 1,
        "loop": "closed",
    }
    if tracer is None:
        # Whole passes only; another one starts while it should end in time.
        watch = Stopwatch()
        gauge = SpeedGauge(watch)
        passes, last = 0, 0.0
        gauge.read()
        while not passes or watch.elapsed() + last <= seconds:
            with watch.paused():
                # Free the previous pass's session and collect its garbage
                # now, not at some point of this pass.
                session = None
                gc.collect()
                session = _cold(stream)
            started = watch.elapsed()
            one_pass(session, gauge=gauge)
            last = watch.elapsed() - started
            passes += 1
        gauge.finish()
        metrics = end_to_end_metrics(gauge, setup_runs, peak_rss_mb())
        info["passes"] = passes
        info["wall_clock"] = wall_clock_figures(gauge)
        return {"tally": tally, "metrics": metrics, "info": info}

    # Untraced and traced passes alternate, a pair at a time, by the same
    # rule as above; at least one pair.
    plain_latencies, traced_latencies = [], []
    engine = EngineTrace(tracer, [])
    wall, last = 0.0, 0.0
    while not traced_latencies or wall + last <= seconds:
        started = time.perf_counter()
        plain_latencies += one_pass(_cold(stream))
        session = _cold(stream)
        engine.sessions.append(session)
        with engine.active():
            traced_latencies += one_pass(session, engine)
        last = time.perf_counter() - started
        wall += last
    metrics = engine.metrics()
    metrics["trace.overhead_pct"] = overhead_pct(traced_latencies, plain_latencies)
    info["passes"] = 2 * len(engine.sessions)
    return {"tally": tally, "metrics": metrics, "info": info}
