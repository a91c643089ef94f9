"""Workload ``serve_mixed``: the HTTP service under a closed-loop load.

The service runs in its own process (:mod:`server`); this process is the
load: one client on one keep-alive connection, sending its next request
only when the previous answer arrived.  The load process and the service
are pinned to one CPU, where they take turns: with a CPU each, every
request woke the other CPU and back, and on a shared host that cost
drifted over minutes, independently of the program (see the README's
notes on this workload).  The requests are the 184 queries of
``workloads.mixed_batch(seed=0, size="small", copies=2)`` — every regime;
see :data:`server.BATCH` for why its seed is fixed — each under four
request kinds: answer, count, count with ``shards=2`` and is_satisfiable,
in an order drawn from the run's seed.  Request bodies are encoded before
the clock starts, so client-side JSON work stays out of the latencies.

This is the only workload where ``repro.service`` and the session plan
cache carry the cost; joins are negligible, so a kernel change should show
no gain here, and per-call overhead on tiny relations would show as a
regression.  The working set fits every engine cache (736 request pairs
over 184 queries: plan cache 512, analysis cache 256, one dataset's
columnar views), and set-up sends every (query, kind) pair once, so the
timed requests run warm.

Every response is checked after the run against the naive solver's
answers.  The traced run alternates untraced and traced requests and adds,
on the load side, a span per traced request and a replay of every captured
request through the service's own layer functions (HTTP parse, JSON
decode, the engine call, encode) in this process, and reads the server's
``/stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import time

from engine_layers import EngineTrace
from harness import Tally, Tracer, alternating_loop, end_to_end_metrics, \
    overhead_pct, percentile, ratio, rows_match, timed_loop, timed_setups, \
    wall_clock_figures

from server import BATCH

from repro.cq import workloads
from repro.cq.homomorphism import naive_enumerate_answers
from repro.engine import EngineSession
from repro.service.codec import query_from_json, query_to_json, result_to_json
from repro.service.http import Response, read_request

HERE = os.path.dirname(os.path.abspath(__file__))
#: The one CPU of the load process and the service.
CPU = {min(os.sched_getaffinity(0))}
#: (endpoint, extra request fields)
KINDS = (
    ("answer", {}),
    ("count", {}),
    ("count", {"shards": 2}),
    ("is_satisfiable", {}),
)
MAX_BODY = 8 * 1024 * 1024


class Server:
    """The service process: started, then stopped by closing its input."""

    def __init__(self, trace: bool) -> None:
        command = [sys.executable, os.path.join(HERE, "server.py")]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        os.sched_setaffinity(self.process.pid, CPU)
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=60)
            raise RuntimeError("the service process exited before serving")
        self.port = json.loads(line)["port"]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> dict:
        """Stop the service; returns its final report."""
        try:
            output, _ = self.process.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        return json.loads(output.strip().splitlines()[-1])


class Inputs:
    """The request stream: every (query, kind) pair, encoded once."""

    def __init__(self, seed: int) -> None:
        self.queries, self.database = workloads.mixed_batch(**BATCH)
        self.pairs = [
            (index, kind)
            for index in range(len(self.queries))
            for kind in range(len(KINDS))
        ]
        random.Random(f"serve_mixed|{seed}").shuffle(self.pairs)
        self.requests = []
        for index, kind in self.pairs:
            endpoint, fields = KINDS[kind]
            payload = {"query": query_to_json(self.queries[index]),
                       "dataset": "bench", **fields}
            self.requests.append(
                (f"/{endpoint}", json.dumps(payload).encode("utf-8"))
            )


class Client:
    """The load: one connection, sending the requests in turn and keeping
    a record ``(pair, status, body, latency, traced)`` of each."""

    def __init__(self, server: Server, inputs: Inputs) -> None:
        self.connection = server.connect()
        self.requests = inputs.requests
        self.position = 0
        self.records: list = []

    def send(self, tracer=None) -> float:
        """Send the next request; returns its latency.  With a tracer, the
        request is recorded in a span."""
        pair = self.position % len(self.requests)
        self.position += 1
        path, body = self.requests[pair]
        spanned = (tracer.span("service.request", request=pair) if tracer
                   else contextlib.nullcontext())
        started = time.perf_counter()
        with spanned as span:
            self.connection.request("POST", path, body=body, headers={
                "Content-Type": "application/json"})
            response = self.connection.getresponse()
            status, answer = response.status, response.read()
            if span is not None:
                span.counts["status"] = status
        latency = time.perf_counter() - started
        self.records.append((pair, status, answer, latency, tracer is not None))
        return latency

    def close(self) -> None:
        self.connection.close()


def expected_answers(inputs: Inputs) -> list:
    return [naive_enumerate_answers(query, inputs.database)
            for query in inputs.queries]


def response_ok(inputs: Inputs, expected: list, record) -> bool:
    pair, status, body = record[:3]
    if status != 200:
        return False
    index, kind = inputs.pairs[pair]
    answer = json.loads(body)
    endpoint = KINDS[kind][0]
    if endpoint == "answer":
        return rows_match(expected[index], answer["rows"])
    if endpoint == "count":
        return answer["value"] == len(expected[index])
    return answer["value"] == bool(expected[index])


def setup(seed: int, trace: bool):
    """Start the service and send every (query, kind) pair once."""
    inputs = Inputs(seed)
    server = Server(trace)
    try:
        warm = Client(server, inputs)
        try:
            for _ in inputs.requests:
                warm.send()
        finally:
            warm.close()
    except BaseException:
        server.stop()
        raise
    return inputs, server


def run(seed: int, seconds: float, tracer) -> dict:
    os.sched_setaffinity(0, CPU)
    (inputs, server), setup_runs = timed_setups(
        lambda: setup(seed, tracer is not None),
        release=lambda state: state[1].stop(),
    )
    client = None
    try:
        expected = expected_answers(inputs)
        client = Client(server, inputs)
        before = server.stats()
        if tracer is None:
            gauge = timed_loop(seconds, client.send)
        else:
            alternating_loop(seconds, client.send,
                             lambda: client.send(tracer))
        after = server.stats()
    finally:
        if client is not None:
            client.close()
        report = server.stop()
    records = client.records
    tally = Tally()
    for record in records:
        tally.record(response_ok(inputs, expected, record))
    plain = [record[3] for record in records if not record[4]]
    info = {
        "batch": "mixed_batch({})".format(
            ", ".join(f"{key}={value}" for key, value in BATCH.items())),
        "request_order_seed": seed,
        "queries": len(inputs.queries),
        "request_pairs": len(inputs.pairs),
        "stored_tuples": inputs.database.total_tuples(),
        "clients": 1,
        "connections": 1,
        "loop": "closed",
        "server": "separate process, default ServiceConfig, thread "
                  "runtime for shards=2",
        "cpus": {"load": sorted(CPU), "server": sorted(CPU)},
        "operations": len(records),
        "latency_samples": len(plain),
    }
    if tracer is None:
        metrics = end_to_end_metrics(gauge, setup_runs, report["peak_rss_mb"])
        # Only this workload runs the 1000+ operations a p99 needs, so it is
        # recorded here rather than declared as a metric of every workload.
        info["latency_p99_ms"] = percentile(gauge.reference()[0], 0.99) * 1e3
        info["wall_clock"] = wall_clock_figures(gauge)
        return {"tally": tally, "metrics": metrics, "info": info}

    metrics = replay(inputs, tracer)
    traced = [record[3] for record in records if record[4]]
    ok = [json.loads(record[2]) for record in records if record[1] == 200]
    timings = [answer["timings"] for answer in ok]
    dispatch_ms = after["service"]["latency"]["p50_seconds"] * 1e3

    def hit_ratio(cache: str) -> float:
        """Hits per lookup of a session cache during the timed requests."""
        def total(stats, field):
            return sum(t[cache][field] for t in stats["tenants"].values())
        hits = total(after, "hits") - total(before, "hits")
        misses = total(after, "misses") - total(before, "misses")
        return ratio(hits, hits + misses)

    metrics.update({
        "service.dispatch_p50_ms": dispatch_ms,
        "service.outside_dispatch_p50_ms": percentile(plain, 0.50) * 1e3 - dispatch_ms,
        "engine.session.total_p50_ms": statistics.median(
            t["total_seconds"] for t in timings) * 1e3,
        "engine.session.planning_p50_us": statistics.median(
            t["planning_seconds"] for t in timings) * 1e6,
        "engine.execute_us": statistics.median(
            t["total_seconds"] - t["planning_seconds"] for t in timings) * 1e6,
        "engine.session.plan_cache_hit_ratio": hit_ratio("plan_cache"),
        "engine.sharding.partition_cache_hit_ratio": hit_ratio("partition_cache"),
        "service.admission.queued_peak": report["queued_peak"],
        "service.admission.shed": (
            after["admission"]["shed"] - before["admission"]["shed"]
        ),
        "trace.overhead_pct": overhead_pct(traced, plain),
    })
    return {"tally": tally, "metrics": metrics, "info": info}


def replay(inputs: Inputs, tracer) -> dict:
    """Send every captured request through the service's layer functions in
    this process — HTTP parse, JSON decode, the engine call on a warm local
    session over the same dataset, encode — and attribute the time."""
    session = EngineSession()
    database = inputs.database
    database.enable_atom_cache()  # as the service's register_dataset does
    raw = [
        (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         f"Content-Type: application/json\r\nContent-Length: {len(body)}"
         "\r\n\r\n").encode("ascii") + body
        for path, body in inputs.requests
    ]

    async def serve_one(pair: int, tracer) -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(raw[pair])
        reader.feed_eof()
        with tracer.span("service.http.parse"):
            request = await read_request(reader, MAX_BODY)
        with tracer.span("service.codec.decode"):
            payload = json.loads(request.body)
            query = query_from_json(payload["query"])
        method = getattr(session, request.path.lstrip("/"))
        with tracer.span("service.engine"):
            result = method(query, database, shards=payload.get("shards", 1))
        with tracer.span("service.codec.encode"):
            Response(200, result_to_json(result)).encode(True)

    async def replay_all(engine: EngineTrace | None) -> None:
        for pair in range(len(raw)):
            if engine is None:
                await serve_one(pair, Tracer())
                continue
            with engine.operation("service.replay", f"replay-{pair}"):
                await serve_one(pair, tracer)

    asyncio.run(replay_all(None))  # warm the local session first
    engine = EngineTrace(tracer, [session])
    with engine.active():
        asyncio.run(replay_all(engine))
    metrics = engine.metrics()
    for name in ("service.http.parse", "service.codec.decode",
                 "service.codec.encode"):
        metrics[name + "_us"] = statistics.median(
            span.duration_ns for span in tracer.named(name)) / 1e3
    return metrics
