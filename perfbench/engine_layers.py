"""Per-layer attribution of engine work during a traced phase.

:class:`EngineTrace` wraps the public functions of each engine layer that
the program looks up at call time — session planning, the structural
analysis (GYO) and the ghw decomposition search, columnar bag
materialisation, the Yannakakis semijoin reduction and join pass, and the
id→value decode — in spans of the run's :class:`~harness.Tracer`, and
snapshots the program's own counters (plan and analysis caches, columnar
memos, the join-estimate ledger) around the phase.  No program code
changes: the wrappers live here and are removed when the phase ends.

:meth:`EngineTrace.metrics` turns the spans and counter movement into the
engine-side per-layer metrics.  A layer the workload never reached reports
``0``.
"""

from __future__ import annotations

import contextlib
import math
import statistics

from harness import Tracer, instrument, ratio, self_times

from repro.cq import columnar, yannakakis
from repro.cq.statistics import ledger_snapshot, recent_estimates
from repro.engine import analysis


def _count_rows(span, relations) -> None:
    span.counts["rows"] = sum(len(r) for r in relations.values())


def _count_tree_rows(span, tree) -> None:
    _count_rows(span, tree.relations)


class EngineTrace:
    """Instrument the engine layers of ``sessions`` while :meth:`active`;
    counter movement accumulates over every activation."""

    def __init__(self, tracer: Tracer, sessions) -> None:
        self.tracer = tracer
        self.sessions = list(sessions)
        self.results: list = []
        self.estimate_errors: list = []
        self._moved: dict = {}

    def _counters(self) -> dict:
        plan_hits = plan_misses = analysis_hits = analysis_misses = 0
        for session in self.sessions:
            plan = session.plan_cache.info()
            cache = session.cache.info()
            plan_hits += plan["hits"]
            plan_misses += plan["misses"]
            analysis_hits += cache["hits"]
            analysis_misses += cache["misses"]
        memo = columnar.memo_counters()
        return {
            "plan_hits": plan_hits,
            "plan_misses": plan_misses,
            "analysis_hits": analysis_hits,
            "analysis_misses": analysis_misses,
            "memo_hits": memo["hits"],
            "memo_misses": memo["misses"],
        }

    @contextlib.contextmanager
    def active(self):
        tracer = self.tracer
        with contextlib.ExitStack() as stack:
            for session in self.sessions:
                stack.enter_context(
                    instrument(tracer, session, "plan", "engine.planner.plan")
                )
            stack.enter_context(instrument(
                tracer, analysis, "QueryAnalysis", "engine.analysis.gyo"))
            stack.enter_context(instrument(
                tracer, analysis, "ghw_upper_bound", "widths.ghw.search"))
            stack.enter_context(instrument(
                tracer, columnar, "build_columnar_bag_tree", "cq.columnar.bags",
                on_result=_count_tree_rows))
            stack.enter_context(instrument(
                tracer, columnar, "yannakakis_full", "cq.yannakakis.full"))
            stack.enter_context(instrument(
                tracer, yannakakis, "semijoin_reduce", "cq.yannakakis.reduce",
                on_result=_count_rows))
            stack.enter_context(instrument(
                tracer, columnar.ColumnarRelation, "decode_rows",
                "cq.columnar.decode"))
            before = self._counters()
            try:
                yield self
            finally:
                for key, value in self._counters().items():
                    self._moved[key] = self._moved.get(key, 0) + value - before[key]

    @contextlib.contextmanager
    def operation(self, name: str, request):
        """A root span around one operation; join-size estimates the
        operation recorded are collected for the estimate-error metric."""
        joins_before = ledger_snapshot()["cost_joins"]
        with self.tracer.span(name, request=request) as span:
            yield span
        joins = ledger_snapshot()["cost_joins"] - joins_before
        if joins:
            for estimated, actual in recent_estimates()[-joins:]:
                self.estimate_errors.append(
                    abs(math.log((estimated + 1) / (actual + 1)))
                )

    def record_result(self, result) -> None:
        """Keep an engine result's own timings for the session metrics."""
        self.results.append(result.timings)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        tracer = self.tracer
        own = self_times(tracer.spans)

        def median_ns(name, self_time=False, where=None):
            values = [
                own[span.id] if self_time else span.duration_ns
                for span in tracer.named(name)
                if where is None or where(span)
            ]
            return statistics.median(values) if values else 0.0

        def median_count(name):
            values = [span.counts["rows"] for span in tracer.named(name)]
            return statistics.median(values) if values else 0

        analysed = {
            span.parent for span in tracer.named("engine.analysis.gyo")
        }
        searched = len(tracer.named("widths.ghw.search"))
        gyo = len(tracer.named("engine.analysis.gyo"))
        moved = dict.fromkeys(self._counters(), 0)
        moved.update(self._moved)
        timings = self.results
        return {
            "engine.session.total_p50_ms": (
                statistics.median(t["total_seconds"] for t in timings) * 1e3
                if timings else 0.0
            ),
            "engine.session.planning_p50_us": (
                statistics.median(t["planning_seconds"] for t in timings) * 1e6
                if timings else 0.0
            ),
            "engine.execute_us": (
                statistics.median(
                    t["total_seconds"] - t["planning_seconds"] for t in timings
                ) * 1e6
                if timings else 0.0
            ),
            "engine.session.plan_cache_hit_ratio": ratio(
                moved["plan_hits"], moved["plan_hits"] + moved["plan_misses"]
            ),
            "engine.analysis.cache_hit_ratio": ratio(
                moved["analysis_hits"],
                moved["analysis_hits"] + moved["analysis_misses"],
            ),
            "engine.planner.warm_plan_us": median_ns(
                "engine.planner.plan", where=lambda s: s.id not in analysed
            ) / 1e3,
            "engine.planner.dispatch_us": median_ns(
                "engine.planner.plan", self_time=True,
                where=lambda s: s.id in analysed,
            ) / 1e3,
            "engine.analysis.gyo_us": median_ns("engine.analysis.gyo") / 1e3,
            "widths.ghw.search_ms": median_ns("widths.ghw.search") / 1e6,
            "widths.ghw.searched_share": ratio(searched, gyo),
            "cq.columnar.bags_ms": median_ns("cq.columnar.bags") / 1e6,
            "cq.columnar.bag_rows": median_count("cq.columnar.bags"),
            "cq.yannakakis.reduce_ms": median_ns("cq.yannakakis.reduce") / 1e6,
            "cq.yannakakis.rows_after_reduce": median_count(
                "cq.yannakakis.reduce"
            ),
            "cq.yannakakis.join_ms": median_ns(
                "cq.yannakakis.full", self_time=True
            ) / 1e6,
            "cq.columnar.decode_us": median_ns("cq.columnar.decode") / 1e3,
            "cq.columnar.memo_hit_ratio": ratio(
                moved["memo_hits"], moved["memo_hits"] + moved["memo_misses"]
            ),
            "cq.statistics.estimate_log_error_p50": (
                statistics.median(self.estimate_errors)
                if self.estimate_errors else 0.0
            ),
        }
