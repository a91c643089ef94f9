"""Tests of the benchmark harness itself: percentiles, self time, output
checks and the workloads' reference answers.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
import ingest_reference  # noqa: E402
import ingest_refresh  # noqa: E402
import join_cycle6  # noqa: E402
import serve_mixed  # noqa: E402
from harness import Span, Tally, percentile, rows_match, self_times  # noqa: E402

from repro.cq.generators import random_database  # noqa: E402
from repro.cq.homomorphism import naive_enumerate_answers  # noqa: E402
from repro.cq.database import Database, Relation  # noqa: E402


class TestNearestRankPercentile:
    def test_textbook_example(self):
        samples = [15, 20, 35, 40, 50]
        assert percentile(samples, 0.05) == 15
        assert percentile(samples, 0.30) == 20
        assert percentile(samples, 0.40) == 20
        assert percentile(samples, 0.50) == 35
        assert percentile(samples, 1.00) == 50

    def test_rank_is_ceiling_of_fraction_times_count(self):
        samples = list(range(1, 101))
        random.Random(0).shuffle(samples)
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.90) == 90
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 0.991) == 100

    def test_returns_a_sample_never_an_interpolation(self):
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0], 0.51) == 2.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


def _span(id_, parent, start, end, name="s"):
    return Span(id_, name, parent, None, start, end)


class TestSelfTime:
    def test_subtracts_children(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 10, 30), _span(2, 0, 40, 70)]
        assert self_times(spans) == {0: 50, 1: 20, 2: 30}

    def test_overlapping_children_count_once(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 10, 30), _span(2, 0, 20, 50)]
        assert self_times(spans)[0] == 60

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 90, 130)]
        assert self_times(spans)[0] == 90

    def test_grandchildren_count_against_their_own_parent(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 10, 60),
                 _span(2, 1, 20, 40)]
        assert self_times(spans) == {0: 50, 1: 30, 2: 20}

    def test_tracer_nests_spans_and_inherits_request_ids(self):
        tracer = harness.Tracer()
        with tracer.span("outer", request=7):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert inner.parent == outer.id and inner.request == 7
        assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
        assert self_times(tracer.spans)[outer.id] == (
            outer.duration_ns - inner.duration_ns
        )


class TestTimedSetups:
    def test_cheap_set_ups_repeat_and_all_but_the_last_are_released(self):
        built, released = [], []

        def build():
            built.append(len(built))
            return built[-1]

        state, times = harness.timed_setups(build, released.append)
        assert len(times) == len(built) == harness.SETUP_MAX_REPEATS
        assert state == built[-1] and released == built[:-1]

    def test_slow_set_ups_stop_at_the_minimum(self, monkeypatch):
        monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.0)
        _, times = harness.timed_setups(lambda: None)
        assert len(times) == harness.SETUP_REPEATS


class TestSpeedGauge:
    def test_latencies_are_divided_by_the_median_reading_near_them(
        self, monkeypatch
    ):
        monkeypatch.setattr(harness, "SPEED_SPAN_S", 2.0)
        gauge = harness.SpeedGauge(harness.Stopwatch())
        gauge.readings = [1.0, 3.0, 2.0, 4.0, 4.0]
        gauge.read_at = [0.0, 1.0, 2.0, 10.0, 11.0]
        gauge.latencies = [0.2, 0.4, 0.8]
        gauge.ended_at = [1.5, 10.5, 30.0]
        gauge.elapsed = 2.8
        latencies, elapsed = gauge.reference()
        # near 1.5 s: readings 1, 3, 2; near 10.5 s: 4, 4; at 30 s none
        # is near, so the last one
        assert latencies == pytest.approx([0.1, 0.1, 0.2])
        assert elapsed == pytest.approx(2.8 * 0.4 / 1.4)
        assert gauge.raw() == ([0.2, 0.4, 0.8], 2.8)

    def test_a_loop_reads_at_its_ends_and_every_interval(self):
        watch = harness.Stopwatch()
        gauge = harness.SpeedGauge(watch, interval=0.0)
        gauge.read()
        for latency in (0.1, 0.2, 0.3):
            gauge.record(latency)
        gauge.finish()
        assert gauge.latencies == [0.1, 0.2, 0.3]
        assert len(gauge.readings) == len(gauge.read_at) == 5
        assert 0 < gauge.elapsed < 0.1

    def test_readings_stay_off_the_watch(self):
        watch = harness.Stopwatch()
        gauge = harness.SpeedGauge(watch)
        before = watch.elapsed()
        for _ in range(20):
            gauge.read()
        assert watch.elapsed() - before < 0.005
        assert all(reading > 0 for reading in gauge.readings)


class TestPeakWindows:
    def test_a_window_leaves_out_what_came_before_it(self):
        with_ballast = harness.PeakWindows()
        with_ballast.start()
        if not with_ballast.resettable:
            pytest.skip("no /proc/self/clear_refs")
        ballast = b"x" * (64 << 20)
        del ballast
        with_ballast.end()
        after = harness.PeakWindows()
        after.start()
        after.end()
        assert after.peak_mb < with_ballast.peak_mb - 32


class TestOutputCheck:
    expected = {(1,), (2,), (3,)}

    def test_dropping_one_row_fails_the_operation(self):
        tally = Tally()
        tally.record(rows_match(self.expected, [[1], [2], [3]]))
        tally.record(rows_match(self.expected, [[1], [2]]))
        assert (tally.attempted, tally.failed) == (2, 1)

    def test_served_answer_with_a_dropped_row_fails(self):
        inputs = SimpleNamespace(pairs=[(0, 0), (0, 1), (0, 3)])
        expected = [self.expected]

        def record(pair, payload, status=200):
            return (pair, status, json.dumps(payload).encode(), 0.001, False)

        check = serve_mixed.response_ok
        assert check(inputs, expected, record(0, {"rows": [[3], [1], [2]]}))
        assert not check(inputs, expected, record(0, {"rows": [[1], [2]]}))
        assert check(inputs, expected, record(1, {"value": 3}))
        assert not check(inputs, expected, record(1, {"value": 2}))
        assert check(inputs, expected, record(2, {"value": True}))
        assert not check(inputs, expected, record(0, {"error": "x"}, 503))


class TestReferenceAnswers:
    def test_closed_walks_match_the_naive_solver(self):
        query = join_cycle6.cycle_query(join_cycle6.CYCLE).project(["x0"])
        for seed in range(3):
            database = random_database(query, 5, 6, seed=seed)
            assert join_cycle6.closed_walk_answers(query, database) == (
                naive_enumerate_answers(query, database)
            )

    def test_every_seed_renames_one_instance(self):
        (query, first), (_, second) = (join_cycle6.instance(seed)
                                       for seed in (1, 2))
        assert first != second
        for name, relation in first.relations.items():
            assert len(relation) == len(second.relation(name))
        assert len(join_cycle6.closed_walk_answers(query, first)) == len(
            join_cycle6.closed_walk_answers(query, second))

    def test_two_path_reference_matches_the_naive_solver(self):
        rng = random.Random(1)
        edges = {(rng.randrange(30), rng.randrange(30)) for _ in range(60)}
        reference = ingest_reference.TwoPathReference(sorted(edges)[:40])
        for edge in sorted(edges)[40:]:
            reference.add(edge)
        database = Database([Relation("E", 2, edges)])
        query = ingest_refresh.two_path_query()
        assert reference.pairs == naive_enumerate_answers(query, database)

    def test_checksum_tracks_the_pairs_and_misses_no_dropped_row(self):
        rng = random.Random(2)
        edges = {(rng.randrange(30), rng.randrange(30)) for _ in range(60)}
        reference = ingest_reference.TwoPathReference(sorted(edges))
        pairs = reference.pairs
        assert reference.checksum == ingest_reference.checksum(pairs)
        for pair in sorted(pairs)[:5]:
            assert ingest_reference.checksum(pairs - {pair}) != reference.checksum
