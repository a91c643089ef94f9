"""Shared measurement code for the benchmark workloads.

* :func:`percentile` — nearest-rank percentiles (the value at 1-based rank
  ``ceil(p * n)`` of the sorted sample; no interpolation, so a reported
  percentile is always a latency that some operation actually had);
* :class:`Tally` — attempted / failed operation counts, where a wrong
  answer counts as a failure exactly like an error does;
* :class:`Tracer` — in-memory spans (name, start, end, parent, request id,
  counts) recorded around calls into the program's layers, written out
  once when the run ends, with :func:`self_times` computing each span's
  duration minus the part of its interval that its children cover;
* :func:`instrument` — wraps a module attribute (a layer's public function)
  in a span for the duration of a traced phase, then restores it;
* :class:`PeakWindows` — peak RSS over the measured stretches of a run only;
* :func:`host_slowness` and :class:`SpeedGauge` — how fast the shared host
  runs at the moment, and times converted to reference time with it;
* :func:`environment` — the facts recorded with every run.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field


# ----------------------------------------------------------------------
# Percentiles and summaries
# ----------------------------------------------------------------------
def percentile(samples, fraction: float):
    """Nearest-rank percentile: the smallest sample such that at least
    ``fraction`` of all samples are less than or equal to it.

    (``repro.service.metrics.percentile`` rounds ``fraction * (n - 1)``
    instead, which is not the nearest rank: of four samples it reports the
    third as the p50, where the nearest rank is the second.)"""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def end_to_end_metrics(gauge, setup_runs_s, peak_mb: float) -> dict:
    """The end-to-end metrics every workload reports, in reference time
    (see :class:`SpeedGauge`): from the per-operation latencies and
    measured time held by ``gauge``, the set-up times and the peak RSS of
    the process that did the work."""
    latencies, wall = gauge.reference()
    return {
        "setup_s": statistics.median(setup_runs_s),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "throughput_ops": len(latencies) / wall,
        "peak_rss_mb": peak_mb,
    }


def wall_clock_figures(gauge) -> dict:
    """The same latency figures in wall-clock time, with the host's
    slowness over the run, for the record."""
    latencies, wall = gauge.raw()
    return {
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "throughput_ops": len(latencies) / wall,
        "host_slowness_median": statistics.median(gauge.readings),
        "host_slowness_range": [min(gauge.readings), max(gauge.readings)],
    }


class Stopwatch:
    """A loop's clock, which leaves out the stretches spent in
    :meth:`paused` (untimed checks in the middle of a run)."""

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        self._started = time.perf_counter()
        self._paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self._started - self._paused

    @contextlib.contextmanager
    def paused(self):
        stopped = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - stopped


#: Set-ups per run: at least ``SETUP_REPEATS``, and more, up to
#: ``SETUP_MAX_REPEATS``, until they took ``SETUP_MIN_SECONDS`` in all, so
#: that a set-up of a tenth of a second is not read from three samples.
#: ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15


def timed_setups(build, release=None):
    """Build the workload's state repeatedly (see ``SETUP_REPEATS``),
    timing each.  Every state but the last is dropped — after
    ``release(state)``, if given — before the next is built, so one copy is
    resident at a time.  Returns the last state and the times, in
    reference seconds: each is divided by the mean of the host's
    slowness read just before and just after it (see :class:`SpeedGauge`;
    one set-up is too short to read the host more often)."""
    state, raw, times = None, [], []
    while len(raw) < SETUP_REPEATS or (
        sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS
    ):
        if state is not None and release is not None:
            release(state)
        state = None
        gc.collect()  # the dropped state's garbage, before the clock starts
        before = host_slowness()
        started = time.perf_counter()
        state = build()
        raw.append(time.perf_counter() - started)
        times.append(raw[-1] / ((before + host_slowness()) / 2))
    return state, times


def timed_loop(seconds: float, op, watch: Stopwatch | None = None):
    """Closed loop with one caller: run ``op()`` back to back until
    ``seconds`` have passed on ``watch``.  ``op`` returns its own latency,
    so checks it makes after stopping its clock stay out of the latencies.
    Returns a :class:`SpeedGauge` holding the latencies and the loop's
    elapsed time."""
    watch = watch or Stopwatch()
    gauge = SpeedGauge(watch)
    gc.collect()  # set-up's garbage, before the clock starts
    watch.restart()
    gauge.read()
    while watch.elapsed() < seconds:
        gauge.record(op())
    gauge.finish()
    return gauge


def alternating_loop(seconds: float, plain, traced,
                     watch: Stopwatch | None = None):
    """The traced run's loop: untraced and traced operations alternate, so
    both phases see the same machine state.  Returns both latency lists."""
    watch = watch or Stopwatch()
    plain_latencies, traced_latencies = [], []
    watch.restart()
    while watch.elapsed() < seconds:
        plain_latencies.append(plain())
        traced_latencies.append(traced())
    return plain_latencies, traced_latencies


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Iterations of :func:`reference_loop`'s arithmetic; its object part
#: runs a quarter as many, which takes about as long.
REFERENCE_ITERATIONS = 12_000
#: The time of :func:`reference_loop` that defines reference time: on a
#: host that runs the loop in this many milliseconds, a reference second
#: is a wall-clock second.  (About the loop's time on the 2-vCPU virtual
#: machine the bounds in ``BENCHMARK.json`` were set on.)
REFERENCE_LOOP_MS = 2.0
#: Readings within this many seconds of an operation's end set its slowness.
SPEED_SPAN_S = 1.0


class _Pair:
    __slots__ = ("key", "row")


def reference_loop() -> int:
    """Fixed pure-Python work that shares nothing with the program: half
    integer arithmetic, half allocating small objects and hashing tuples
    into a set.  Either half alone tracked the program's speed less well:
    over fourteen passes of ``plan_corpus`` whose speed varied 1.7x, the
    pass speed over the arithmetic loop's speed spread 0.088 (quartile
    distance over median), over the object loop's 0.082, and over the
    geometric mean of the two 0.038."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    seen = set()
    for i in range(REFERENCE_ITERATIONS // 4):
        pair = _Pair()
        pair.key, pair.row = i, (i, i + 1)
        seen.add(pair.row)
        total += len(pair.row)
    return total + len(seen)


def host_slowness() -> float:
    """How slowly the host runs now: the median of three timings of
    :func:`reference_loop`, over :data:`REFERENCE_LOOP_MS`."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3 / REFERENCE_LOOP_MS


class SpeedGauge:
    """Operation latencies and a loop's elapsed time, in reference time.

    The CPUs of a shared host change speed, all together, by up to about
    1.6x, mostly for minutes at a time but at times within a run, so
    wall-clock figures of runs made minutes apart differ by more than any
    change to the program should.  The program and :func:`reference_loop`
    slow down nearly alike.  So the host's slowness is read every
    :attr:`interval` seconds of a loop, with the clock paused and no
    operation running, and each latency is divided by the median of the
    readings taken within :data:`SPEED_SPAN_S` seconds of its end (a
    single reading is too short to trust alone); the loop's elapsed time
    shrinks or grows with its latencies.  A change to the program moves its
    times as before; the host's speed does not.

    Call :meth:`read` before a loop's first operation, :meth:`record`
    after each operation and :meth:`finish` at the end.
    """

    def __init__(self, watch: Stopwatch, interval: float = 0.5) -> None:
        self.watch = watch
        self.interval = interval
        self.readings: list[float] = []
        self.read_at: list[float] = []
        self.latencies: list[float] = []
        self.ended_at: list[float] = []
        self.elapsed = 0.0

    def read(self) -> None:
        with self.watch.paused():
            self.readings.append(host_slowness())
        self.read_at.append(self.watch.elapsed())

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self.ended_at.append(self.watch.elapsed())
        if self.ended_at[-1] - self.read_at[-1] >= self.interval:
            self.read()

    def finish(self) -> None:
        self.read()
        self.elapsed = self.watch.elapsed()

    def slowness_at(self, moment: float) -> float:
        """The median reading within :data:`SPEED_SPAN_S` of ``moment``."""
        low = bisect.bisect_left(self.read_at, moment - SPEED_SPAN_S)
        high = bisect.bisect_right(self.read_at, moment + SPEED_SPAN_S)
        if low == high:  # no reading that close: take the nearest one
            low = min(max(low - 1, 0), len(self.readings) - 1)
            high = low + 1
        return statistics.median(self.readings[low:high])

    def reference(self):
        """The latencies and the elapsed time, in reference seconds."""
        latencies = [latency / self.slowness_at(moment)
                     for latency, moment in zip(self.latencies, self.ended_at)]
        return latencies, self.elapsed * sum(latencies) / sum(self.latencies)

    def raw(self):
        """The latencies and the elapsed time, in wall-clock seconds."""
        return self.latencies, self.elapsed


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakWindows:
    """Peak RSS over chosen windows of this process's life.

    :meth:`start` resets the kernel's high-water mark (``VmHWM``) to the
    current RSS by writing ``5`` to ``/proc/self/clear_refs``; :meth:`end`
    reads it.  Work between an ``end`` and the next ``start`` — reference
    answers, full-result checks, rebuilding inputs — stays out of
    :attr:`peak_mb`, the largest reading.  Without ``clear_refs`` (not
    Linux, or too old a kernel) every reading is the whole life's peak.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self.resettable = True

    def start(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            self.resettable = False

    def end(self) -> None:
        high_water_mb = peak_rss_mb()
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        high_water_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        self.peak_mb = max(self.peak_mb, high_water_mb)


def ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


def rows_match(expected, actual) -> bool:
    """An answer set is correct only if it equals the reference exactly:
    a missing row, an extra row or a changed value is a failure."""
    return set(map(tuple, actual)) == expected


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: object
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans kept in memory; the innermost open span on the calling thread
    is the parent of a new one, and a span without its own request id
    inherits its parent's."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(len(self.spans), name, parent.id if parent else None,
                        request, 0)
            self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=repr) + "\n")


def self_times(spans) -> dict:
    """Span id -> self time in ns: the span's duration minus the part of its
    interval covered by its direct children (overlapping children are
    merged, and a child reaching outside its parent is clipped)."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
            for child in children.get(span.id, ())
        )
        covered = 0
        current_start = current_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        result[span.id] = span.duration_ns - covered
    return result


@contextlib.contextmanager
def instrument(tracer: Tracer, owner, attribute: str, span_name: str,
               on_result=None):
    """Replace ``owner.attribute`` (a function looked up at call time by the
    program) with a wrapper that records a span around each call; restore
    the original on exit.  ``on_result(span, result)`` may add counts."""
    original = getattr(owner, attribute)
    owned = attribute in vars(owner)

    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as span:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(span, result)
            return result

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        if owned:
            setattr(owner, attribute, original)
        else:  # a bound method found through the class: drop the override
            delattr(owner, attribute)


def overhead_pct(traced_latencies, untraced_latencies) -> float:
    """How much slower the traced phase's median operation was, in percent
    of the untraced phase's median."""
    base = statistics.median(untraced_latencies)
    return (statistics.median(traced_latencies) - base) / base * 100.0


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment(root) -> dict:
    """Facts recorded with every run: source revision (the git commit when
    the checkout has ``.git``, and always a digest of ``src/``), CPUs,
    interpreter, NumPy version and the multiprocessing start method."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "source_sha1": _source_digest(os.path.join(root, "src")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mp_start_method": multiprocessing.get_start_method(allow_none=False),
        "platform": platform.platform(),
    }


def _git_sha(root) -> str | None:
    """The checked-out commit, read from ``.git`` without running git; a
    checkout exported without ``.git`` has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest(source) -> str:
    digest = hashlib.sha1()
    for directory, subdirectories, files in sorted(os.walk(source)):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()
