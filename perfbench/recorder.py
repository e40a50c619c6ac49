"""In-memory recorders: host speed, per-operation timings and spans.

:class:`Calibration` times a fixed probe between operations, so wall
times can be scaled to the host's uncontended speed.

:class:`OpRecorder` is installed in every run.  It wraps the strategies'
``retrieve``/``update`` and the sweep's ``execute_point``, so it knows
which point is running and times each operation at the strategy
boundary.  Only the outermost strategy call counts: SMART answers low
NumTop queries by calling DFSCACHE, and timing that nested call as well
would count the operation twice.

:class:`SpanRecorder` is installed in traced runs only.  A span is a
name, a start and an end (``perf_counter_ns``), the span that was open
when it started, and the point and operation it ran under.  Spans are
aggregated as they close: per name the call count, the inclusive time
(outermost span of that name only, so recursion is not counted twice)
and the self time (the span minus the time its child spans cover).
Full records are kept for the first ``max_records`` spans and written
out at the end.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: Wall seconds the calibration probe takes on this class of machine when
#: nothing else runs on its core.  Normalised times are wall times scaled
#: to that speed.
PROBE_REFERENCE_S = 0.5e-3
#: A probe runs after the first operation that ends this long after the
#: previous probe started.
PROBE_EVERY_S = 0.05


def _probe_work() -> int:
    """A fixed slice of interpreter work (dicts, tuples, a sort).

    It lives in the benchmark, not the engine, so making the engine
    faster never makes the probe faster.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        item = (i, key, acc)
        acc += item[1]
    sorted(table.values())
    return acc


class Calibration:
    """Tracks the host's speed with a probe interleaved with the work.

    The benchmark shares a virtual machine's cores with other tenants,
    and their load swings the speed of the same Python code by up to 2x
    within seconds.  The probe is timed every ``PROBE_EVERY_S`` while the
    workload runs; each stretch of the workload's wall time is divided
    by the local slow-down of the probe (the median of the nearest four
    probes over ``PROBE_REFERENCE_S``).  The result reads as wall time on
    the uncontended machine, and moves with the engine's own cost.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.seconds: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def maybe_probe(self, now: float) -> None:
        if not self.starts or now - self.starts[-1] >= PROBE_EVERY_S:
            self.probe()

    def slowdown(self, t: float) -> float:
        """The host's slow-down around time ``t`` (1.0 = reference)."""
        i = bisect.bisect_left(self.starts, t)
        near = self.seconds[max(0, i - 2):i + 2]
        return statistics.median(near) / PROBE_REFERENCE_S if near else 1.0

    def normalize(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval [start, end],
        leaving out the probes' own time."""
        total = 0.0
        cursor = start
        i = bisect.bisect_left(self.starts, start)
        while cursor < end:
            gap_end = min(end, self.starts[i]) if i < len(self.starts) else end
            if gap_end > cursor:
                total += (gap_end - cursor) / self.slowdown((cursor + gap_end) / 2)
            if i >= len(self.starts) or self.starts[i] >= end:
                break
            cursor = self.ends[i]
            i += 1
        return total


def _digest(keys: List[int]) -> str:
    return hashlib.blake2b(array("q", keys).tobytes(), digest_size=8).hexdigest()


def answer_digests(values: List[Any], multiset: bool, as_set: bool) -> tuple:
    """Order-free digests of a retrieve's answer, as a multiset and as a set
    (each only when asked for; None otherwise)."""
    ordered = sorted(values)
    return (
        _digest(ordered) if multiset else None,
        _digest(list(dict.fromkeys(ordered))) if as_set else None,
    )


class SpanRecorder:
    """Stack of open spans plus per-name aggregates."""

    def __init__(self, max_records: int = 100_000) -> None:
        #: Open spans: [name, start_ns, child_ns, record_index].
        self.stack: List[list] = []
        #: name -> [calls, self_ns, inclusive_ns]
        self.stats: Dict[str, List[int]] = {}
        #: name -> open spans of that name (for the inclusive rule).
        self.active: Dict[str, int] = {}
        #: name -> extra work counts (records yielded, keys probed, ...).
        self.counts: Dict[str, int] = {}
        #: name -> inclusive durations (ns), kept for percentiles.
        self.durations: Dict[str, List[int]] = {}
        self.keep_durations = {"pool.point", "snapshot.attach"}
        self.records: List[list] = []
        self.max_records = max_records
        self.dropped = 0
        self.point = -1
        self.op = -1

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1

    def enter(self, name: str) -> list:
        stack = self.stack
        index = -1
        if len(self.records) < self.max_records:
            index = len(self.records)
            parent = stack[-1][3] if stack else -1
            self.records.append([name, 0, 0, parent, self.point, self.op])
        else:
            self.dropped += 1
        self.active[name] = self.active.get(name, 0) + 1
        frame = [name, _now(), 0, index]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        stack = self.stack
        stack.pop()  # wrappers exit in try/finally, so spans close LIFO
        name, start, child, index = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[1] += duration - child
        depth = self.active[name] - 1
        self.active[name] = depth
        if depth == 0:
            stat[2] += duration
        if name in self.keep_durations:
            self.durations.setdefault(name, []).append(duration)
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            record = self.records[index]
            record[1] = start
            record[2] = end

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span per call."""
        enter, exit_, calls = self.enter, self.exit, self.calls

        def wrapper(*args, **kwargs):
            calls(name)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def wrap_iter(self, name: str, fn: Callable, count: Optional[str] = None) -> Callable:
        """``fn`` returning an iterator, timed over its iteration.

        Each ``next`` is one span of ``name``, so the time the consumer
        spends between items is not charged to the generator, and work
        the generator pulls from another wrapped iterator nests below
        it.  ``count`` names a counter bumped once per item yielded.
        """
        enter, exit_, calls = self.enter, self.exit, self.calls
        counts = self.counts

        def wrapper(*args, **kwargs):
            calls(name)
            frame = enter(name)
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                exit_(frame)
            return _TimedIterator(inner, name, enter, exit_, counts, count)

        return wrapper

    # ------------------------------------------------------------------
    def self_ns(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[1] if stat else 0

    def inclusive_ns(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[2] if stat else 0

    def num_calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        self.stats.clear()
        self.counts.clear()
        self.durations.clear()
        self.records.clear()
        self.dropped = 0

    def write(self, path: str) -> None:
        """Span records as JSON lines, then one line of per-name totals."""
        with open(path, "w") as handle:
            for name, start, end, parent, point, op in self.records:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "point": point, "op": op},
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
            handle.write(
                json.dumps(
                    {"totals": {n: {"calls": s[0], "self_ns": s[1], "incl_ns": s[2]}
                                for n, s in sorted(self.stats.items())},
                     "dropped_records": self.dropped},
                    separators=(",", ":"),
                )
            )
            handle.write("\n")


class _TimedIterator:
    __slots__ = ("_inner", "_name", "_enter", "_exit", "_counts", "_count")

    def __init__(self, inner, name, enter, exit_, counts, count) -> None:
        self._inner = inner
        self._name = name
        self._enter = enter
        self._exit = exit_
        self._counts = counts
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._enter(self._name)
        try:
            item = next(self._inner)
        finally:
            self._exit(frame)
        if self._count is not None:
            self._counts[self._count] = self._counts.get(self._count, 0) + 1
        return item


class PointRun:
    """What one attempt of one sweep point did, as the wrappers saw it."""

    __slots__ = ("index", "ops", "db", "counts_before", "counts_after",
                 "disk_reads", "disk_writes")

    def __init__(self, index: int) -> None:
        self.index = index
        #: One entry per outermost strategy call:
        #: (kind, seconds, multiset digest, set digest, start time).
        self.ops: List[tuple] = []
        self.db = None
        self.counts_before: Dict[str, int] = {}
        self.counts_after: Dict[str, int] = {}
        #: The wrappers' disk page reads/writes since the point's last
        #: ``DiskManager.reset_counters`` (traced runs only).
        self.disk_reads = 0
        self.disk_writes = 0


class OpRecorder:
    """Times operations at the strategy boundary, point by point."""

    def __init__(self, calibration: Calibration,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.calibration = calibration
        self.spans = spans
        self.depth = 0
        self.current: Optional[PointRun] = None
        #: Every point attempt of the current pass, in execution order.
        self.runs: List[PointRun] = []
        #: id(point) -> index in the current pass's point list.
        self.point_index: Dict[int, int] = {}
        #: Whether the point being run needs set digests of its answers.
        self.want_sets: Dict[int, bool] = {}
        self.distinct: Dict[int, bool] = {}

    def start_pass(self, points, want_sets, distinct) -> None:
        self.runs = []
        self.point_index = {id(p): i for i, p in enumerate(points)}
        self.want_sets = dict(enumerate(want_sets))
        self.distinct = dict(enumerate(distinct))

    def wrap_point(self, fn: Callable) -> Callable:
        """Wraps ``pool.execute_point``: one :class:`PointRun` per attempt."""
        recorder = self
        spans = self.spans

        def execute_point(point, db_cache=None):
            run = PointRun(recorder.point_index.get(id(point), -1))
            recorder.runs.append(run)
            recorder.current = run
            frame = None
            if spans is not None:
                spans.point = run.index
                spans.op = -1
                run.counts_before = _snapshot_counts(spans)
                spans.calls("pool.point")
                frame = spans.enter("pool.point")
            try:
                return fn(point, db_cache)
            finally:
                if frame is not None:
                    spans.exit(frame)
                    run.counts_after = _snapshot_counts(spans)
                recorder.current = None

        return execute_point

    def wrap_strategy(self, kind: str, fn: Callable) -> Callable:
        """Wraps ``Strategy.retrieve``/``update`` (outermost calls only)."""
        recorder = self
        spans = self.spans
        calibration = self.calibration
        name = "strategy." + kind
        is_retrieve = kind == "retrieve"
        clock = time.perf_counter

        def call(strategy, db, query, meter=None):
            if recorder.depth:
                return fn(strategy, db, query, meter)
            run = recorder.current
            recorder.depth = 1
            frame = None
            if spans is not None:
                spans.op = len(run.ops) if run is not None else -1
                spans.calls(name)
                frame = spans.enter(name)
            t0 = clock()
            try:
                result = fn(strategy, db, query, meter)
            finally:
                elapsed = clock() - t0
                recorder.depth = 0
                if frame is not None:
                    spans.exit(frame)
            probe_frame = spans.enter("bench.calibration") if spans else None
            calibration.maybe_probe(t0 + elapsed)
            if probe_frame is not None:
                spans.exit(probe_frame)
            if run is not None:
                run.db = db
                if is_retrieve:
                    digest_frame = spans.enter("bench.answer_digest") if spans else None
                    index = run.index
                    multiset, as_set = answer_digests(
                        result,
                        multiset=not recorder.distinct.get(index, False),
                        as_set=recorder.want_sets.get(index, False),
                    )
                    if digest_frame is not None:
                        spans.exit(digest_frame)
                    run.ops.append(("retrieve", elapsed, multiset, as_set, t0))
                else:
                    run.ops.append(("update", elapsed, None, None, t0))
            return result

        return call


def _snapshot_counts(spans: SpanRecorder) -> Dict[str, int]:
    snap = {name: stat[0] for name, stat in spans.stats.items()}
    for name, value in spans.counts.items():
        snap["#" + name] = value
    return snap
