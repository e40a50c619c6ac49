"""Run one workload in this (fresh) process and print its figures as JSON.

``run.py`` starts this script once per workload, so the engine's
process-wide state -- the unit-hashkey ``lru_cache``, the mmap arena
registry and the sweep's snapshot-store singleton -- starts empty and
``peak_rss_mb`` belongs to the workload alone.  The span profiler of the
engine stays off, no point cache is used, and the snapshot store lives
in a temporary directory that is removed on exit.

One closed-loop client: the sweep runs serially (``jobs=1``), every
operation starting when the previous one returns.  The window repeats
whole passes of the workload's sweep until ``--seconds`` have gone by,
so every pass runs the same mix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

from recorder import PROBE_REFERENCE_S, Calibration, OpRecorder, SpanRecorder  # noqa: E402
import layers  # noqa: E402
from workloads import WARMUP_FRACTION, WORKLOADS, Workload  # noqa: E402

from repro.core.strategies.base import make_strategy  # noqa: E402
from repro.experiments import pool  # noqa: E402
from repro.experiments.pool import run_sweep  # noqa: E402
from repro.experiments.runner import DatabaseCache  # noqa: E402
from repro.storage.snapshot import SnapshotStore  # noqa: E402
from repro.workload.driver import CostReport  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Fields of a point's signature, pinned per seed in ``expected.json``.
SIGNATURE = ("total_io", "par_cost", "child_cost", "hits", "misses",
             "evictions", "dirty_evictions", "answers")


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def shapes(workload: Workload, seed: int) -> List[tuple]:
    """The distinct database shapes the workload's points need."""
    seen = {}
    for point in workload.points(seed):
        strategy = make_strategy(point.strategy)
        shape = (point.params, strategy.uses_clustering, strategy.uses_cache)
        key = DatabaseCache().shape_key(*shape)
        seen.setdefault(key, shape)
    return list(seen.values())


def setup(workload: Workload, seed: int, root: str, reps: int,
          calibration: Calibration) -> List[tuple]:
    """Build, freeze and store every shape in a cold store, ``reps`` times.

    Each repetition starts from an empty store directory, between two
    bursts of calibration probes.  Returns (reference-speed seconds, wall
    seconds) per repetition.  The sweep is then pointed at the last store.
    """
    times = []
    store_dir = None
    for _ in range(reps):
        store_dir = tempfile.mkdtemp(prefix="store-", dir=root)
        db_cache = DatabaseCache(store=SnapshotStore(store_dir))
        for _ in range(4):
            calibration.probe()
        t0 = time.perf_counter()
        for params, clustering, cache in shapes(workload, seed):
            db_cache.snapshot_for(params, clustering=clustering, cache=cache)
        t1 = time.perf_counter()
        for _ in range(4):
            calibration.probe()
        times.append((calibration.normalize(t0, t1), t1 - t0))
    pool.configure_db_store(store_dir)
    return times


def shape_sizes(workload: Workload, seed: int) -> List[Dict[str, Any]]:
    """Pages per relation against the buffer, units against the cache."""
    db_cache = DatabaseCache(store=SnapshotStore(pool.DB_STORE_ROOT))
    out = []
    for params, clustering, cache in shapes(workload, seed):
        db = db_cache.get(params, clustering=clustering, cache=cache)
        pages = db.storage_footprint()
        if db.cluster is not None:
            pages[db.cluster.oid_index.name] = db.cluster.oid_index.num_pages
            # DFSCLUST reads ClusterRel and its OID index only.
            working = pages["ClusterRel"] + db.cluster.oid_index.num_pages
        else:
            working = sum(pages.values())
        out.append({
            "shape": "cluster" if clustering else ("cache" if cache else "plain"),
            "pages": pages,
            "working_set_pages": working,
            "buffer_pages": params.buffer_pages,
            "num_units": len(db.units),
            "size_cache": params.size_cache,
        })
    return out


def claim_problems(workload: Workload, sizes, buffer_hit_ratio: float) -> List[str]:
    """Check that the workload is what its name says, on this seed."""
    problems = []
    for size in sizes:
        working, buffer_pages = size["working_set_pages"], size["buffer_pages"]
        units, cache = size["num_units"], size["size_cache"]
        if workload.claim == "fits":
            if working > buffer_pages or units > cache:
                problems.append(
                    "%s shape does not fit: %d pages for a %d-page buffer, "
                    "%d units for a %d-unit cache"
                    % (size["shape"], working, buffer_pages, units, cache)
                )
        elif working < 10 * buffer_pages:
            problems.append(
                "%s shape does not spill: %d pages for a %d-page buffer"
                % (size["shape"], working, buffer_pages)
            )
        if workload.claim == "churns" and cache >= units:
            problems.append("the cache holds all %d units" % units)
    if workload.claim == "fits" and buffer_hit_ratio < 0.95:
        problems.append("buffer hit ratio %.3f < 0.95 on a fitting workload"
                        % buffer_hit_ratio)
    return problems


# ----------------------------------------------------------------------
# one pass of the sweep
# ----------------------------------------------------------------------
class PassOutcome:
    """One pass: what ran, what it cost, and what was wrong with it."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.signatures: List[Optional[list]] = []
        #: The sweep's wall time at reference speed (probes left out).
        self.normalized = 0.0
        #: Per finished point: its warm-up length, and each operation's
        #: kind, wall seconds and start time.
        self.warmup: Dict[int, int] = {}
        self.op_kinds: Dict[int, List[str]] = {}
        self.op_seconds: Dict[int, List[float]] = {}
        self.op_start: Dict[int, List[float]] = {}
        self.reports: List[CostReport] = []
        #: Operations per point index, over all of its attempts.
        self.point_ops: Dict[int, int] = {}
        #: DiskManager reads/writes at the end of each finished point.
        self.disk_reads = 0
        self.disk_writes = 0
        self.retries = 0
        self.failed_points = 0


def run_pass(workload: Workload, points, ops: OpRecorder,
             spans: Optional[SpanRecorder]) -> PassOutcome:
    ops.calibration.probe()
    distinct = [p.strategy == "BFSNODUP" for p in points]
    cell_has_set = {}
    for point, nodup in zip(points, distinct):
        cell_has_set[point.params] = cell_has_set.get(point.params, False) or nodup
    want_sets = [cell_has_set[p.params] for p in points]
    ops.start_pass(points, want_sets, distinct)

    frame = spans.enter("pool.run_sweep") if spans is not None else None
    if spans is not None:
        spans.calls("pool.run_sweep")
    t0 = time.perf_counter()
    results = run_sweep(points, jobs=1)
    t1 = time.perf_counter()
    if frame is not None:
        spans.exit(frame)
    ops.calibration.probe()

    out = PassOutcome()
    out.wall = t1 - t0
    out.normalized = ops.calibration.normalize(t0, t1)
    faults = pool.SWEEP_LOG[-1]["faults"]
    out.retries = faults["retries"]
    for name in ("retries", "timeouts", "pool_restarts", "downgrades", "cache_corrupt"):
        if faults[name]:
            out.problems.append("sweep fault counter %s = %s" % (name, faults[name]))
    if faults["quarantined"] or faults["injections"]:
        out.problems.append("sweep quarantined %s, injections %s"
                            % (faults["quarantined"], faults["injections"]))

    # answers[cell][retrieve index] -> [(point index, multiset, set)]
    answers: Dict[Any, Dict[int, list]] = {}
    failed_retrieves = set()  # (point index, retrieve ordinal)
    for index, point in enumerate(points):
        attempts = [run for run in ops.runs if run.index == index]
        result = results[index]
        for run in attempts:
            out.attempted += len(run.ops)
        out.point_ops[index] = sum(len(run.ops) for run in attempts)
        if not isinstance(result, CostReport):  # a FailedPoint
            out.failed_points += 1
            out.failed += sum(len(run.ops) for run in attempts)
            out.problems.append("point %d (%s) failed: %r" % (index, point.strategy, result))
            out.signatures.append(None)
            continue
        for run in attempts[:-1]:  # attempts the sweep retried
            out.failed += len(run.ops)
        run = attempts[-1]
        report = result
        out.reports.append(report)
        out.disk_reads += run.db.disk.reads
        out.disk_writes += run.db.disk.writes
        calls = len(run.ops)
        measured = report.num_retrieves + report.num_updates
        warmup = calls - measured
        if warmup != int(calls * WARMUP_FRACTION):
            out.problems.append(
                "point %d: %d strategy calls for %d measured ops -- the "
                "strategy wrapper missed or double-counted calls"
                % (index, calls, measured)
            )
        if spans is not None:
            out.problems.extend(layers.point_problems(run, report))
        out.warmup[index] = warmup
        out.op_kinds[index] = [op[0] for op in run.ops]
        out.op_seconds[index] = [op[1] for op in run.ops]
        out.op_start[index] = [op[4] for op in run.ops]
        digests = []
        ordinal = 0
        for kind, _seconds, multiset, as_set, _t0 in run.ops:
            if kind == "retrieve":
                digests.append(as_set if distinct[index] else multiset)
                answers.setdefault(point.params, {}).setdefault(ordinal, []).append(
                    (index, multiset, as_set))
                ordinal += 1
        stats = report.buffer_stats or {}
        out.signatures.append([
            report.total_io, report.par_cost, report.child_cost,
            stats.get("hits"), stats.get("misses"), stats.get("evictions"),
            stats.get("dirty_evictions"),
            _combine(digests),
        ])

    # Every strategy of a cell must give the same answer to each retrieve:
    # as a multiset, except BFSNODUP, whose answer is compared as a set.
    for cell in answers.values():
        for ordinal, entries in cell.items():
            multisets = {m for _, m, _ in entries if m is not None}
            sets = {s for _, _, s in entries if s is not None}
            if len(multisets) > 1 or len(sets) > 1:
                for index, _, _ in entries:
                    failed_retrieves.add((index, ordinal))
                out.problems.append(
                    "answers disagree at retrieve %d of cell %s" % (
                        ordinal, [points[i].strategy for i, _, _ in entries]))
    out.failed += len(failed_retrieves)
    for run in ops.runs:
        run.db = None  # let the point's database clone go
    return out


def _combine(digests: List[str]) -> str:
    return hashlib.blake2b("".join(digests).encode(), digest_size=8).hexdigest()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def timings(passes: List[PassOutcome], calibration: Calibration) -> Dict[str, Any]:
    """Operation latencies and sweep throughput at reference speed.

    Every operation's wall time is divided by the host's slow-down
    around it, and every pass's sweep wall time is integrated stretch by
    stretch the same way (see :class:`recorder.Calibration`).  The raw
    wall-time figures come along for comparison.
    """
    out: Dict[str, Any] = {"retrieve_ms": [], "update_ms": [],
                           "raw_retrieve_ms": [], "raw_update_ms": []}
    for outcome in passes:
        for index, seconds in outcome.op_seconds.items():
            warmup = outcome.warmup[index]
            rows = zip(outcome.op_kinds[index], seconds, outcome.op_start[index])
            for position, (kind, wall, start) in enumerate(rows):
                if position < warmup:
                    continue
                kind_key = "retrieve_ms" if kind == "retrieve" else "update_ms"
                out[kind_key].append(wall * 1e3 / calibration.slowdown(start))
                out["raw_" + kind_key].append(wall * 1e3)
    ops = sum(outcome.attempted for outcome in passes)
    out["ops_per_s"] = ops / sum(outcome.normalized for outcome in passes)
    out["raw_ops_per_s"] = ops / sum(outcome.wall for outcome in passes)
    return out


def tail_percentile(samples: List[float]) -> tuple:
    """(value, percentile): p90, or the highest percentile that still
    has at least ten samples beyond it when there are fewer than 100."""
    n = len(samples)
    if not n:
        return 0.0, 0.0
    q = 0.90 if n >= 100 else max(0.5, math.floor((1 - 10 / n) * 100) / 100)
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1], q


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=5)
    parser.add_argument("--tmp", required=True,
                        help="directory for the snapshot store (removed on exit)")
    parser.add_argument("--spans-out", default=None,
                        help="traced runs: write span records here")
    parser.add_argument("--no-expected", action="store_true",
                        help="skip the comparison with expected.json (re-recording)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    points = workload.points(args.seed)
    spans = SpanRecorder() if args.trace else None
    calibration = Calibration()
    ops = OpRecorder(calibration, spans)
    layers.install_ops(ops)
    if spans is not None:
        layers.install_spans(spans, ops)

    os.makedirs(args.tmp, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=args.tmp)
    try:
        setup_times = setup(workload, args.seed, root, args.setup_reps, calibration)
        setup_spans = {}
        if spans is not None:
            setup_spans = {name: spans.inclusive_ns(name) for name in
                           ("snapshot.build", "snapshot.freeze", "snapshot.store")}
        sizes = shape_sizes(workload, args.seed)
        if spans is not None:
            spans.reset()  # the window's spans only from here on

        passes: List[PassOutcome] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, points, ops, spans))
            if time.perf_counter() - start >= args.seconds:
                break
        window = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = summarize(workload, args, passes, setup_times, sizes, rss_mb,
                           calibration)
        if spans is not None:
            program = program_counters(passes)
            result["layers"] = layers.layer_metrics(
                spans, setup_spans, program, len(passes), window)
            result["budget"] = layers.budget(spans, len(passes), window)
            if args.spans_out:
                os.makedirs(os.path.dirname(args.spans_out) or ".", exist_ok=True)
                spans.write(args.spans_out)
                result["spans_file"] = args.spans_out
                result["spans_dropped"] = spans.dropped
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(result))
    return 0


def program_counters(passes: List[PassOutcome]) -> Dict[str, float]:
    """The engine's own counters, summed over every pass."""
    totals = {key: 0 for key in (
        "buffer.hits", "buffer.misses", "buffer.evictions", "buffer.dirty_evictions",
        "cache.hits", "cache.misses", "cache.insertions", "cache.evictions",
        "disk.reads", "disk.writes", "measured_retrieves", "pool.retries",
        "pool.failed_points")}
    for outcome in passes:
        totals["pool.retries"] += outcome.retries
        totals["pool.failed_points"] += outcome.failed_points
        for report in outcome.reports:
            stats = report.buffer_stats or {}
            for key in ("hits", "misses", "evictions", "dirty_evictions"):
                totals["buffer." + key] += stats.get(key, 0)
            if report.cache_stats:
                for key in ("hits", "misses", "insertions", "evictions"):
                    totals["cache." + key] += report.cache_stats[key]
            totals["measured_retrieves"] += report.num_retrieves
        totals["disk.reads"] += outcome.disk_reads
        totals["disk.writes"] += outcome.disk_writes
    return totals


def summarize(workload, args, passes, setup_times, sizes, rss_mb,
              calibration) -> Dict[str, Any]:
    problems: List[str] = []
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for number, outcome in enumerate(passes):
        problems.extend("pass %d: %s" % (number, text) for text in outcome.problems)

    # I/O, buffer counters and answers: every pass must match the first,
    # and the first must match the values committed for this seed.
    first = passes[0].signatures
    for number, outcome in enumerate(passes[1:], start=1):
        for index, (a, b) in enumerate(zip(first, outcome.signatures)):
            if a != b:
                problems.append("pass %d point %d: %s != first pass %s"
                                % (number, index, b, a))
                failed += _point_ops(outcome, index)
    expected = None
    if not args.no_expected:
        expected = load_expected().get(workload.name, {}).get(str(args.seed))
    pinned = expected is not None
    if pinned:
        for index, (want, got) in enumerate(zip(expected, first)):
            if want != got:
                fields = [name for name, w, g in zip(SIGNATURE, want, got or [None] * 8)
                          if w != g]
                problems.append("point %d (%s): %s differ from expected.json "
                                "(expected %s, got %s)" % (
                                    index, workload.points(args.seed)[index].strategy,
                                    fields, want, got))
                failed += sum(_point_ops(outcome, index) for outcome in passes)
        if len(expected) != len(first):
            problems.append("expected.json has %d points, the sweep %d"
                            % (len(expected), len(first)))

    # An operation can fail more than one check; count it once at most.
    failed = min(failed, attempted)

    reports = [r for p in passes for r in p.reports]
    hits = sum((r.buffer_stats or {}).get("hits", 0) for r in reports)
    accesses = hits + sum((r.buffer_stats or {}).get("misses", 0) for r in reports)
    buffer_hit_ratio = hits / accesses if accesses else 0.0
    cache_hits = sum(r.cache_stats["hits"] for r in reports if r.cache_stats)
    cache_probes = cache_hits + sum(r.cache_stats["misses"] for r in reports if r.cache_stats)
    problems.extend(claim_problems(workload, sizes, buffer_hit_ratio))

    timed = timings(passes, calibration)
    retrieve_ms, update_ms = timed["retrieve_ms"], timed["update_ms"]
    r90, rq = tail_percentile(retrieve_ms)
    u90, uq = tail_percentile(update_ms)
    metrics = {
        "setup_s": statistics.median(t for t, _ in setup_times),
        "ops_per_s": timed["ops_per_s"],
        "retrieve_ms_p50": _median(retrieve_ms),
        "retrieve_ms_p90": r90,
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "setup_s": statistics.median(w for _, w in setup_times),
        "ops_per_s": timed["raw_ops_per_s"],
        "retrieve_ms_p50": _median(timed["raw_retrieve_ms"]),
        "retrieve_ms_p90": tail_percentile(timed["raw_retrieve_ms"])[0],
    }
    extra = {
        "raw_wall": raw,
        "host_slowdown_p50": _median(
            [s / PROBE_REFERENCE_S for s in calibration.seconds]),
        "failed_op_share": failed / attempted if attempted else 1.0,
        "retrieve_samples": len(retrieve_ms),
        "retrieve_tail_percentile": rq,
        "passes": len(passes),
        "sweep_wall_s": sum(p.wall for p in passes),
        "buffer_hit_ratio": buffer_hit_ratio,
        "cache_hit_ratio": cache_hits / cache_probes if cache_probes else None,
        "io_pinned": pinned,
    }
    if update_ms:
        raw["update_ms_p50"] = _median(timed["raw_update_ms"])
        extra.update({
            "update_ms_p50": _median(update_ms),
            "update_ms_p90": u90,
            "update_samples": len(update_ms),
            "update_tail_percentile": uq,
        })
    return {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": metrics,
        "extra": extra,
        "sizes": sizes,
        "signatures": first,
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _point_ops(outcome: PassOutcome, index: int) -> int:
    return outcome.point_ops.get(index, 0)


def load_expected() -> Dict[str, Any]:
    try:
        with open(EXPECTED_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


if __name__ == "__main__":
    sys.exit(main())
