"""Layer wrappers for traced runs, and the per-layer metrics they yield.

Every wrapper is installed from here, around a public function of one
layer of the engine.  A module-level function is patched where its
caller looks it up: the breadth-first strategies and the external sort
import ``external_sort``, ``merge_probe_join`` and ``make_temp`` by
name, and the sweep imports ``generate_sequence``, ``run_sequence`` and
``build_database`` by name, so those names are replaced in the importing
modules.  Methods are patched on their class, which every instance and
every bound method hoisted into a local sees.

Counts come from the engine's own counters where it keeps them
(``PoolStats``, ``DiskManager.reads``/``writes``, ``CacheStats``,
``CostReport``): B-tree and heap leases add buffer hits by arithmetic
without calling ``fetch``, so counting ``fetch`` calls would undercount.
Where a wrapper and a counter see the same events, the run checks that
they agree, so a call path that bypasses a wrapper fails the run.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Tuple

from recorder import OpRecorder, SpanRecorder

#: (metric, unit, better, the end-to-end metric it should move).  Counts
#: and times are per pass of the workload's sweep; ``.s`` times are
#: inclusive spans of that layer, ``self_s`` times exclude child spans.
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("pool.point_ms_p50", "ms", "lower", "ops_per_s, failed_op_share"),
    ("pool.self_s", "s/pass", "lower", "ops_per_s"),
    ("pool.retries", "count/pass", "lower", "failed_op_share"),
    ("pool.failed_points", "count/pass", "lower", "failed_op_share"),
    ("snapshot.build_s", "s", "lower", "setup_s"),
    ("snapshot.freeze_s", "s", "lower", "setup_s"),
    ("snapshot.store_s", "s", "lower", "setup_s"),
    ("snapshot.attaches", "count/pass", "lower", "ops_per_s"),
    ("snapshot.attach_ms_p50", "ms", "lower", "ops_per_s"),
    ("workload.sequence_s", "s/pass", "lower", "ops_per_s"),
    ("driver.self_s", "s/pass", "lower", "ops_per_s"),
    ("strategy.retrieve.calls", "count/pass", "lower", "retrieve_ms_p50"),
    ("strategy.retrieve.self_s", "s/pass", "lower", "retrieve_ms_p50"),
    ("strategy.update.calls", "count/pass", "lower", "update_ms_p50"),
    ("strategy.update.self_s", "s/pass", "lower", "update_ms_p50"),
    ("db.apply_update.calls", "count/pass", "lower", "update_ms_p50"),
    ("db.apply_update.self_s", "s/pass", "lower", "update_ms_p50"),
    ("cache.lookup.calls", "count/pass", "lower", "retrieve_ms_p50"),
    ("cache.lookup.s", "s/pass", "lower", "retrieve_ms_p50"),
    ("cache.hit_ratio", "ratio", "higher", "retrieve_ms_p50"),
    ("cache.insert.calls", "count/pass", "lower", "retrieve_ms_p90, update_ms_p50"),
    ("cache.insert.s", "s/pass", "lower", "retrieve_ms_p90, update_ms_p50"),
    ("cache.hits_per_insert", "ratio", "higher", "retrieve_ms_p90"),
    ("cache.invalidate.calls", "count/pass", "lower", "update_ms_p50"),
    ("cache.invalidate.s", "s/pass", "lower", "update_ms_p50"),
    ("cache.evictions", "count/pass", "lower", "retrieve_ms_p90"),
    ("cluster.scan.s", "s/pass", "lower", "retrieve_ms_p50"),
    ("cluster.fetch.calls", "count/pass", "lower", "retrieve_ms_p50"),
    ("cluster.fetch.s", "s/pass", "lower", "retrieve_ms_p50"),
    ("cluster.update.calls", "count/pass", "lower", "update_ms_p50"),
    ("cluster.update.s", "s/pass", "lower", "update_ms_p50"),
    ("query.spool.records", "count/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("query.spool.s", "s/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("query.sort.calls", "count/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("query.sort.s", "s/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("query.sort.out_in_ratio", "ratio", "lower", "retrieve_ms_p50"),
    ("query.join.probes", "count/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("query.join.s", "s/pass", "lower", "retrieve_ms_p50, ops_per_s"),
    ("btree.lookup.calls", "count/pass", "lower", "retrieve_ms_p50"),
    ("btree.lookup.s", "s/pass", "lower", "retrieve_ms_p50"),
    ("btree.lookup.reads_per_call", "ratio", "lower", "retrieve_ms_p50"),
    ("btree.range_scan.records", "count/pass", "lower", "ops_per_s"),
    ("btree.range_scan.s", "s/pass", "lower", "ops_per_s"),
    ("btree.update_field.calls", "count/pass", "lower", "update_ms_p50"),
    ("btree.update_field.s", "s/pass", "lower", "update_ms_p50"),
    ("heap.insert_many.records", "count/pass", "lower", "ops_per_s"),
    ("heap.insert_many.s", "s/pass", "lower", "ops_per_s"),
    ("heap.scan.s", "s/pass", "lower", "ops_per_s"),
    ("hash.calls", "count/pass", "lower", "retrieve_ms_p50, update_ms_p50"),
    ("hash.s", "s/pass", "lower", "retrieve_ms_p50, update_ms_p50"),
    ("isam.calls", "count/pass", "lower", "retrieve_ms_p50, update_ms_p50"),
    ("isam.s", "s/pass", "lower", "retrieve_ms_p50, update_ms_p50"),
    ("buffer.accesses", "count/pass", "lower", "retrieve_ms_p50"),
    ("buffer.hit_ratio", "ratio", "higher", "retrieve_ms_p50"),
    ("buffer.misses", "count/pass", "lower", "ops_per_s"),
    ("buffer.evictions", "count/pass", "lower", "ops_per_s"),
    ("buffer.dirty_evictions", "count/pass", "lower", "update_ms_p90"),
    ("buffer.fetch.s", "s/pass", "lower", "retrieve_ms_p50"),
    ("buffer.writable.calls", "count/pass", "lower", "update_ms_p50"),
    ("buffer.writable.s", "s/pass", "lower", "update_ms_p50"),
    ("disk.reads", "count/pass", "lower", "ops_per_s (paper output: must not move)"),
    ("disk.writes", "count/pass", "lower", "ops_per_s (paper output: must not move)"),
    ("disk.read_page.s", "s/pass", "lower", "ops_per_s"),
    ("disk.write_page.s", "s/pass", "lower", "ops_per_s"),
    ("disk.io_per_retrieve", "ratio", "lower", "ops_per_s (paper output: must not move)"),
    ("codec.decode.calls", "count/pass", "lower", "ops_per_s, retrieve_ms_p50"),
    ("codec.decode.s", "s/pass", "lower", "ops_per_s, retrieve_ms_p50"),
    ("codec.encode.calls", "count/pass", "lower", "ops_per_s"),
    ("codec.encode.s", "s/pass", "lower", "ops_per_s"),
    ("schema.validate.calls", "count/pass", "lower", "ops_per_s, retrieve_ms_p50"),
    ("schema.validate.s", "s/pass", "lower", "ops_per_s, retrieve_ms_p50"),
    ("trace.overhead", "ratio", "lower", "none"),
    ("trace.unattributed_s", "s/pass", "lower", "none"),
]

#: Span name -> layer, for the self-time budget table.
BUDGET_LAYERS: Dict[str, str] = {
    "pool.run_sweep": "experiments.pool",
    "pool.point": "experiments.pool",
    "snapshot.attach": "storage.snapshot+arena",
    "snapshot.store": "storage.snapshot+arena",
    "workload.sequence": "workload",
    "driver": "workload",
    "strategy.retrieve": "core.strategies",
    "strategy.update": "core.strategies",
    "db.apply_update": "core.database",
    "cache.lookup": "core.cache",
    "cache.insert": "core.cache",
    "cache.invalidate": "core.cache",
    "cluster.scan": "core.clustering",
    "cluster.fetch": "core.clustering",
    "cluster.update": "core.clustering",
    "query.spool": "query",
    "query.sort": "query",
    "query.join": "query",
    "btree.lookup": "storage.btree",
    "btree.range_scan": "storage.btree",
    "btree.update_field": "storage.btree",
    "heap.insert_many": "storage.heap",
    "heap.scan": "storage.heap",
    "hash": "storage.hashfile",
    "isam": "storage.isam",
    "buffer.fetch": "storage.buffer",
    "buffer.writable": "storage.buffer",
    "disk.read_page": "storage.disk",
    "disk.write_page": "storage.disk",
    "codec.decode": "storage.record+page",
    "codec.encode": "storage.record+page",
    "schema.validate": "storage.record+page",
    "bench.answer_digest": "benchmark (answer digests)",
    "bench.calibration": "benchmark (calibration probes)",
}


def install_ops(ops: OpRecorder) -> None:
    """Time operations at the strategy boundary (every run)."""
    import repro.core.strategies  # noqa: F401  (registers every strategy)
    from repro.core.strategies.base import REGISTRY
    from repro.experiments import pool

    for cls in REGISTRY.values():
        for kind in ("retrieve", "update"):
            setattr(cls, kind, ops.wrap_strategy(kind, getattr(cls, kind)))
    pool.execute_point = ops.wrap_point(pool.execute_point)


def install_spans(spans: SpanRecorder, ops: OpRecorder) -> None:
    """Wrap the public functions of every layer (traced runs only)."""
    from repro.core import clustering, database
    from repro.core import cache as unit_cache
    from repro.core.strategies import bfs, smart
    from repro.experiments import pool, runner
    from repro.query import sort, temp
    from repro.storage import arena, btree, buffer, disk, hashfile, heap, isam
    from repro.storage import record, snapshot

    wrap, wrap_iter = spans.wrap, spans.wrap_iter
    count = spans.count

    def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: wrap(name, fn)

    def counting(name: str, counter: str) -> Callable[[Callable], Callable]:
        """A span that also adds the call's (integer) result to a counter."""

        def make(fn: Callable) -> Callable:
            timed = wrap(name, fn)

            def call(*args):
                result = timed(*args)
                count(counter, result)
                return result

            return call

        return make

    # experiments.pool, workload, storage.snapshot + arena
    patch(pool, "generate_sequence", span("workload.sequence"))
    patch(pool, "run_sequence", span("driver"))
    patch(runner, "build_database", span("snapshot.build"))
    snapshot.Snapshot.freeze = classmethod(
        wrap("snapshot.freeze", snapshot.Snapshot.freeze.__func__)
    )
    patch(snapshot.SnapshotStore, "put", span("snapshot.store"))
    patch(snapshot.SnapshotStore, "get", span("snapshot.store"))
    patch(snapshot.Snapshot, "attach", span("snapshot.attach"))
    patch(arena.ArenaSnapshot, "attach", span("snapshot.attach"))

    # core.database, core.cache, core.clustering
    patch(database.ComplexObjectDB, "apply_update", span("db.apply_update"))
    patch(unit_cache.UnitCache, "lookup", span("cache.lookup"))
    patch(unit_cache.UnitCache, "insert", span("cache.insert"))

    patch(unit_cache.UnitCache, "invalidate_for_subobject",
          counting("cache.invalidate", "cache.invalidated"))
    patch(clustering.ClusterStore, "scan_parent_range",
          lambda fn: wrap_iter("cluster.scan", fn))
    patch(clustering.ClusterStore, "fetch_subobject", span("cluster.fetch"))
    patch(clustering.ClusterStore, "update_subobject", span("cluster.update"))

    # query: temporaries, external sort, merge join
    patch(temp.TempRelation, "insert_many", counting("query.spool", "query.spool.records"))
    patch(temp.TempRelation, "seal", span("query.spool"))
    for module in (bfs, smart, sort):
        patch(module, "make_temp", span("query.spool"))

    def external_sort(fn: Callable) -> Callable:
        timed = wrap("query.sort", fn)

        def call(pool_, source, *args, **kwargs):
            count("query.sort.in", source.num_records)
            out = timed(pool_, source, *args, **kwargs)
            count("query.sort.out", out.num_records)
            return out

        return call

    def merge_probe_join(fn: Callable) -> Callable:
        timed = wrap_iter("query.join", fn)

        def probes(keys):
            for key in keys:
                count("query.join.probes")
                yield key

        def call(sorted_keys, inner, project=None):
            return timed(probes(sorted_keys), inner, project)

        return call

    for module in (bfs, smart):
        patch(module, "external_sort", external_sort)
        patch(module, "merge_probe_join", merge_probe_join)

    # storage.btree, heap, hashfile, isam
    def btree_lookup(fn: Callable) -> Callable:
        timed = wrap("btree.lookup", fn)

        def call(self, key):
            disk_ = self.pool.disk
            before = disk_.reads
            try:
                return timed(self, key)
            finally:
                count("btree.lookup.reads", disk_.reads - before)

        return call

    patch(btree.BTreeFile, "lookup", btree_lookup)
    patch(btree.BTreeFile, "range_scan",
          lambda fn: wrap_iter("btree.range_scan", fn, count="btree.range_scan.records"))
    patch(btree.BTreeFile, "update_field", span("btree.update_field"))

    patch(heap.HeapFile, "insert_many",
          counting("heap.insert_many", "heap.insert_many.records"))
    patch(heap.HeapFile, "scan", lambda fn: wrap_iter("heap.scan", fn))
    patch(heap.HeapFile, "scan_pages", lambda fn: wrap_iter("heap.scan", fn))
    for attr in ("lookup", "insert", "delete_if_present", "truncate"):
        patch(hashfile.HashFile, attr, span("hash"))
    patch(isam.IsamIndex, "get", span("isam"))

    # storage.buffer, storage.disk
    for attr in ("fetch", "fetch_frame"):
        patch(buffer.BufferPool, attr, span("buffer.fetch"))
    for attr in ("writable", "replay_writable"):
        patch(buffer.BufferPool, attr, span("buffer.writable"))

    def disk_io(name: str, field: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            timed = wrap(name, fn)

            def call(self, arg):
                run = ops.current
                if run is not None:
                    setattr(run, field, getattr(run, field) + 1)
                return timed(self, arg)

            return call

        return make

    patch(disk.DiskManager, "read_page", disk_io("disk.read_page", "disk_reads"))
    patch(disk.DiskManager, "write_page", disk_io("disk.write_page", "disk_writes"))

    def reset_counters(fn: Callable) -> Callable:
        def call(self):
            run = ops.current
            if run is not None:
                run.disk_reads = run.disk_writes = 0
            return fn(self)

        return call

    patch(disk.DiskManager, "reset_counters", reset_counters)

    # storage.record + storage.page
    patch(record.RecordCodec, "decode", span("codec.decode"))
    patch(record.RecordCodec, "encode", span("codec.encode"))
    patch(record.Schema, "validate", span("schema.validate"))


def point_problems(run, report) -> List[str]:
    """Wrapper counts of one point attempt against the engine's counters."""
    problems = []
    if run.db is None:
        return ["point %d: no strategy call reached the engine" % run.index]
    disk_ = run.db.disk
    if (run.disk_reads, run.disk_writes) != (disk_.reads, disk_.writes):
        problems.append(
            "point %d: disk wrappers saw %d reads/%d writes, DiskManager "
            "counted %d/%d" % (run.index, run.disk_reads, run.disk_writes,
                               disk_.reads, disk_.writes)
        )

    def delta(key: str) -> int:
        return run.counts_after.get(key, 0) - run.counts_before.get(key, 0)

    stats = report.cache_stats
    if stats is not None:
        if delta("cache.lookup") != stats["hits"] + stats["misses"]:
            problems.append(
                "point %d: %d cache.lookup calls, CacheStats counted %d probes"
                % (run.index, delta("cache.lookup"), stats["hits"] + stats["misses"])
            )
        if delta("#cache.invalidated") != stats["invalidations"]:
            problems.append(
                "point %d: cache wrappers dropped %d units, CacheStats counted %d"
                % (run.index, delta("#cache.invalidated"), stats["invalidations"])
            )
        if delta("cache.insert") < stats["insertions"]:
            problems.append(
                "point %d: %d cache.insert calls < %d insertions"
                % (run.index, delta("cache.insert"), stats["insertions"])
            )
    updates = delta("strategy.update")
    if delta("db.apply_update") != updates:
        problems.append(
            "point %d: %d db.apply_update calls for %d updates"
            % (run.index, delta("db.apply_update"), updates)
        )
    return problems


def layer_metrics(
    spans: SpanRecorder,
    setup_spans: Dict[str, int],
    program: Dict[str, float],
    passes: int,
    window_s: float,
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead``.

    ``program`` holds the engine's own counters summed over the window's
    passes: PoolStats deltas, DiskManager counts at each point's end,
    CacheStats and CostReport totals, and the sweep logs' fault counts.
    """

    def calls(name: str) -> float:
        return spans.num_calls(name) / passes

    def incl(name: str) -> float:
        return spans.inclusive_ns(name) / 1e9 / passes

    def self_s(*names: str) -> float:
        return sum(spans.self_ns(name) for name in names) / 1e9 / passes

    def counted(name: str) -> float:
        return spans.counts.get(name, 0) / passes

    def median_ms(name: str) -> float:
        values = spans.durations.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    accesses = program["buffer.hits"] + program["buffer.misses"]
    probes = program["cache.hits"] + program["cache.misses"]
    attributed = sum(stat[1] for stat in spans.stats.values()) / 1e9
    return {
        "pool.point_ms_p50": median_ms("pool.point"),
        "pool.self_s": self_s("pool.run_sweep", "pool.point"),
        "pool.retries": program["pool.retries"] / passes,
        "pool.failed_points": program["pool.failed_points"] / passes,
        "snapshot.build_s": setup_spans.get("snapshot.build", 0) / 1e9,
        "snapshot.freeze_s": setup_spans.get("snapshot.freeze", 0) / 1e9,
        "snapshot.store_s": setup_spans.get("snapshot.store", 0) / 1e9,
        "snapshot.attaches": calls("snapshot.attach"),
        "snapshot.attach_ms_p50": median_ms("snapshot.attach"),
        "workload.sequence_s": incl("workload.sequence"),
        "driver.self_s": self_s("driver"),
        "strategy.retrieve.calls": calls("strategy.retrieve"),
        "strategy.retrieve.self_s": self_s("strategy.retrieve"),
        "strategy.update.calls": calls("strategy.update"),
        "strategy.update.self_s": self_s("strategy.update"),
        "db.apply_update.calls": calls("db.apply_update"),
        "db.apply_update.self_s": self_s("db.apply_update"),
        "cache.lookup.calls": calls("cache.lookup"),
        "cache.lookup.s": incl("cache.lookup"),
        "cache.hit_ratio": ratio(program["cache.hits"], probes),
        "cache.insert.calls": calls("cache.insert"),
        "cache.insert.s": incl("cache.insert"),
        "cache.hits_per_insert": ratio(program["cache.hits"], program["cache.insertions"]),
        "cache.invalidate.calls": calls("cache.invalidate"),
        "cache.invalidate.s": incl("cache.invalidate"),
        "cache.evictions": program["cache.evictions"] / passes,
        "cluster.scan.s": incl("cluster.scan"),
        "cluster.fetch.calls": calls("cluster.fetch"),
        "cluster.fetch.s": incl("cluster.fetch"),
        "cluster.update.calls": calls("cluster.update"),
        "cluster.update.s": incl("cluster.update"),
        "query.spool.records": counted("query.spool.records"),
        "query.spool.s": incl("query.spool"),
        "query.sort.calls": calls("query.sort"),
        "query.sort.s": incl("query.sort"),
        "query.sort.out_in_ratio": ratio(counted("query.sort.out"), counted("query.sort.in")),
        "query.join.probes": counted("query.join.probes"),
        "query.join.s": incl("query.join"),
        "btree.lookup.calls": calls("btree.lookup"),
        "btree.lookup.s": incl("btree.lookup"),
        "btree.lookup.reads_per_call": ratio(
            counted("btree.lookup.reads"), calls("btree.lookup")
        ),
        "btree.range_scan.records": counted("btree.range_scan.records"),
        "btree.range_scan.s": incl("btree.range_scan"),
        "btree.update_field.calls": calls("btree.update_field"),
        "btree.update_field.s": incl("btree.update_field"),
        "heap.insert_many.records": counted("heap.insert_many.records"),
        "heap.insert_many.s": incl("heap.insert_many"),
        "heap.scan.s": incl("heap.scan"),
        "hash.calls": calls("hash"),
        "hash.s": incl("hash"),
        "isam.calls": calls("isam"),
        "isam.s": incl("isam"),
        "buffer.accesses": accesses / passes,
        "buffer.hit_ratio": ratio(program["buffer.hits"], accesses),
        "buffer.misses": program["buffer.misses"] / passes,
        "buffer.evictions": program["buffer.evictions"] / passes,
        "buffer.dirty_evictions": program["buffer.dirty_evictions"] / passes,
        "buffer.fetch.s": incl("buffer.fetch"),
        "buffer.writable.calls": calls("buffer.writable"),
        "buffer.writable.s": incl("buffer.writable"),
        "disk.reads": program["disk.reads"] / passes,
        "disk.writes": program["disk.writes"] / passes,
        "disk.read_page.s": incl("disk.read_page"),
        "disk.write_page.s": incl("disk.write_page"),
        "disk.io_per_retrieve": ratio(
            program["disk.reads"] + program["disk.writes"], program["measured_retrieves"]
        ),
        "codec.decode.calls": calls("codec.decode"),
        "codec.decode.s": incl("codec.decode"),
        "codec.encode.calls": calls("codec.encode"),
        "codec.encode.s": incl("codec.encode"),
        "schema.validate.calls": calls("schema.validate"),
        "schema.validate.s": incl("schema.validate"),
        "trace.unattributed_s": (window_s - attributed) / passes,
    }


def budget(spans: SpanRecorder, passes: int, window_s: float) -> List[Tuple[str, float]]:
    """Self time per layer (s per pass), plus the unattributed residual."""
    totals: Dict[str, float] = {}
    for name, stat in spans.stats.items():
        layer = BUDGET_LAYERS.get(name, "other:" + name)
        totals[layer] = totals.get(layer, 0.0) + stat[1] / 1e9 / passes
    rows = sorted(totals.items(), key=lambda item: -item[1])
    attributed = sum(stat[1] for stat in spans.stats.values()) / 1e9
    rows.append(("unattributed", (window_s - attributed) / passes))
    return rows
