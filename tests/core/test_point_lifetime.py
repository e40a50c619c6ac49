"""A sweep point's database is freed by refcount, not by the cyclic GC.

The unit cache's blob schema sizes payloads through a callback over the
cache's size registry.  Bound as a method it would point back at the
cache (``UnitCache.schema -> BlobField.size_fn -> UnitCache``), and every
DFSCACHE/SMART point would leave its whole database to the generation-2
collector.  These tests run sweeps with the collector disabled.
"""

import copy
import gc
import pickle
import weakref

import pytest

from repro.core.cache import UnitCache
from repro.experiments import pool
from repro.experiments.pool import SweepPoint, run_sweep
from repro.storage.catalog import Catalog
from repro.workload.driver import CostReport
from repro.workload.params import WorkloadParams

PARAMS = WorkloadParams(
    num_parents=300, num_top=10, size_cache=100, buffer_pages=50, seed=3
)


@pytest.fixture
def sweep_store(tmp_path):
    """Sweeps attach snapshot clones, as ``repro report`` runs them."""
    previous = pool.DB_STORE_ROOT
    pool.configure_db_store(str(tmp_path / "dbcache"))
    yield
    pool.configure_db_store(previous)


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _points(*strategies):
    return [
        SweepPoint(params=PARAMS, strategy=s, num_retrieves=20, warmup_fraction=0.25)
        for s in strategies
    ]


def test_unit_cache_dies_with_its_point(sweep_store, gc_off, monkeypatch):
    caches = []
    real_run_sequence = pool.run_sequence

    def spy(db, *args, **kwargs):
        caches.append(weakref.ref(db.cache))
        return real_run_sequence(db, *args, **kwargs)

    monkeypatch.setattr(pool, "run_sequence", spy)
    results = run_sweep(_points("DFSCACHE"), jobs=1)
    assert isinstance(results[0], CostReport) and results[0].num_retrieves > 0
    assert len(caches) == 1
    assert caches[0]() is None


def test_cache_sweep_leaves_no_cyclic_garbage(sweep_store, gc_off):
    points = _points("DFSCACHE", "SMART")
    run_sweep(points, jobs=1)  # builds and stores the database shapes
    gc.collect()
    results = run_sweep(points, jobs=1)
    assert all(isinstance(r, CostReport) for r in results)
    assert gc.collect() == 0


def test_copies_size_payloads_through_their_own_registry():
    cache = UnitCache(Catalog(buffer_pages=16), size_cache=10, unit_bytes_hint=500)
    payload = ((1,), (2,))
    for dup in (copy.deepcopy(cache), pickle.loads(pickle.dumps(cache))):
        dup._payload_sizes[id(payload)] = 7
        assert dup.schema.fields[1].size_fn(payload) == 7
        assert cache.schema.fields[1].size_fn(payload) == 200  # no exact size
