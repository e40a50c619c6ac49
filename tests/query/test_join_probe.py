"""Same-leaf merge-join probes account exactly like the cursor sequence.

``merge_probe_join`` calls ``BTreeCursor.probe`` once per distinct key; a
probe whose match run lies on the cursor's leased leaf is one bisect and
one slice with its touches counted in one step.  The reference below is
the explicit ``seek``/``current``/``advance`` loop the join used before.
Both run on twin catalogs; the yielded values, ``PoolStats``,
``pool.epoch``, disk I/O and the LRU frame order must all come out equal.
"""

import random

import pytest

from repro.query.join import merge_probe_join
from repro.storage.catalog import Catalog
from repro.storage.page import PageId
from repro.storage.record import CharField, IntField, Schema

SCHEMA = Schema([IntField("key"), IntField("value"), CharField("pad", 24)])
PAGE_SIZE = 512


def reference_join(keys, tree, project=None):
    """The record-at-a-time join: seek, then current/advance per match."""
    cursor = tree.cursor()
    key_index = tree._key_index
    out = []
    last_key = object()
    last_matches = []
    for key in keys:
        if key == last_key:
            out.extend(last_matches)
            continue
        cursor.seek(key)
        last_key = key
        last_matches = []
        record = cursor.current()
        while record is not None and record[key_index] == key:
            value = project(record) if project is not None else record
            last_matches.append(value)
            out.append(value)
            cursor.advance()
            record = cursor.current()
    return out


def make_system(inner_keys, buffer_pages, unique):
    catalog = Catalog(buffer_pages=buffer_pages, page_size=PAGE_SIZE)
    tree = catalog.create_btree("inner", SCHEMA, "key", unique=unique)
    tree.bulk_load([(k, i, "p" * (k % 20)) for i, k in enumerate(inner_keys)])
    heap = catalog.create_heap("outer", Schema([IntField("key")]))
    heap.insert_many([(k,) for k in range(400)])
    catalog.pool.clear(flush=True)
    return catalog, tree, heap


def run_join(join, inner_keys, probe_keys, buffer_pages, unique, lazy):
    catalog, tree, heap = make_system(inner_keys, buffer_pages, unique)
    pool = catalog.pool
    keys = probe_keys
    if lazy:
        # An outer stream that fetches a heap page before each key, the
        # way scanning the sorted temporary does between pages.
        def pulled():
            for i, key in enumerate(probe_keys):
                pool.fetch(PageId(heap.file_id, i % heap.num_pages))
                yield key

        keys = pulled()
    values = list(join(keys, tree, project=lambda r: (r[0], r[1])))
    return {
        "values": values,
        "stats": pool.stats.snapshot(),
        "epoch": pool.epoch,
        "io": (pool.disk.reads, pool.disk.writes),
        "lru": list(pool.resident_pages()),
    }


def leaf_last_keys(tree):
    """The last key of every leaf, read without touching the pool."""
    disk = tree.pool.disk
    keys = []
    for page_no, meta in sorted(tree._meta.items()):
        if meta.is_leaf:
            page = disk.peek_page(PageId(tree.file_id, page_no))
            batch = page.record_batch()
            if batch:
                keys.append(batch[-1][0])
    return sorted(keys)


def check(inner_keys, probe_keys, buffer_pages=5, unique=True, lazy=False):
    fast = run_join(merge_probe_join, inner_keys, probe_keys, buffer_pages, unique, lazy)
    slow = run_join(reference_join, inner_keys, probe_keys, buffer_pages, unique, lazy)
    assert fast == slow
    return fast


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("buffer_pages", [3, 5, 8])
@pytest.mark.parametrize("lazy", [False, True], ids=["list", "lazy"])
def test_duplicate_and_absent_keys(seed, buffer_pages, lazy):
    rng = random.Random(seed)
    inner = list(range(0, 3000, 2))
    probes = sorted(rng.randrange(3100) for _ in range(rng.randrange(50, 600)))
    result = check(inner, probes, buffer_pages, lazy=lazy)
    assert len(result["values"]) == sum(1 for k in probes if k % 2 == 0 and k < 3000)


@pytest.mark.parametrize("buffer_pages", [3, 8])
def test_key_equal_to_leaf_last_key(buffer_pages):
    inner = list(range(0, 3000, 3))
    catalog, tree, _ = make_system(inner, buffer_pages, True)
    last_keys = leaf_last_keys(tree)
    assert len(last_keys) > 5
    probes = sorted(last_keys + [k + 3 for k in last_keys] + [k - 3 for k in last_keys])
    check(inner, probes, buffer_pages)
    check(inner, sorted(last_keys * 2), buffer_pages, lazy=True)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("buffer_pages", [3, 8])
def test_non_unique_runs_crossing_leaves(seed, buffer_pages):
    rng = random.Random(seed)
    inner = sorted(rng.randrange(400) for _ in range(2500))
    catalog, tree, _ = make_system(inner, buffer_pages, False)
    probes = sorted(rng.randrange(420) for _ in range(300))
    probes += leaf_last_keys(tree)
    probes.sort()
    result = check(inner, probes, buffer_pages, unique=False)
    counts = {}
    for key in inner:
        counts[key] = counts.get(key, 0) + 1
    assert len(result["values"]) == sum(counts.get(k, 0) for k in probes)
    check(inner, probes, buffer_pages, unique=False, lazy=True)


def test_every_key_and_empty_outer():
    inner = list(range(1000))
    check(inner, inner)
    check(inner, [])
    check(inner, [-5, 2000])


def test_probe_leaves_cursor_where_the_sequence_does():
    inner = list(range(0, 2000, 2))
    fast = make_system(inner, 8, True)[1].cursor()
    tree = make_system(inner, 8, True)[1]
    slow = tree.cursor()
    key_index = tree._key_index
    for key in [10, 12, 13, 14, 500, 501, 1998, 2500]:
        matches = fast.probe(key)
        slow.seek(key)
        expected = []
        record = slow.current()
        while record is not None and record[key_index] == key:
            expected.append(record)
            slow.advance()
            record = slow.current()
        assert matches == expected
        assert (fast._page_no, fast._slot) == (slow._page_no, slow._slot)
        assert fast.tree.pool.stats.snapshot() == tree.pool.stats.snapshot()
