"""Point lookups account exactly like the literal cursor sequence.

``lookup``, ``lookup_one`` and ``update_field`` share one same-leaf rule
(``BTreeFile._same_leaf_run``): when a key's run of matches ends before
the leaf's last key, the ``2 + 2*matches`` touches of the literal
``seek``/``current``/``advance`` walk are counted in one step.  The
reference below is that walk on a cursor whose every touch is a real
``BufferPool.fetch``, followed by ``update``'s second descent for
``update_field``.  Twin catalogs run the same operations on evicting
pools; the returned records, ``PoolStats``, ``pool.epoch``, disk reads
and writes, the LRU frame order and the leaf contents must all agree.

The second half pins the disk-owned ``PageId`` lists the probes index:
a file's list grows in place, truncate and shrink rebuild it, and a
clone's list is its own.
"""

import pickle
import random

import pytest

from repro.errors import FileNotFoundError_, KeyNotFoundError
from repro.storage.btree import BTreeCursor
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskManager
from repro.storage.hashfile import HashFile
from repro.storage.page import PageId
from repro.storage.record import CharField, IntField, Schema

SCHEMA = Schema([IntField("key"), IntField("value"), CharField("pad", 24)])
PAGE_SIZE = 512


class LiteralCursor(BTreeCursor):
    """A cursor whose every touch is a real pool fetch (no lease)."""

    def _touch(self, page_no):
        return self.tree.pool.fetch(PageId(self.tree.file_id, page_no))


def reference_lookup(tree, key):
    if tree._root is None:
        return []
    cursor = LiteralCursor(tree)
    cursor.seek(key)
    out = []
    record = cursor.current()
    while record is not None and tree.key_of(record) == key:
        out.append(record)
        cursor.advance()
        record = cursor.current()
    return out


def reference_lookup_one(tree, key):
    records = reference_lookup(tree, key)
    if not records:
        raise KeyNotFoundError(key)
    return records[0]


def reference_update_field(tree, key, field_name, value):
    old = reference_lookup_one(tree, key)
    index = tree.schema.field_index(field_name)
    new_record = old[:index] + (value,) + old[index + 1:]
    tree.update(key, new_record)
    return new_record


FAST = {
    "lookup": lambda tree, key: tree.lookup(key),
    "lookup_one": lambda tree, key: tree.lookup_one(key),
    "update_field": lambda tree, key: tree.update_field(key, "value", -key - 1),
}
REFERENCE = {
    "lookup": reference_lookup,
    "lookup_one": reference_lookup_one,
    "update_field": lambda tree, key: reference_update_field(tree, key, "value", -key - 1),
}


def make_system(inner_keys, buffer_pages, unique):
    catalog = Catalog(buffer_pages=buffer_pages, page_size=PAGE_SIZE)
    tree = catalog.create_btree("inner", SCHEMA, "key", unique=unique)
    tree.bulk_load([(k, i, "p" * (k % 20)) for i, k in enumerate(inner_keys)])
    heap = catalog.create_heap("other", Schema([IntField("key")]))
    heap.insert_many([(k,) for k in range(400)])
    catalog.pool.clear(flush=True)
    return catalog, tree, heap


def leaf_contents(tree):
    """Every leaf's records in chain order, read without touching the pool."""
    disk = tree.pool.disk
    out = []
    node = tree._first_leaf
    while node is not None:
        out.append(list(disk.peek_page(PageId(tree.file_id, node)).record_batch()))
        node = tree._meta[node].next_leaf
    return out


def run_ops(impl, inner_keys, ops, buffer_pages, unique):
    """Run ``(kind, key)`` ops; between ops, fetch another file's page so
    leases break and the small pool keeps evicting."""
    catalog, tree, heap = make_system(inner_keys, buffer_pages, unique)
    pool = catalog.pool
    trail = []
    for i, (kind, key) in enumerate(ops):
        try:
            result = impl[kind](tree, key)
        except KeyNotFoundError:
            result = "missing"
        trail.append((
            result,
            pool.stats.snapshot(),
            pool.epoch,
            (pool.disk.reads, pool.disk.writes),
            list(pool.resident_pages()),
        ))
        if i % 3 == 2:
            pool.fetch(PageId(heap.file_id, i % heap.num_pages))
    pool.flush_all()
    trail.append((leaf_contents(tree), pool.disk.reads, pool.disk.writes))
    return trail, tree


def check(inner_keys, ops, buffer_pages, unique=True):
    fast, tree = run_ops(FAST, inner_keys, ops, buffer_pages, unique)
    slow, _ = run_ops(REFERENCE, inner_keys, ops, buffer_pages, unique)
    assert len(fast) == len(slow)
    for step, (got, want) in enumerate(zip(fast, slow)):
        assert got == want, "diverged at op %d: %r" % (step, ops[step:step + 1])
    return fast, tree


def leaf_edge_keys(inner_keys, unique):
    """The first and last key of every leaf of the bulk-loaded tree."""
    _, tree, _ = make_system(inner_keys, 8, unique)
    keys = []
    for batch in leaf_contents(tree):
        if batch:
            keys += [batch[0][0], batch[-1][0]]
    assert len(keys) > 10
    return keys


def mixed_ops(rng, keys):
    kinds = sorted(FAST)
    return [(rng.choice(kinds), key) for key in keys]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("buffer_pages", [3, 5, 8])
def test_unique_keys(seed, buffer_pages):
    rng = random.Random(seed)
    inner = list(range(0, 3000, 3))
    edges = leaf_edge_keys(inner, True)
    keys = edges + [k + 1 for k in edges]  # leaf edges and absent keys
    keys += [rng.randrange(3000) for _ in range(150)]
    keys += [-5, 2999, 3000, 5000]  # below the minimum, above the maximum
    rng.shuffle(keys)
    trail, tree = check(inner, mixed_ops(rng, keys), buffer_pages)
    assert tree.height >= 3
    found = [step[0] for step in trail[:-1] if step[0] not in ("missing", [])]
    assert len(found) > 100


@pytest.mark.parametrize("kind", sorted(FAST))
@pytest.mark.parametrize("buffer_pages", [3, 5, 8])
def test_every_leaf_edge_per_entry_point(kind, buffer_pages):
    inner = list(range(0, 2000, 2))
    edges = leaf_edge_keys(inner, True)
    keys = sorted(edges + [k - 1 for k in edges] + [k + 1 for k in edges] + [4000])
    trail, _ = check(inner, [(kind, key) for key in keys], buffer_pages)
    if kind == "lookup":
        assert [step[0] for step in trail[:-1]] == [
            [(k, k // 2, "p" * (k % 20))] if 0 <= k < 2000 and k % 2 == 0 else []
            for k in keys
        ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("buffer_pages", [3, 5, 8])
def test_non_unique_runs_crossing_leaves(seed, buffer_pages):
    rng = random.Random(seed)
    inner = sorted(rng.randrange(300) for _ in range(2000))
    edges = leaf_edge_keys(inner, False)
    keys = edges + [rng.randrange(320) for _ in range(120)]
    rng.shuffle(keys)
    check(inner, mixed_ops(rng, keys), buffer_pages, unique=False)


def test_empty_tree():
    check([], [("lookup", 1), ("lookup_one", 1), ("update_field", 1)], 3)


# ----------------------------------------------------------------------
# PageId lists owned by the disk
# ----------------------------------------------------------------------
def test_page_id_list_grows_in_place():
    disk = DiskManager(PAGE_SIZE)
    file_id = disk.create_file("f")
    ids = disk.page_ids(file_id)
    assert ids == []
    for n in range(1, 6):
        disk.allocate_page(file_id)
        assert disk.page_ids(file_id) is ids
        assert ids == [PageId(file_id, i) for i in range(n)]


def test_truncate_and_shrink_rebuild_the_list():
    disk = DiskManager(PAGE_SIZE)
    file_id = disk.create_file("f")
    for _ in range(5):
        disk.allocate_page(file_id)
    ids = disk.page_ids(file_id)
    disk.shrink_file(file_id, 2)
    shrunk = disk.page_ids(file_id)
    assert shrunk is not ids
    assert shrunk == [PageId(file_id, 0), PageId(file_id, 1)]
    disk.allocate_page(file_id)
    assert disk.page_ids(file_id) is shrunk and len(shrunk) == 3
    disk.truncate_file(file_id)
    assert disk.page_ids(file_id) == []
    disk.drop_file(file_id)
    with pytest.raises(FileNotFoundError_):
        disk.page_ids(file_id)


def test_clone_list_is_independent():
    disk = DiskManager(PAGE_SIZE)
    file_id = disk.create_file("f")
    for _ in range(3):
        disk.allocate_page(file_id)
    template_ids = disk.page_ids(file_id)
    disk.freeze()
    for copy in (disk.clone(), pickle.loads(pickle.dumps(disk))):
        copy_ids = copy.page_ids(file_id)
        assert copy_ids is not template_ids and copy_ids == template_ids
        copy.allocate_page(file_id)
        assert len(copy.page_ids(file_id)) == 4
        assert len(template_ids) == 3 and disk.page_ids(file_id) is template_ids


def test_btree_splits_and_hash_overflow_extend_the_disk_list():
    catalog = Catalog(buffer_pages=8, page_size=PAGE_SIZE)
    tree = catalog.create_btree("t", SCHEMA, "key")
    tree.insert((0, 0, ""))
    ids = catalog.disk.page_ids(tree.file_id)
    keys = list(range(1, 600))
    random.Random(5).shuffle(keys)
    for key in keys:
        tree.insert((key, key, "p" * (key % 20)))
    assert tree.height >= 3
    assert catalog.disk.page_ids(tree.file_id) is ids and len(ids) == tree.num_pages
    assert all(tree.lookup_one(key)[1] == key for key in range(600))

    hashed = HashFile(catalog.pool, SCHEMA, "key", buckets=2, name="h")
    hash_ids = catalog.disk.page_ids(hashed.file_id)
    for key in range(200):
        hashed.insert((key, key, "p" * 20))
    assert hashed.overflow_pages() > 0
    assert catalog.disk.page_ids(hashed.file_id) is hash_ids
    assert len(hash_ids) == hashed.num_pages
    assert all(hashed.lookup(key)[1] == key for key in range(200))
    hashed.truncate()
    assert catalog.disk.page_ids(hashed.file_id) == [
        PageId(hashed.file_id, 0), PageId(hashed.file_id, 1)
    ]
