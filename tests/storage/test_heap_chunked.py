"""Chunked heap appends account exactly like a record-at-a-time loop.

``HeapFile.insert_many`` appends a list of fixed-size records one tail-page
run at a time and counts the run's tail touches arithmetically.  The
reference below is the literal algorithm it replaces: one
``BufferPool.writable`` touch of the tail per record, a fresh page when
the record does not fit.  Both run the same seeded operation sequence on
twin catalogs; records, page images, ``PoolStats``, ``pool.epoch``, disk
I/O and the LRU frame order must all come out equal.
"""

import random

import pytest

from repro.errors import RecordError
from repro.storage.catalog import Catalog
from repro.storage.page import PAGE_HEADER_BYTES, SLOT_BYTES, PageId
from repro.storage.record import IntField, Schema

OID_SCHEMA = Schema([IntField("oid")])
PAIR_SCHEMA = Schema([IntField("oid"), IntField("rel")])
PAGE_SIZE = 256


def reference_append(heap, records):
    """Append ``records`` one at a time with a real pool touch per record."""
    pool = heap.pool
    schema = heap.schema
    for record in records:
        schema.validate(record)
        size = schema.record_size(record)
        if heap._tail_page_no is not None:
            page = pool.writable(PageId(heap.file_id, heap._tail_page_no))
            if page.fits(size):
                page.insert(record, size)
                pool.mark_dirty(page.page_id)
                heap._num_records += 1
                continue
        page = pool.new_page(heap.file_id)
        page.codec = schema.codec
        heap._tail_page_no = page.page_id.page_no
        page.insert(record, size)
        heap._num_records += 1


def make_system(schema, buffer_pages):
    catalog = Catalog(buffer_pages=buffer_pages, page_size=PAGE_SIZE)
    heap = catalog.create_heap("spool", schema)
    other = catalog.create_heap("other", schema)
    return catalog, heap, other


def state(catalog, heap):
    """Everything the accounting can influence, read without touching the pool."""
    pool = catalog.pool
    disk = pool.disk
    pages = []
    for page_no in range(heap.num_pages):
        page = disk.peek_page(PageId(heap.file_id, page_no))
        pages.append(
            (list(page.record_batch()), page.used_bytes, page.free_bytes,
             page.version, page.to_bytes())
        )
    frames = [
        (pid, pool.is_dirty(pid)) for pid in pool.resident_pages()
    ]
    return {
        "pages": pages,
        "num_records": heap.num_records,
        "stats": pool.stats.snapshot(),
        "epoch": pool.epoch,
        "io": (disk.reads, disk.writes),
        "lru": frames,
    }


def run_ops(ops, schema, buffer_pages, chunked):
    catalog, heap, other = make_system(schema, buffer_pages)
    for op, arg in ops:
        if op == "append":
            if chunked:
                assert heap.insert_many(list(arg)) == len(arg)
            else:
                reference_append(heap, arg)
        elif op == "other":
            # Foreign pool traffic: breaks the tail lease and, in a small
            # pool, evicts the tail between appends.
            other.insert_many(list(arg))
            for _ in other.scan_pages():
                pass
        elif op == "lazy":
            # A lazy source that fetches a page of another file before
            # each record (like a merge stream): the per-record loop.
            pool = catalog.pool

            def pulled(batch):
                for record in batch:
                    if other.num_pages:
                        pool.fetch(PageId(other.file_id, record[0] % other.num_pages))
                    yield record

            if chunked:
                heap.insert_many(pulled(arg))
            else:
                reference_append(heap, pulled(arg))
        elif op == "freeze":
            # What a snapshot attach leaves behind: every page shared and
            # sealed, so the next append must copy the tail on write.
            catalog.pool.disk.freeze()
        elif op == "clear":
            catalog.pool.clear(flush=True)
    heap.check_invariants()
    return state(catalog, heap)


def random_ops(seed, arity):
    rng = random.Random(seed)
    ops = []
    key = 0
    for _ in range(40):
        roll = rng.random()
        if roll < 0.6:
            size = rng.choice([0, 1, 2, 5, 5, 17, 40, 120])
            batch = [tuple(key + i + j for j in range(arity)) for i in range(size)]
            key += size
            ops.append(("append" if roll < 0.5 else "lazy", batch))
        elif roll < 0.8:
            ops.append(("other", [tuple([key] * arity)] * rng.randrange(1, 60)))
        elif roll < 0.9:
            ops.append(("freeze", None))
        else:
            ops.append(("clear", None))
    return ops


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("buffer_pages", [3, 5, 8])
@pytest.mark.parametrize("schema", [OID_SCHEMA, PAIR_SCHEMA], ids=["oid", "pair"])
def test_chunked_matches_record_at_a_time(seed, buffer_pages, schema):
    ops = random_ops(seed, len(schema))
    chunked = run_ops(ops, schema, buffer_pages, chunked=True)
    reference = run_ops(ops, schema, buffer_pages, chunked=False)
    assert chunked == reference
    assert chunked["stats"].evictions > 0 or buffer_pages == 8


def per_page(schema):
    size = schema._fixed_record_size
    return (PAGE_SIZE - PAGE_HEADER_BYTES) // (size + SLOT_BYTES)


def test_frozen_resident_tail_copied_on_write():
    ops = [
        ("append", [(i,) for i in range(7)]),
        ("freeze", None),
        ("append", [(i,) for i in range(7, 50)]),
    ]
    chunked = run_ops(ops, OID_SCHEMA, 4, chunked=True)
    assert chunked == run_ops(ops, OID_SCHEMA, 4, chunked=False)
    assert len(chunked["pages"]) > 1


def test_frozen_tail_after_attach_refetched_and_copied():
    ops = [
        ("append", [(i,) for i in range(50)]),
        ("freeze", None),
        ("clear", None),
        ("append", [(i,) for i in range(50, 60)]),
    ]
    chunked = run_ops(ops, OID_SCHEMA, 3, chunked=True)
    assert chunked == run_ops(ops, OID_SCHEMA, 3, chunked=False)


def test_list_exactly_filling_a_page():
    fill = per_page(OID_SCHEMA)
    ops = [("append", [(i,) for i in range(fill)])]
    chunked = run_ops(ops, OID_SCHEMA, 3, chunked=True)
    assert chunked == run_ops(ops, OID_SCHEMA, 3, chunked=False)
    assert len(chunked["pages"]) == 1
    assert chunked["pages"][0][2] < 4 + SLOT_BYTES  # no room for another
    # The next record costs the touch that finds the tail full, then a new page.
    ops.append(("append", [(fill,)]))
    chunked = run_ops(ops, OID_SCHEMA, 3, chunked=True)
    assert chunked == run_ops(ops, OID_SCHEMA, 3, chunked=False)
    assert len(chunked["pages"]) == 2


def test_bad_record_rejects_the_whole_call():
    catalog, heap, _ = make_system(OID_SCHEMA, 3)
    heap.insert_many([(i,) for i in range(10)])
    before = state(catalog, heap)
    good = [(i,) for i in range(10, 90)]
    for bad in [("x",), (1.5,), (1, 2), ()]:
        for position in (0, 1, 37, 79, 80):
            with pytest.raises(RecordError):
                heap.insert_many(good[:position] + [bad] + good[position:])
    assert state(catalog, heap) == before


def test_int_subclass_still_accepted():
    class Key(int):
        pass

    catalog, heap, _ = make_system(OID_SCHEMA, 3)
    assert heap.insert_many([(1,), (Key(2),)]) == 2
    with pytest.raises(RecordError):
        heap.insert_many([(True,)])
    assert heap.num_records == 2


def test_every_record_validated():
    calls = []

    class CountingSchema(Schema):
        def validate(self, record):
            calls.append(record)
            return super().validate(record)

    schema = CountingSchema([IntField("oid")])
    records = [(1,), (2,), ("3",)]
    catalog = Catalog(buffer_pages=3, page_size=PAGE_SIZE)
    heap = catalog.create_heap("spool", schema)
    with pytest.raises(RecordError):
        heap.insert_many(records)
    # The bulk check failed, so each record was validated individually.
    assert calls == records
    assert heap.num_records == 0


def test_insert_returns_address_via_list_path():
    catalog, heap, _ = make_system(OID_SCHEMA, 3)
    fill = per_page(OID_SCHEMA)
    rids = [heap.insert((i,)) for i in range(fill + 2)]
    assert rids[0] == (0, 0)
    assert rids[fill - 1] == (0, fill - 1)
    assert rids[fill] == (1, 0)
    assert [heap.fetch(rid) for rid in rids] == [(i,) for i in range(fill + 2)]
