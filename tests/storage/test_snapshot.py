"""Copy-on-write snapshots: frozen pages, clone isolation, the store."""

import os
import pickle

import pytest

from repro.errors import FrozenPageError
from repro.storage import arena
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import Page, PageId
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.generator import build_database


def make_page(records=("a", "b")) -> Page:
    page = Page(PageId(0, 0), 256)
    for record in records:
        page.insert(record, 10)
    return page


class TestFrozenPage:
    def test_frozen_page_refuses_every_mutator(self):
        page = make_page()
        page.freeze()
        with pytest.raises(FrozenPageError):
            page.insert("c", 10)
        with pytest.raises(FrozenPageError):
            page.insert_at(0, "c", 10)
        with pytest.raises(FrozenPageError):
            page.replace(0, "c", 10)
        with pytest.raises(FrozenPageError):
            page.delete(0)
        with pytest.raises(FrozenPageError):
            page.pop_all()

    def test_frozen_page_still_reads(self):
        page = make_page()
        page.freeze()
        assert list(page) == ["a", "b"]
        assert page.get(1) == "b"

    def test_copy_is_mutable_and_equal(self):
        page = make_page()
        page.replace(0, "a2", 12)  # bump the version pre-freeze
        page.freeze()
        dup = page.copy()
        assert not dup.frozen
        assert list(dup) == list(page)
        assert dup.version == page.version  # btree key caches stay valid
        assert dup.used_bytes == page.used_bytes
        dup.insert("c", 10)
        assert list(page) == ["a2", "b"]  # original untouched


class TestDiskCow:
    def _disk_with_pages(self, pages=2):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        for i in range(pages):
            page = disk.allocate_page(fid)
            page.insert("r%d" % i, 10)
        return disk, fid

    def test_freeze_seals_every_page(self):
        disk, fid = self._disk_with_pages()
        disk.freeze()
        for page_no in range(2):
            with pytest.raises(FrozenPageError):
                disk.peek_page(PageId(fid, page_no)).insert("x", 10)

    def test_cow_page_swaps_in_a_private_copy(self):
        disk, fid = self._disk_with_pages()
        disk.freeze()
        frozen = disk.peek_page(PageId(fid, 0))
        thawed = disk.cow_page(PageId(fid, 0))
        assert thawed is not frozen
        assert not thawed.frozen
        assert disk.peek_page(PageId(fid, 0)) is thawed
        # Idempotent: the second call returns the already-private copy.
        assert disk.cow_page(PageId(fid, 0)) is thawed

    def test_cow_page_on_mutable_page_is_identity(self):
        disk, fid = self._disk_with_pages()
        page = disk.peek_page(PageId(fid, 0))
        assert disk.cow_page(PageId(fid, 0)) is page

    def test_clone_shares_pages_with_fresh_counters(self):
        disk, fid = self._disk_with_pages()
        disk.read_page(PageId(fid, 0))
        dup = disk.clone()
        assert dup.peek_page(PageId(fid, 1)) is disk.peek_page(PageId(fid, 1))
        assert dup.reads == 0 and dup.writes == 0


class TestBufferWritable:
    def test_writable_accounting_matches_fetch(self):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        disk.allocate_page(fid)
        pool = BufferPool(disk, capacity=4)
        pool.writable(PageId(fid, 0))  # miss
        pool.writable(PageId(fid, 0))  # hit
        assert (pool.stats.misses, pool.stats.hits) == (1, 1)
        assert disk.reads == 1

    def test_writable_cows_frozen_page_without_io(self):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        disk.allocate_page(fid).insert("a", 10)
        disk.freeze()
        pool = BufferPool(disk, capacity=4)
        frozen = pool.fetch(PageId(fid, 0))
        reads_before = disk.reads
        page = pool.writable(PageId(fid, 0))
        assert page is not frozen and not page.frozen
        # The private copy is free: a real engine modifies the buffered
        # frame in place, so no extra I/O may be charged.
        assert disk.reads == reads_before
        page.insert("b", 10)
        # Later fetches see the private copy, not the frozen template.
        assert pool.fetch(PageId(fid, 0)) is page


class TestSnapshotAttach:
    @pytest.fixture
    def snapshot(self, tiny_params):
        return Snapshot.freeze(build_database(tiny_params))

    def _unit(self, db):
        rel_index, keys = db.unit_ref_of(db.fetch_parent(1))
        return rel_index, keys[0]

    def test_clone_pages_start_frozen_until_written(self, snapshot):
        # Isolation between clones hinges on every clone page starting
        # frozen: the first write goes through the pool's copy-on-write
        # path instead of mutating state another clone can observe.
        one, two = snapshot.attach(), snapshot.attach()
        pages_one = [p for ps in one.disk._files.values() for p in ps]
        pages_two = [p for ps in two.disk._files.values() for p in ps]
        assert pages_one and len(pages_one) == len(pages_two)
        assert all(p.frozen for p in pages_one)

    def test_clone_mutation_is_invisible_to_other_clones(self, snapshot):
        one, two = snapshot.attach(), snapshot.attach()
        rel_index, key = self._unit(one)
        ret1 = one.child_schema.field_index("ret1")
        before = two.fetch_child(rel_index, key)
        one.apply_update([(rel_index, key)], 424242)
        assert one.fetch_child(rel_index, key)[ret1] == 424242
        assert two.fetch_child(rel_index, key) == before

    def test_roundtrips_through_pickle(self, snapshot):
        # Frozen pages pickle as their byte images; a revived template
        # still attaches clones that answer like the original.
        revived = Snapshot(pickle.loads(pickle.dumps(snapshot._db)))
        db = revived.attach()
        rel_index, key = self._unit(db)
        assert db.fetch_child(rel_index, key) == snapshot.attach().fetch_child(
            rel_index, key
        )

    def test_template_survives_clone_mutation(self, snapshot):
        one = snapshot.attach()
        rel_index, key = self._unit(one)
        one.apply_update([(rel_index, key)], 777)
        later = snapshot.attach()
        assert later.fetch_child(rel_index, key)[
            later.child_schema.field_index("ret1")
        ] != 777


class TestSnapshotStore:
    def _snapshot(self, tiny_params):
        return Snapshot.freeze(build_database(tiny_params))

    def _unit_of(self, db):
        rel_index, keys = db.unit_ref_of(db.fetch_parent(1))
        return rel_index, keys[0]

    def test_roundtrip_memory_then_disk(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.get("k") is None
        store.put("k", self._snapshot(tiny_params))
        assert store.get("k") is not None
        assert store.stats == {
            "memory_hits": 1,
            "disk_hits": 0,
            "misses": 1,
            "puts": 1,
            "corrupt": 0,
        }
        # A second store over the same root reads the file back.
        fresh = SnapshotStore(str(tmp_path))
        assert fresh.get("k") is not None
        assert fresh.stats["disk_hits"] == 1

    def test_memory_lru_is_bounded(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path), max_memory_entries=2)
        snapshot = self._snapshot(tiny_params)
        for key in ("a", "b", "c"):
            store.put(key, snapshot)
        assert len(store._memory) == 2
        assert store.get("a") is not None  # evicted from memory, on disk
        assert store.stats["disk_hits"] == 1

    def test_different_fingerprint_misses(self, tiny_params, tmp_path):
        old = SnapshotStore(str(tmp_path), fingerprint="a" * 64)
        old.put("k", self._snapshot(tiny_params))
        new = SnapshotStore(str(tmp_path), fingerprint="b" * 64)
        assert new.get("k") is None
        # The stale file stays visible for `repro dbcache ls` / `clear`.
        assert len(new.entries()) == 1

    def test_corrupt_file_is_a_miss(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.put("k", self._snapshot(tiny_params))
        path = store._arena_path("k")
        with open(path, "wb") as handle:
            handle.write(b"not an arena")
        # Model a fresh process: the writer's registry pins the
        # pre-damage mapping, a new process parses the file anew.
        arena.registry().discard(path)
        fresh = SnapshotStore(str(tmp_path))
        assert fresh.get("k") is None
        assert fresh.stats["misses"] == 1
        assert fresh.stats["corrupt"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_corrupt_legacy_pickle_is_a_miss(self, tiny_params, tmp_path):
        # A pickle file an older store left under the key's name is
        # never read: the arena is the only format.
        store = SnapshotStore(str(tmp_path))
        legacy = store._arena_path("k")[: -len(".arena")] + ".pkl"
        with open(legacy, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get("k") is None
        assert store.stats["misses"] == 1
        assert store.stats["corrupt"] == 0
        assert os.path.exists(legacy)

    def test_reput_same_key_serves_the_new_content(self, tiny_params, tmp_path):
        # Regression: put k->A, put k->B, then a same-process get (even
        # through a fresh store) must attach B — the bytes on disk —
        # not the registry's cached mapping of A's replaced file.
        first = build_database(tiny_params)
        second = build_database(tiny_params)
        rel_index, key = self._unit_of(second)
        second.apply_update([(rel_index, key)], 424242)
        store = SnapshotStore(str(tmp_path))
        store.put("k", Snapshot.freeze(first))
        assert store.get("k").attach().fetch_child(rel_index, key)[
            first.child_schema.field_index("ret1")
        ] != 424242
        store.put("k", Snapshot.freeze(second))
        ret1 = second.child_schema.field_index("ret1")
        for reader in (store, SnapshotStore(str(tmp_path))):
            db = reader.get("k").attach()
            assert db.fetch_child(rel_index, key)[ret1] == 424242

    def test_stray_files_of_any_suffix_are_listed_and_cleared(
        self, tiny_params, tmp_path
    ):
        store = SnapshotStore(str(tmp_path))
        store.put("k", self._snapshot(tiny_params))
        stray = tmp_path / ("db-%s-old.pkl" % ("0" * 12))
        stray.write_bytes(b"left by an older store")
        quarantined = tmp_path / ("db-%s-bad.arena.corrupt" % ("0" * 12))
        quarantined.write_bytes(b"evidence")
        names = [name for name, _, _ in store.entries()]
        assert stray.name in names and quarantined.name not in names
        assert len(names) == 2
        assert store.clear() == 3
        assert os.listdir(str(tmp_path)) == []

    def test_clear_and_bytes_on_disk(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.put("k", self._snapshot(tiny_params))
        assert store.bytes_on_disk() > 0
        assert store.clear() == 1
        assert store.bytes_on_disk() == 0
        assert store.entries() == []
