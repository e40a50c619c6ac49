"""Copy-on-write database snapshots and their on-disk store.

Building the experimental database is the dominant cost of a cold sweep:
every (shape, strategy) cell that misses the in-process database cache
pays a full seeded rebuild of ParentRel/ChildRel/ClusterRel before a
single query is measured.  The build is fully deterministic, so — like
the OCB benchmark's reusable object bases — a built database is an
artifact worth keeping.

* :class:`Snapshot` — a built database frozen into an immutable
  template: dirty frames flushed, counters zeroed, every page sealed
  (:meth:`repro.storage.page.Page.freeze`).  :meth:`Snapshot.attach`
  returns a fully mutable clone by deep-copying the Python-side
  structures while sharing the frozen pages.  Clone pages stay frozen
  until first write: the buffer pool's write path copies a page the
  first time a clone dirties it
  (:meth:`repro.storage.buffer.BufferPool.writable`), so clones never
  observe each other's updates and the template is never modified.
  This in-process path serves store-less runs, the serving layer's
  version chain and the snapshot state machine.

* :class:`SnapshotStore` — a persistent, process-shared store of frozen
  databases, one flat mmap **arena** file per shape under
  ``results/.dbcache/`` (:mod:`repro.storage.arena`, ``*.arena``),
  fronted by a small in-memory LRU.  Loading an arena maps the file
  read-only and shares its page images across every attach in the
  process with zero pickling of page payloads, so pool workers and
  repeated report runs attach in milliseconds instead of rebuilding.
  Filenames embed the source fingerprint, so any code change orphans
  every stored snapshot at once.  Re-putting a key discards the
  registry's mapping of the replaced file, so a same-process ``get``
  always attaches what is on disk.

Copy-on-write never changes measured costs: a real engine modifies the
already-buffered frame in place, so the private copy is free — page
sharing exists only because the simulator's "disk" holds live objects.
"""

from __future__ import annotations

import copy
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CacheCorrupt
from repro.fault import plan as _fault
from repro.obs import spans as _spans
from repro.storage import arena as _arena
from repro.storage.arena import ArenaSnapshot
from repro.util import atomic as _atomic


class Snapshot:
    """An immutable template of a built database.

    Create one per database shape with :meth:`freeze`; get a runnable
    clone per sweep point with :meth:`attach`.  The wrapped database
    object becomes the template and must not be run directly afterwards
    (its pages refuse mutation).
    """

    def __init__(self, db: Any) -> None:
        self._db = db

    @classmethod
    def freeze(cls, db: Any) -> "Snapshot":
        """Seal ``db``: flush dirty frames, zero counters, freeze pages."""
        with _spans.span("snapshot.freeze"):
            db.start_measurement(cold=True)
            disk = db.disk
            # A tracer hooked into this build must not leak into templates
            # (closures are neither picklable nor meaningful across clones).
            disk.io_hook = None
            disk.freeze()
        return cls(db)

    def attach(self) -> Any:
        """A fresh, fully mutable database clone sharing frozen pages.

        Seeding the deepcopy memo with every page maps each page to
        itself, so the copy descends through all Python-side metadata but
        stops at page boundaries — O(#files + #pages) pointer work, not
        O(bytes).  Page sharing also shares each page's lazily *decoded*
        record list across all clones: the first clone to touch a page
        pays the byte decode, every later clone reads the records for
        free.  (A pickle-round-trip clone benchmarks faster in isolation
        but loses that shared decode cache, and re-decoding per clone
        costs more than the deepcopy saves.)  Immutable building blocks
        (schemas, units, ``PageId``/``Oid`` tuples) short-circuit the
        descent via ``__deepcopy__`` returning ``self``.
        """
        with _spans.span("snapshot.attach"):
            disk = self._db.disk
            memo: Dict[int, Any] = {
                id(page): page for pages in disk._files.values() for page in pages
            }
            return copy.deepcopy(self._db, memo)


class SnapshotStore:
    """Persistent store of database snapshots, shared across processes.

    Keys are arbitrary strings (the sweep layer uses a hash of the
    database shape); each key maps to one arena file under ``root``.  A
    bounded in-memory LRU of attachable handles fronts the files so
    repeated attaches in one process skip the disk.

    Concurrency: writes go through :func:`repro.util.atomic.write_atomic`
    (temp file, fsync, atomic rename), and builds are deterministic, so
    workers racing on one key write identical bytes — last writer wins
    harmlessly and readers never see a torn file.

    Crash safety: an arena's structural regions are SHA-256 checksummed
    and verified on load (:mod:`repro.storage.arena`).  A truncated,
    torn or bit-flipped file fails verification, is quarantined
    (renamed ``*.corrupt``) and counts as a miss — the caller rebuilds
    deterministically and overwrites it.
    """

    FILE_PREFIX = "db-"

    def __init__(
        self,
        root: str,
        max_memory_entries: int = 4,
        fingerprint: Optional[str] = None,
    ) -> None:
        if fingerprint is None:
            from repro.util.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        self.root = root
        self.fingerprint = fingerprint
        self.max_memory_entries = max_memory_entries
        #: Memory tier of ArenaSnapshot (or, if a reload failed, Snapshot)
        #: handles.  Guarded by ``_memory_lock`` — the serving layer's
        #: threads hit the store concurrently and OrderedDict mutation is
        #: not atomic.
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._memory_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
        }

    def _arena_path(self, key: str) -> str:
        return os.path.join(
            self.root, "%s%s-%s.arena" % (self.FILE_PREFIX, self.fingerprint[:12], key)
        )

    def get(self, key: str) -> Optional[Any]:
        """The snapshot for ``key``, or None (memory tier, then arena file).

        A stored file that fails checksum verification — torn write,
        bit rot, or an injected ``snapshot.load`` fault — is quarantined
        and reported as a miss; corruption is never an error here.  Hits
        return an :class:`~repro.storage.arena.ArenaSnapshot` backed by
        the process-wide registry (one mmap + stub build per process).
        """
        with self._memory_lock:
            snapshot = self._memory.get(key)
            if snapshot is not None:
                self._memory.move_to_end(key)
                self.stats["memory_hits"] += 1
                return snapshot
        path = self._arena_path(key)
        try:
            state = _arena.registry().load(path)
        except FileNotFoundError:
            state = None
        except (CacheCorrupt, OSError, ValueError):
            # Structural damage (or an injected snapshot.load fault):
            # quarantine and miss — the caller rebuilds deterministically
            # and overwrites the arena.
            _arena.registry().discard(path)
            self.stats["corrupt"] += 1
            _atomic.quarantine(path)
            state = None
        if state is None:
            self.stats["misses"] += 1
            return None
        snapshot = ArenaSnapshot(state)
        self._remember(key, snapshot)
        self.stats["disk_hits"] += 1
        return snapshot

    def put(self, key: str, snapshot: Snapshot) -> None:
        """Persist ``snapshot`` under ``key`` as an arena (atomic replace).

        May raise :class:`~repro.errors.FaultInjected` (``snapshot.save``
        site) or ``OSError``; callers degrade to store-less operation.
        """
        _fault.hit("snapshot.save")
        self._remember(key, snapshot)
        os.makedirs(self.root, exist_ok=True)
        path = self._arena_path(key)
        _atomic.write_atomic(path, _arena.build_arena(snapshot._db))
        self.stats["puts"] += 1
        # The registry may still map the file this put replaced (same
        # key, different content): drop it so the reload below — and
        # every later get() in this process — reads the bytes just
        # written, not the old inode.
        _arena.registry().discard(path)
        # Serve same-process re-attaches from the arena we just wrote,
        # not the builder's Snapshot: the memory tier then hands out the
        # exact object a cold process would load, so cold and warm
        # attaches take one code path (and the much cheaper one —
        # metadata-only unpickle, zero payload bytes).
        try:
            state = _arena.registry().load(path)
        except Exception:
            pass  # keep the Snapshot; the next disk read re-verifies
        else:
            self._remember(key, ArenaSnapshot(state))

    def _remember(self, key: str, snapshot: Snapshot) -> None:
        with self._memory_lock:
            self._memory[key] = snapshot
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # maintenance / introspection (the ``repro dbcache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, int, float]]:
        """``(filename, bytes, mtime)`` for every stored snapshot file.

        Lists *all* fingerprints and any ``db-*`` file left by older
        stores (not just the current arenas), so stale files are visible
        (and countable) before a ``clear``.  Quarantined ``*.corrupt``
        files are not snapshots and are skipped.
        """
        out: List[Tuple[str, int, float]] = []
        for name in self._stored_names():
            if name.endswith(".corrupt"):
                continue
            try:
                info = os.stat(os.path.join(self.root, name))
            except OSError:
                continue
            out.append((name, info.st_size, info.st_mtime))
        return out

    def bytes_on_disk(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def clear(self) -> int:
        """Delete every ``db-*`` file (stored or quarantined), any suffix."""
        removed = 0
        for name in self._stored_names():
            path = os.path.join(self.root, name)
            _arena.registry().discard(path)
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        with self._memory_lock:
            self._memory.clear()
        return removed

    def _stored_names(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        return [name for name in names if name.startswith(self.FILE_PREFIX)]
