"""Join operators against B-tree inner relations.

Two joins cover everything the paper's strategies need:

* :func:`merge_probe_join` — the "competitive BFS" merge join (Section
  3.1).  The outer is a *sorted* stream of keys (the sorted temporary of
  OIDs); the inner is a B-tree on the join key.  Probing keys in ascending
  order degenerates into a single coordinated forward walk: each
  qualifying inner leaf page is touched once, and leaves containing no
  probe key are skipped via (hot) index pages.  Duplicate outer keys hit
  the already-resident leaf, which is why BFSNODUP "is not much better
  than simple BFS" in Figure 3.  Each distinct key is one
  :meth:`~repro.storage.btree.BTreeCursor.probe`; a probe whose matches
  lie on the cursor's current leaf costs one bisect and one slice, its
  ``2 + 2*matches`` leaf touches counted in one step.

* :func:`iterative_substitution_join` — the nested-loop join INGRES calls
  iterative substitution: one full B-tree descent per outer key, in outer
  order.  This is what DFS does implicitly and what the optimizer would
  pick for tiny outers.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.obs.trace import stage
from repro.storage.btree import BTreeFile

Projector = Callable[[Tuple[Any, ...]], Any]


def merge_probe_join(
    sorted_keys: Iterable[Any],
    inner: BTreeFile,
    project: Optional[Projector] = None,
) -> Iterator[Any]:
    """Join ascending ``sorted_keys`` against ``inner`` (B-tree on the key).

    Yields the projected inner record for every (key occurrence, match)
    pair — i.e. duplicate probe keys yield duplicate results, like a real
    join.  Keys absent from the inner are skipped silently (no such keys
    arise in the reproduction workload, but the operator is total).

    Each distinct key is one :meth:`BTreeCursor.probe`, which accounts
    all of that key's leaf touches before its matches are yielded (the
    same counts and order as a touch per yielded match, for a consumer
    that performs no pool operations between yields — every strategy
    drains the join into a list).  A repeated key re-emits the previous
    matches without touching the leaf again.

    Traced page accesses are attributed to the ``merge-join`` stage for
    the generator's whole lifetime, including reads the *outer* stream
    performs while being pulled (scanning the sorted temporary is part
    of the join's cost).
    """
    with stage("merge-join"):
        probe = inner.cursor().probe
        last_key = object()
        matches: List[Any] = []
        for key in sorted_keys:
            if key != last_key:
                last_key = key
                matches = probe(key)
                if project is not None:
                    matches = [project(record) for record in matches]
            yield from matches


def iterative_substitution_join(
    keys: Iterable[Any],
    inner: BTreeFile,
    project: Optional[Projector] = None,
) -> Iterator[Any]:
    """Nested-loop join: one B-tree lookup per outer key, in outer order."""
    with stage("probe"):
        for key in keys:
            for record in inner.lookup(key):
                yield project(record) if project is not None else record
