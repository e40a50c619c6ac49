"""Strategy interface and registry.

Figure 2 of the paper maps the four OID-representation points (caching x
clustering) onto five query-processing strategies, and Section 5.3 adds
SMART.  Every strategy implements the same two operations — a multiple-dot
retrieve and an in-place subobject update — against a
:class:`~repro.core.database.ComplexObjectDB`, attributing its page I/O to
the :data:`parent <repro.core.measure.PARENT_PHASE>` /
:data:`child <repro.core.measure.CHILD_PHASE>` /
:data:`update <repro.core.measure.UPDATE_PHASE>` phases of a
:class:`~repro.core.measure.CostMeter`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type

from repro.core.database import ComplexObjectDB
from repro.core.measure import CostMeter, NullMeter, UPDATE_PHASE
from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.errors import QueryError


@dataclass(frozen=True)
class DatabaseNeeds:
    """The database a strategy runs against.

    This is the one rule for picking a strategy's database: every caller
    that builds, shares or groups databases per strategy asks
    :meth:`Strategy.database_needs` instead of testing strategy names.
    """

    #: Build ClusterRel (DFSCLUST).
    clustering: bool = False
    #: Build the outside unit cache.
    cache: bool = False
    #: Store a procedure per parent (the PROC-* strategies).
    procedural: bool = False
    #: Enable the per-object inside cache after the build (DFSCACHE-INSIDE).
    inside_cache: bool = False

    def build_flags(self) -> Dict[str, bool]:
        """Keyword arguments for ``build_database`` and ``DatabaseCache``."""
        return {
            "clustering": self.clustering,
            "cache": self.cache,
            "procedural": self.procedural,
        }

    def prepare(self, db: ComplexObjectDB, params: Any) -> ComplexObjectDB:
        """Add to a built ``db`` what no build flag provides; returns ``db``."""
        if self.inside_cache and db.inside_cache is None:
            db.enable_inside_cache(
                params.size_cache,
                unit_bytes_hint=params.size_unit * params.child_bytes,
            )
        return db


class Strategy(abc.ABC):
    """A query-processing strategy for the OID representation."""

    #: Registry key and display name ("DFS", "BFS", ...).
    name: str = "?"
    #: Whether the strategy reads/maintains the unit cache.
    uses_cache: bool = False
    #: Whether the strategy runs against ClusterRel instead of
    #: ParentRel/ChildRel.
    uses_clustering: bool = False
    #: Whether the strategy evaluates stored procedures (the procedural
    #: primary representation) instead of following OID units.
    procedural: bool = False
    #: Whether the strategy's cache is the per-object inside cache
    #: rather than the outside unit cache.
    inside_cache: bool = False

    def database_needs(
        self, cache: Optional[bool] = None, procedural: bool = False
    ) -> DatabaseNeeds:
        """The database this strategy runs against.

        Procedural strategies share one database shape, cache included,
        whether or not they read the cache.  ``cache`` (when not None)
        and ``procedural=True`` override the rule for experiments that
        run several strategies against one shared database.
        """
        if cache is None:
            cache = self.procedural or (self.uses_cache and not self.inside_cache)
        return DatabaseNeeds(
            clustering=self.uses_clustering,
            cache=cache,
            procedural=procedural or self.procedural,
            inside_cache=self.inside_cache,
        )

    def check_database(self, db: ComplexObjectDB) -> None:
        """Raise QueryError unless ``db`` has what this strategy needs."""
        if self.uses_cache and db.cache is None:
            raise QueryError("strategy %s needs a cache-enabled database" % self.name)
        if self.uses_clustering and db.cluster is None:
            raise QueryError(
                "strategy %s needs a clustering-enabled database" % self.name
            )

    @abc.abstractmethod
    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        """Execute the retrieve, returning the list of attribute values."""

    def update(
        self,
        db: ComplexObjectDB,
        update: UpdateQuery,
        meter: Optional[CostMeter] = None,
    ) -> None:
        """Apply an update the way this representation requires.

        Non-clustered strategies update ChildRel in place; clustered ones
        update ClusterRel.  Cache-maintaining strategies additionally pay
        the I-lock invalidations.
        """
        meter = meter or NullMeter()
        with meter.phase(UPDATE_PHASE):
            db.apply_update(
                update.refs,
                update.value,
                through_cluster=self.uses_clustering,
                invalidate_cache=self.uses_cache,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<strategy %s>" % self.name


#: All registered strategies by name; populated by @register.
REGISTRY: Dict[str, Type[Strategy]] = {}


def register(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator adding a strategy to :data:`REGISTRY`."""
    if not cls.name or cls.name == "?":
        raise ValueError("strategy class %r has no name" % cls)
    if cls.name in REGISTRY:
        raise ValueError("duplicate strategy name %r" % cls.name)
    REGISTRY[cls.name] = cls
    return cls


def make_strategy(name: str, **kwargs: Any) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise QueryError(
            "unknown strategy %r (known: %s)" % (name, ", ".join(sorted(REGISTRY)))
        ) from None
    return cls(**kwargs)
