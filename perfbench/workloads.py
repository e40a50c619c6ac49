"""The benchmark's workloads: Figure-4-shaped sweeps at the paper's scale.

Every workload is a list of ``SweepPoint`` cells run through
``repro.experiments.pool.run_sweep(points, jobs=1)``, the path
``repro report --no-point-cache`` takes.  All three run at the paper's
full scale (10,000 ParentRel tuples, ShareFactor 5, 2 KB pages) and warm
up on the first quarter of each sequence, as Figure 4 does.  A *cell* is
one parameter setting; every strategy of a cell replays the same
sequence, so their answers must agree retrieve by retrieve.

The retrieve counts per cell are uneven on purpose.  A percentile that
falls in the gap between two modes of the latency mix jumps from run to
run.  On ``probe-fit`` two thirds of the retrieves have NumTop 10, which
puts the p50 inside that mode; the slowest tenth of the retrieves is
then half of the NumTop-100 retrieves of DFS and DFSCLUST, which puts
the p90 in the middle of their common mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.pool import SweepPoint
from repro.workload.params import WorkloadParams

#: Figure 4 measures after a warm-up over the first quarter of a sequence.
WARMUP_FRACTION = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: WorkloadParams fields shared by every cell (besides the seed).
    base: Tuple[Tuple[str, object], ...]
    #: ((WorkloadParams fields of the cell), retrieves per point).
    cells: Tuple[Tuple[Tuple[Tuple[str, object], ...], int], ...]
    strategies: Tuple[str, ...]
    #: "fits": the working set of every shape fits the buffer and every
    #: unit fits the unit cache.  "spills": the working set is at least
    #: ten times the buffer.  "churns": the working set spills and the
    #: unit cache holds fewer units than exist.  Checked on every run.
    claim: str

    def cell_params(self, seed: int) -> List[WorkloadParams]:
        base = WorkloadParams(seed=seed).replace(**dict(self.base))
        return [base.replace(**dict(fields)) for fields, _ in self.cells]

    def points(self, seed: int) -> List[SweepPoint]:
        """The sweep, cell by cell, every strategy of a cell in turn."""
        points = []
        for params, (_, retrieves) in zip(self.cell_params(seed), self.cells):
            for strategy in self.strategies:
                points.append(
                    SweepPoint(
                        params=params,
                        strategy=strategy,
                        num_retrieves=retrieves,
                        warmup_fraction=WARMUP_FRACTION,
                    )
                )
        return points


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="probe-fit",
            why=(
                "working set fits the 2,500-page buffer and the 2,000-unit "
                "cache: B-tree point descents, buffer hits, cache probes and "
                "cluster chases, almost no disk reads or sorts"
            ),
            base=(("buffer_pages", 2500), ("size_cache", 2000)),
            cells=(
                ((("num_top", 10), ("pr_update", 0.0)), 240),
                ((("num_top", 100), ("pr_update", 0.0)), 120),
            ),
            strategies=("DFS", "DFSCACHE", "DFSCLUST", "SMART"),
            claim="fits",
        ),
        Workload(
            name="scan-spill",
            why=(
                "NumTop 2,000 over the paper's 100-page buffer: parent range "
                "scan, temp spooling, external sort and merge join dominate; "
                "point lookups and the unit cache idle"
            ),
            base=(),
            cells=(((("num_top", 2000), ("pr_update", 0.0)), 80),),
            strategies=("BFS", "BFSNODUP"),
            claim="spills",
        ),
        Workload(
            name="update-churn",
            why=(
                "Pr(UPDATE) 0.5 and 0.9 beside NumTop-100 reads: in-place "
                "updates, copy-on-write, dirty evictions, ClusterRel updates "
                "and cache invalidation on the read layers"
            ),
            base=(),
            cells=(
                ((("num_top", 100), ("pr_update", 0.5)), 150),
                ((("num_top", 100), ("pr_update", 0.9)), 150),
            ),
            strategies=("DFSCACHE", "DFSCLUST", "BFS"),
            claim="churns",
        ),
    )
}
