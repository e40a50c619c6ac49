"""Golden trace-digest regression suite.

``trace_digests.json`` was generated from the pre-rewrite engine
(decoded-tuple pages, per-record iteration through the buffer pool); see
``generate_digests.py``.  These tests certify that the raw-speed engine
— zero-copy slotted pages, epoch-guarded buffer leases, batched record
iteration — reproduces every measured number of the original engine bit
for bit: the SHA-256 digest of the physical page-access stream, the
driver's cost accounting, the buffer pool's hit/miss/eviction counters
and the unit cache's counters.

The whole matrix (11 strategies x 3 configs, about 6 s) runs in the
normal suite.  A smoke subset (one strategy per engine subsystem) is
kept as its own test so a failure names the subsystem first; the
``golden_digests`` marker selects the rest of the matrix::

    PYTHONPATH=src python -m pytest tests/golden -m golden_digests
"""

import json
import os

import pytest

from tests.golden.generate_digests import CONFIGS, GOLDEN_PATH, STRATEGIES, run_point

#: Digest-sensitive subset covering each subsystem: plain B-tree probes
#: (DFS), temporaries + sort + merge join (BFS), the unit cache and the
#: update/invalidation path (DFSCACHE under mixed), ISAM + ClusterRel
#: (DFSCLUST), and the cold-retrieve flush path (OPT).
SMOKE = (
    ("retrieve", "DFS"),
    ("retrieve", "BFS"),
    ("mixed", "DFSCACHE"),
    ("retrieve", "DFSCLUST"),
    ("cold", "OPT"),
)

ALL_POINTS = [
    (label, name) for label, _, _, _ in CONFIGS for name in STRATEGIES
]


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.skip("golden digest file missing; run generate_digests.py")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _config(label):
    for config_label, scale, overrides, run_kwargs in CONFIGS:
        if config_label == label:
            return scale, overrides, run_kwargs
    raise KeyError(label)


def _check_point(golden, label, name):
    scale, overrides, run_kwargs = _config(label)
    expected = golden["points"]["%s/%s" % (label, name)]
    actual = run_point(name, scale, overrides, run_kwargs)
    # The digest is the strongest check (it pins the exact event stream);
    # comparing the full dicts keeps failures readable, field by field.
    assert actual == expected


@pytest.mark.parametrize("label,name", SMOKE)
def test_smoke_digest_bit_identical(golden, label, name):
    _check_point(golden, label, name)


@pytest.mark.golden_digests
@pytest.mark.parametrize(
    "label,name",
    [point for point in ALL_POINTS if point not in SMOKE],
)
def test_digest_bit_identical(golden, label, name):
    _check_point(golden, label, name)
