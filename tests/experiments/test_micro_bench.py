"""The ``cache_probe`` micro-benchmark checks its own record counts."""

from repro.experiments import bench


def test_cache_probe_counts_units_and_grows_overflow_chains():
    result = bench.bench_cache_probe(repeat=2, units=300, warmup=0)
    assert result["units"] == 300
    assert result["overflow_pages"] > 0
    assert result["ns_per_op"] > 0
    assert "cache_probe" in bench.BENCHMARKS
