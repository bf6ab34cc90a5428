"""Unit tests for the three-level cache hierarchy and prefetch path."""

import pytest

from repro.mem.hierarchy import CacheHierarchy
from repro.params import CacheParams, HierarchyParams


def test_cold_access_goes_to_memory(hierarchy):
    result = hierarchy.access_line(42)
    assert result.level == "MEM"
    assert result.latency == 191


def test_fill_path_installs_in_all_levels(hierarchy):
    hierarchy.access_line(42)
    assert hierarchy.l1.contains(42)
    assert hierarchy.l2.contains(42)
    assert hierarchy.l3.contains(42)
    assert hierarchy.access_line(42).level == "L1"


def test_l2_hit_after_l1_eviction():
    params = HierarchyParams(
        l1=CacheParams(size_bytes=2 * 64, ways=1, latency=4),
        l2=CacheParams(size_bytes=64 * 64, ways=4, latency=12),
        l3=CacheParams(size_bytes=1024 * 64, ways=4, latency=40),
    )
    hierarchy = CacheHierarchy(params)
    hierarchy.access_line(0)
    hierarchy.access_line(2)  # same L1 set (2 sets), evicts 0 from L1
    result = hierarchy.access_line(0)
    assert result.level == "L2"
    assert result.latency == 12


def test_latencies_match_table5(hierarchy):
    assert hierarchy.latency_of("L1") == 4
    assert hierarchy.latency_of("L2") == 12
    assert hierarchy.latency_of("L3") == 40
    assert hierarchy.latency_of("MEM") == 191


def test_access_addr_uses_line_granularity(hierarchy):
    hierarchy.access_addr(0x1000)
    # Bytes 0x1000..0x103f share a line.
    assert hierarchy.access_addr(0x103F).level == "L1"
    # 0x1040 is the next line.
    assert hierarchy.access_addr(0x1040).level == "MEM"


def test_prefetch_installs_and_completes(hierarchy):
    completion = hierarchy.prefetch_line(9, now=100)
    assert completion == 100 + 191
    assert hierarchy.l1.contains(9)
    assert hierarchy.access_line(9).level == "L1"


def test_prefetch_of_resident_line_is_l1_hit(hierarchy):
    hierarchy.access_line(9)
    completion = hierarchy.prefetch_line(9, now=10)
    assert completion == 10 + 4


def test_prefetch_dropped_without_mshr(hierarchy):
    # Fill every MSHR with distinct in-flight lines at the same time.
    for line in range(hierarchy.params.mshr_entries):
        assert hierarchy.prefetch_line(line, now=0) is not None
    dropped = hierarchy.prefetch_line(999, now=0)
    assert dropped is None
    assert hierarchy.prefetches_dropped == 1
    # The dropped prefetch must not have installed into L1.
    assert not hierarchy.l1.contains(999)


def test_mshrs_retire_over_time(hierarchy):
    for line in range(hierarchy.params.mshr_entries):
        hierarchy.prefetch_line(line, now=0)
    # At t=500 all previous misses have completed (191 cycles).
    assert hierarchy.prefetch_line(999, now=500) is not None


def test_demand_merges_with_inflight_prefetch():
    hierarchy = CacheHierarchy()
    completion = hierarchy.prefetch_line(5, now=0)
    hierarchy.l1.invalidate(5)  # force the demand miss to hit the MSHR path
    result = hierarchy.access_line(5, now=50)
    assert result.level == "MSHR"
    assert result.latency == completion - 50


def test_served_counters(hierarchy):
    hierarchy.access_line(1)
    hierarchy.access_line(1)
    hierarchy.access_line(2)
    assert hierarchy.served["MEM"] == 2
    assert hierarchy.served["L1"] == 1


def test_flush_and_reset(hierarchy):
    hierarchy.access_line(1)
    hierarchy.flush()
    hierarchy.reset_stats()
    assert hierarchy.access_line(1).level == "MEM"
    assert hierarchy.served["MEM"] == 1


def test_warm_preinstalls(hierarchy):
    hierarchy.warm([1, 2, 3])
    for line in (1, 2, 3):
        assert hierarchy.access_line(line).level == "L1"


@pytest.mark.parametrize("mutate", [
    lambda h: h.access_line(7),
    lambda h: h.prefetch_line(7, now=0),
    lambda h: h.warm([7]),
    lambda h: h.flush(),
    lambda h: h.drop_images(),
], ids=["access_line", "prefetch_line", "warm", "flush", "drop_images"])
def test_public_writes_drop_resident_images(hierarchy, mutate):
    """The compiled kernel's resident cache images must never outlive a
    Python-side write to the cache lists (repro.sim.columnar)."""
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        cache.image = object()
    mutate(hierarchy)
    assert [hierarchy.l1.image, hierarchy.l2.image,
            hierarchy.l3.image] == [None, None, None]


@pytest.mark.parametrize("mutate", [
    lambda c: c.lookup(7),
    lambda c: c.install(7),
    lambda c: c.invalidate(7),
    lambda c: c.flush(),
    lambda c: c.install_many([7, 8]),
], ids=["lookup", "install", "invalidate", "flush", "install_many"])
def test_cache_mutators_drop_resident_image(hierarchy, mutate):
    cache = hierarchy.l2
    cache.image = object()
    mutate(cache)
    assert cache.image is None
