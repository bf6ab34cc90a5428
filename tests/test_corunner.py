"""Unit tests for the SMT co-runner."""

import random

from repro.mem.hierarchy import CacheHierarchy
from repro.params import CacheParams, HierarchyParams
from repro.workloads.corunner import _CORUNNER_LINE_BASE, Corunner


def test_step_generates_cache_traffic():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=1)
    for _ in range(100):
        corunner.step(hierarchy, 0)
    assert corunner.accesses == 100
    # Data line + PT line(s) per access.
    total = sum(hierarchy.served.values())
    assert total >= 200


def test_intensity_multiplies_traffic():
    h1 = CacheHierarchy()
    c1 = Corunner(seed=1, intensity=1)
    h4 = CacheHierarchy()
    c4 = Corunner(seed=1, intensity=4)
    for _ in range(200):
        c1.step(h1, 0)
        c4.step(h4, 0)
    assert sum(h4.served.values()) > 3 * sum(h1.served.values())


def test_lines_do_not_collide_with_low_memory():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=2)
    corunner.step(hierarchy, 0)
    # Everything the co-runner touches sits above 2^37 in line space.
    for cache in (hierarchy.l1,):
        for line in cache.resident_lines():
            assert line >= 1 << 37


def test_prefill_fills_all_cache_levels():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=3)
    corunner.prefill(hierarchy)
    assert hierarchy.l3.occupancy == hierarchy.params.l3.lines
    assert hierarchy.l2.occupancy == hierarchy.params.l2.lines
    assert hierarchy.l1.occupancy == hierarchy.params.l1.lines


def _prefill_one_by_one(corunner: Corunner, hierarchy: CacheHierarchy):
    total = hierarchy.params.l3.lines + hierarchy.params.l2.lines
    step = max(1, corunner.footprint_lines // (total + 1))
    line = _CORUNNER_LINE_BASE
    for _ in range(total):
        hierarchy.l1.install(line)
        hierarchy.l2.install(line)
        hierarchy.l3.install(line)
        line += step


def _cache_state(hierarchy: CacheHierarchy):
    return [(c.lines, c.sizes, c.stats)
            for c in (hierarchy.l1, hierarchy.l2, hierarchy.l3)]


#: A scaled-down Table 5 hierarchy (same ways, 1/8 to 1/64 of the sets),
#: so the per-line reference stays quick.
_SMALL = HierarchyParams(
    l1=CacheParams(size_bytes=4 * 1024, ways=8, latency=4),
    l2=CacheParams(size_bytes=32 * 1024, ways=8, latency=12),
    l3=CacheParams(size_bytes=320 * 1024, ways=20, latency=40),
)


def test_prefill_equals_line_by_line_installs():
    """The bulk prefill leaves every level exactly as installing its
    lines one at a time does: on a fresh hierarchy, over application
    lines, and over an earlier prefill (the per-line path)."""
    for earlier in ("none", "app", "prefill"):
        fast, slow = CacheHierarchy(_SMALL), CacheHierarchy(_SMALL)
        for hierarchy in (fast, slow):
            rng = random.Random(5)
            if earlier == "app":
                for _ in range(5_000):
                    hierarchy.access_line(rng.randrange(1 << 30))
            elif earlier == "prefill":
                _prefill_one_by_one(Corunner(seed=4), hierarchy)
        Corunner(seed=3).prefill(fast)
        _prefill_one_by_one(Corunner(seed=3), slow)
        assert _cache_state(fast) == _cache_state(slow), earlier


def test_prefill_and_step_drop_resident_images():
    """Both write the cache lists, so neither may leave a compiled-kernel
    image behind (repro.sim.columnar)."""
    for act in (lambda h: Corunner(seed=1).prefill(h),
                lambda h: Corunner(seed=1).step(h, 0)):
        hierarchy = CacheHierarchy(_SMALL)
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            cache.image = object()
        act(hierarchy)
        assert [hierarchy.l1.image, hierarchy.l2.image,
                hierarchy.l3.image] == [None, None, None]


def test_prefill_lines_are_evictable_junk():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=3)
    corunner.prefill(hierarchy)
    # An application line still misses and installs normally.
    result = hierarchy.access_line(123)
    assert result.level == "MEM"
    assert hierarchy.access_line(123).level == "L1"


def test_deterministic_stream():
    h1, h2 = CacheHierarchy(), CacheHierarchy()
    c1, c2 = Corunner(seed=9), Corunner(seed=9)
    for _ in range(500):
        c1.step(h1, 0)
        c2.step(h2, 0)
    assert h1.served == h2.served


def test_refill_merge_matches_scalar_reference():
    """The vectorised _refill merge is byte-identical to the per-element
    loop it replaced: same rng draws in the same order, same interleaved
    [data, pt1(, pt2)] stream, same per-slot take counts."""
    import numpy as np

    from repro.workloads import corunner as m

    fast = Corunner(seed=123, batch=4096)
    fast._refill()

    rng = np.random.default_rng(123)
    n = 4096
    data = rng.integers(0, fast.footprint_lines, size=n,
                        dtype=np.int64) + m._CORUNNER_LINE_BASE
    pt1 = rng.integers(0, fast.pt_lines, size=n,
                       dtype=np.int64) + m._CORUNNER_PT_BASE
    extra = (rng.random(n) < (fast.walk_lines_per_access - 1.0)).tolist()
    pt2 = rng.integers(0, max(1, fast.pt_lines >> 9), size=n,
                       dtype=np.int64) + m._CORUNNER_PT_BASE * 3
    merged, takes = [], []
    for i in range(n):
        merged.append(int(data[i]))
        merged.append(int(pt1[i]))
        if extra[i]:
            merged.append(int(pt2[i]))
            takes.append(3)
        else:
            takes.append(2)
    assert fast._buffer == merged
    assert fast._takes == takes
