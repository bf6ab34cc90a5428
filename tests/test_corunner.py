"""Unit tests for the SMT co-runner."""

import random

import numpy as np
import pytest

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


@pytest.mark.parametrize("earlier", ("none", "app"))
def test_prefill_equals_line_by_line_installs_at_table5(earlier):
    """At the Table 5 geometry every colocated run prefills (16,384 L3
    sets), the whole-array prefill leaves each level's lines, sizes and
    counters, evictions included, exactly as per-line installs do: on a
    fresh hierarchy, and over application lines (which it shifts down
    and partly evicts)."""
    fast, slow = CacheHierarchy(), CacheHierarchy()
    for hierarchy in (fast, slow):
        if earlier == "app":
            rng = random.Random(7)
            for _ in range(20_000):
                hierarchy.access_line(rng.randrange(1 << 30))
    Corunner(seed=3).prefill(fast)
    _prefill_one_by_one(Corunner(seed=3), slow)
    assert _cache_state(fast) == _cache_state(slow)
    assert all(cache.stats.evictions > 0
               for cache in (fast.l1, fast.l2, fast.l3))


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


def _reference_stream(corunner: Corunner, seed: int, batches: int):
    """The co-runner's stream drawn by the per-element loop the
    vectorised merge replaced: ``batches`` batches of its generator's
    draws, as one list of lines and one of take counts."""
    from repro.workloads import corunner as m

    rng = np.random.default_rng(seed)
    n = corunner._batch
    merged, takes = [], []
    for _ in range(batches):
        data = rng.integers(0, corunner.footprint_lines, size=n,
                            dtype=np.int64) + m._CORUNNER_LINE_BASE
        pt1 = rng.integers(0, corunner.pt_lines, size=n,
                           dtype=np.int64) + m._CORUNNER_PT_BASE
        extra = (rng.random(n)
                 < (corunner.walk_lines_per_access - 1.0)).tolist()
        pt2 = rng.integers(0, max(1, corunner.pt_lines >> 9), size=n,
                           dtype=np.int64) + m._CORUNNER_PT_BASE * 3
        for i in range(n):
            merged.append(int(data[i]))
            merged.append(int(pt1[i]))
            if extra[i]:
                merged.append(int(pt2[i]))
                takes.append(3)
            else:
                takes.append(2)
    return merged, takes


def test_refill_merge_matches_scalar_reference():
    """The vectorised _refill merge is byte-identical to the per-element
    loop it replaced: same rng draws in the same order, same interleaved
    [data, pt1(, pt2)] stream, same per-slot take counts."""
    fast = Corunner(seed=123, batch=4096)
    fast._refill()
    merged, takes = _reference_stream(fast, 123, 1)
    assert fast._lines.tolist() == merged
    assert fast._takes.tolist() == takes


@pytest.mark.parametrize("batch", (5, 8, 12))
def test_steps_issue_every_drawn_group_across_refills(batch):
    """Each step issues the next ``intensity`` groups of the stream, in
    order, at its own clock, whether a refill lands inside the step's
    groups (batch 5 or 12 against intensity 8) or between steps (8):
    every drawn group is issued once and none is skipped."""
    corunner = Corunner(seed=17, batch=batch, intensity=8)
    hierarchy = CacheHierarchy(_SMALL)
    issued = []
    access = hierarchy.access

    def recording(line, now=0):
        issued.append((line, now))
        return access(line, now)

    hierarchy.access = recording
    steps = 40
    for now in range(steps):
        corunner.step(hierarchy, now)
    merged, takes = _reference_stream(corunner, 17, -(-steps * 8 // batch))
    lines = sum(takes[:steps * 8])
    assert [line for line, _ in issued] == merged[:lines]
    ends = np.cumsum(takes[:steps * 8]).reshape(steps, 8)[:, -1]
    assert [now for _, now in issued] == np.repeat(
        np.arange(steps), np.diff(ends, prepend=0)).tolist()
    assert corunner.accesses == steps
