"""Unit tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import EMPTY, SetAssociativeCache
from repro.params import CacheParams
from repro.sim.columnar import _CacheImage


def small_cache(ways: int = 2, sets: int = 4) -> SetAssociativeCache:
    params = CacheParams(size_bytes=64 * ways * sets, ways=ways, latency=1)
    return SetAssociativeCache(params, name="test")


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(10)
    cache.install(10)
    assert cache.lookup(10)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_lru_eviction_order():
    cache = small_cache(ways=2, sets=1)
    cache.install(1)
    cache.install(2)
    cache.lookup(1)  # promote 1 to MRU; 2 becomes LRU
    victim = cache.install(3)
    assert victim == 2
    assert cache.contains(1)
    assert not cache.contains(2)


def test_install_existing_line_is_not_an_eviction():
    cache = small_cache(ways=2, sets=1)
    cache.install(1)
    cache.install(2)
    victim = cache.install(1)
    assert victim is None
    assert cache.stats.evictions == 0


def test_sets_isolate_conflicts():
    cache = small_cache(ways=1, sets=4)
    # Lines 0 and 4 conflict (same set); 1 does not.
    cache.install(0)
    cache.install(1)
    cache.install(4)
    assert not cache.contains(0)
    assert cache.contains(1)
    assert cache.contains(4)


def test_lookup_without_lru_update_keeps_order():
    cache = small_cache(ways=2, sets=1)
    cache.install(1)
    cache.install(2)
    cache.lookup(1, update_lru=False)
    victim = cache.install(3)
    assert victim == 1  # still LRU despite the probe


def test_invalidate_and_flush():
    cache = small_cache()
    cache.install(7)
    assert cache.invalidate(7)
    assert not cache.invalidate(7)
    cache.install(8)
    cache.flush()
    assert cache.occupancy == 0


def test_occupancy_bounded_by_capacity():
    cache = small_cache(ways=2, sets=4)
    for line in range(100):
        cache.install(line)
    assert cache.occupancy <= 8


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheParams(size_bytes=100, ways=2, latency=1)  # not line aligned
    with pytest.raises(ValueError):
        CacheParams(size_bytes=64 * 3, ways=2, latency=1)  # 3 lines, 2 ways


def test_hit_rate():
    cache = small_cache()
    cache.install(1)
    cache.lookup(1)
    cache.lookup(2)
    assert cache.stats.hit_rate == pytest.approx(0.5)


def _state(cache: SetAssociativeCache):
    return cache.lines, cache.sizes, cache.stats


@settings(max_examples=300, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4, 8]),
    setup=st.lists(st.tuples(st.sampled_from(["install", "install",
                                              "lookup", "invalidate"]),
                             st.integers(0, 40)), max_size=40),
    batch=st.lists(st.integers(0, 60), max_size=40),
    distinct=st.booleans(),
)
def test_install_many_equals_installs_in_order(ways, sets, setup, batch,
                                               distinct):
    """Bulk install leaves lines, sizes and counters exactly as the same
    installs one by one — from any reachable state, on the bulk path
    (distinct, non-resident lines) and on the per-line one."""
    if distinct:
        batch = [line + 100 for line in dict.fromkeys(batch)]
    one, bulk = small_cache(ways, sets), small_cache(ways, sets)
    for cache in (one, bulk):
        for op, line in setup:
            getattr(cache, op)(line)
    for line in batch:
        one.install(line)
    bulk.image = object()
    bulk.install_many(np.array(batch, dtype=np.int64))
    assert _state(bulk) == _state(one)
    assert bulk.image is None or not batch


@settings(max_examples=200, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4, 8]),
    ops=st.lists(st.tuples(st.sampled_from(["install", "install", "lookup",
                                            "invalidate", "flush"]),
                           st.integers(0, 40)), max_size=60),
)
def test_slots_past_a_set_size_hold_empty(ways, sets, ops):
    """From any reachable state, every slot past a set's size holds
    ``EMPTY``: the compiled kernel's image of an empty cache relies on
    it."""
    cache = small_cache(ways, sets)
    for op, line in ops:
        getattr(cache, op)(*(() if op == "flush" else (line,)))
        for index, size in enumerate(cache.sizes):
            base = index * cache.stride
            assert cache.lines[base + size:base + cache.stride] == \
                [EMPTY] * (cache.stride - size)


def test_cache_image_equals_its_lists():
    """An empty cache's image is built without converting its lists; it
    must still equal them: a new cache, a flushed one, and one filled
    and then invalidated back to empty.  A filled cache's image is its
    lists converted."""
    new = small_cache(4, 8)
    flushed = small_cache(4, 8)
    drained = small_cache(4, 8)
    filled = small_cache(4, 8)
    for cache in (flushed, drained, filled):
        for line in range(0, 300, 7):
            cache.install(line)
    flushed.flush()
    for line in sorted(drained.resident_lines(), key=lambda x: x % 5):
        drained.invalidate(line)
    for cache, empty in ((new, True), (flushed, True), (drained, True),
                         (filled, False)):
        assert any(cache.sizes) != empty
        image = _CacheImage(cache)
        assert image.lines.dtype == image.sizes.dtype == np.int64
        assert np.array_equal(image.lines, np.asarray(cache.lines))
        assert np.array_equal(image.sizes, np.asarray(cache.sizes))
        assert not image.touched.any()
