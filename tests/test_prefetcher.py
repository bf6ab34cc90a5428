"""Unit tests for the ASAP prefetch engine."""

import pytest

from repro.core.config import AsapConfig, BASELINE, FULL_2D, P1, P1_P2
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import RangeRegisterFile, VmaDescriptor
from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.constants import level_shift

VMA_START = 0x5555_0000_0000
VMA_SIZE = 1 << 30
PL1_BASE = 0x10_0000_0000
PL2_BASE = 0x20_0000_0000


def make_prefetcher(levels=(1, 2), hole_checker=None):
    hierarchy = CacheHierarchy()
    rrf = RangeRegisterFile()
    rrf.load([
        VmaDescriptor(
            start=VMA_START,
            end=VMA_START + VMA_SIZE,
            level_bases=tuple((lvl, base) for lvl, base in
                              ((1, PL1_BASE), (2, PL2_BASE))
                              if lvl in levels),
        )
    ])
    prefetcher = AsapPrefetcher(hierarchy, rrf, levels=levels,
                                hole_checker=hole_checker)
    return prefetcher, hierarchy


def test_prefetches_target_computed_lines():
    prefetcher, hierarchy = make_prefetcher()
    va = VMA_START + 0x1234_5000
    completions = prefetcher.on_tlb_miss(va, now=0)
    assert set(completions) == {1, 2}
    expected_pl1 = (PL1_BASE + (va >> level_shift(1)) * 8) >> 6
    expected_pl2 = (PL2_BASE + (va >> level_shift(2)) * 8) >> 6
    assert hierarchy.l1.contains(expected_pl1)
    assert hierarchy.l1.contains(expected_pl2)
    assert prefetcher.stats.useful == 2


def test_completion_times_reflect_hierarchy_state():
    prefetcher, hierarchy = make_prefetcher(levels=(1,))
    va = VMA_START
    cold = prefetcher.on_tlb_miss(va, now=0)
    assert cold[1] == 191
    warm = prefetcher.on_tlb_miss(va, now=1000)
    assert warm[1] == 1000 + 4  # the line is in the L1-D now


def test_miss_outside_tracked_vmas_is_silent():
    prefetcher, hierarchy = make_prefetcher()
    completions = prefetcher.on_tlb_miss(0x1234_0000, now=0)
    assert completions == {}
    assert prefetcher.stats.no_descriptor == 1
    assert hierarchy.prefetches_issued == 0


def test_hole_prefetch_pollutes_but_reports_nothing():
    prefetcher, hierarchy = make_prefetcher(
        levels=(1,), hole_checker=lambda va, level: True
    )
    completions = prefetcher.on_tlb_miss(VMA_START, now=0)
    assert completions == {}
    assert prefetcher.stats.wasted_on_hole == 1
    # The useless line was still fetched (cache pollution is modelled).
    assert hierarchy.prefetches_issued == 1


def test_mshr_exhaustion_drops_prefetches():
    prefetcher, hierarchy = make_prefetcher(levels=(1,))
    for line in range(hierarchy.params.mshr_entries):
        hierarchy.prefetch_line(10_000 + line, now=0)
    completions = prefetcher.on_tlb_miss(VMA_START, now=0)
    assert completions == {}
    assert prefetcher.stats.dropped_no_mshr == 1


def test_p1_config_prefetches_only_pl1():
    prefetcher, _ = make_prefetcher(levels=P1.native_levels)
    completions = prefetcher.on_tlb_miss(VMA_START, now=0)
    assert set(completions) == {1}


def test_accuracy_stat():
    prefetcher, _ = make_prefetcher(levels=(1,))
    prefetcher.on_tlb_miss(VMA_START, now=0)
    assert prefetcher.stats.accuracy == 1.0


class TestAsapConfig:
    def test_baseline_disabled(self):
        assert not BASELINE.enabled
        assert BASELINE.name == "Baseline"

    def test_ladder_names_match_paper(self):
        assert P1.name == "P1"
        assert P1_P2.name == "P1+P2"
        assert FULL_2D.name == "P1g+P1h+P2g+P2h"

    def test_levels_are_sorted_and_deduped(self):
        cfg = AsapConfig(native_levels=(2, 1, 2))
        assert cfg.native_levels == (1, 2)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            AsapConfig(native_levels=(4,))

    def test_dimension_flags(self):
        assert P1_P2.needs_native_layout
        assert not P1_P2.needs_guest_layout
        assert FULL_2D.needs_guest_layout
        assert FULL_2D.needs_host_layout
