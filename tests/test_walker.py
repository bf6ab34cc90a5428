"""Unit tests for the 1D page walker, including ASAP overlap timing."""

import pytest

from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.radix import RadixPageTable
from repro.pagetable.walker import PageWalker

VA = 0x5555_0000_0000


def make_walker():
    hierarchy = CacheHierarchy()
    pwc = SplitPwc()
    return PageWalker(hierarchy, pwc), hierarchy, pwc


def mapped_pt(va=VA, frame=99):
    pt = RadixPageTable()
    pt.map_page(va, frame=frame)
    return pt


def test_cold_walk_costs_four_memory_accesses():
    walker, _, _ = make_walker()
    path = mapped_pt().walk_path(VA)
    outcome = walker.walk(path)
    # 2 (PWC probe) + 4 * 191 (all levels from DRAM).
    assert outcome.latency == 2 + 4 * 191
    assert [lvl for lvl, _ in outcome.records] == [4, 3, 2, 1]
    assert all(served == "MEM" for _, served in outcome.records)


def test_second_walk_hits_pwc_and_l1():
    walker, _, _ = make_walker()
    pt = mapped_pt()
    walker.walk(pt.walk_path(VA))
    outcome = walker.walk(pt.walk_path(VA))
    # PWC covers PL4..PL2; the PL1 line is in the L1-D.
    assert outcome.latency == 2 + 4
    assert outcome.records[:3] == [(4, "PWC"), (3, "PWC"), (2, "PWC")]
    assert outcome.records[3] == (1, "L1")


def test_pwc_hit_at_pl3_only():
    walker, _, pwc = make_walker()
    pt = mapped_pt()
    walker.walk(pt.walk_path(VA))
    # A different PL2 entry under the same PL3 node.
    other = VA + (1 << 21)
    pt.map_page(other, frame=100)
    outcome = walker.walk(pt.walk_path(other))
    assert outcome.records[0] == (4, "PWC")
    assert outcome.records[1] == (3, "PWC")
    assert outcome.records[2][0] == 2  # PL2 walked in memory hierarchy


def test_asap_prefetch_overlaps_pl1():
    walker, hierarchy, _ = make_walker()
    pt = mapped_pt()
    path = pt.walk_path(VA)
    now = 0
    # Simulate an ASAP prefetch of the PL1 line issued at walk start.
    completion = hierarchy.prefetch_line(path.steps[-1].line, now)
    outcome = walker.walk(path, now, prefetches={1: completion})
    # PL4..PL2 still go to memory serially (2 + 3*191); PL1 completes at
    # max(t_arr + 4, 191) = t_arr + 4 because the prefetch long finished.
    assert outcome.latency == 2 + 3 * 191 + 4
    baseline = 2 + 4 * 191
    assert outcome.latency < baseline


def test_prefetch_never_hurts():
    # If the walker arrives before the prefetch completes, the level ends
    # at the prefetch completion time — identical to the no-ASAP demand
    # latency, never later.
    walker, hierarchy, pwc = make_walker()
    pt = mapped_pt()
    path = pt.walk_path(VA)
    # Warm PWC so the walk jumps straight to PL1.
    walker.walk(pt.walk_path(VA))
    hierarchy.flush()
    pwc_latency = 2
    completion = hierarchy.prefetch_line(path.steps[-1].line, 0)
    outcome = walker.walk(path, 0, prefetches={1: completion})
    # Walk = PWC probe + max(probe+4, 191) - 0.
    assert outcome.latency == max(pwc_latency + 4, completion)
    assert outcome.latency <= pwc_latency + 191


def test_walk_updates_pwc_for_next_walk():
    walker, _, pwc = make_walker()
    pt = mapped_pt()
    walker.walk(pt.walk_path(VA))
    assert pwc.probe(VA) == 2


def test_large_page_walk_is_three_steps():
    walker, _, _ = make_walker()
    pt = RadixPageTable()
    base = VA & ~((1 << 21) - 1)
    pt.map_page(base, frame=512 * 4, leaf_level=2)
    outcome = walker.walk(pt.walk_path(base))
    assert len(outcome.records) == 3
    assert outcome.latency == 2 + 3 * 191


def test_average_latency_tracking():
    walker, _, _ = make_walker()
    pt = mapped_pt()
    walker.walk(pt.walk_path(VA))
    walker.walk(pt.walk_path(VA))
    assert walker.walks == 2
    assert walker.average_latency == pytest.approx(
        (2 + 4 * 191 + 2 + 4) / 2
    )


def test_fault_detection_walk():
    walker, _, _ = make_walker()
    pt = mapped_pt()
    fault = pt.fault_path(VA + 4096)  # sibling page, empty PTE slot
    outcome = walker.walk_to_fault(fault)
    assert outcome.faulted
    # All four entries are readable (the PTE reads as not-present).
    assert len(outcome.records) == 4


def test_fault_detection_accelerated_by_prefetch():
    walker, hierarchy, _ = make_walker()
    pt = mapped_pt()
    fault = pt.fault_path(VA + 4096)
    baseline = walker.walk_to_fault(fault).latency
    hierarchy.flush()
    walker.pwc.flush()
    completion = hierarchy.prefetch_line(fault.resolved_steps[-1].line, 0)
    accelerated = walker.walk_to_fault(fault, 0, {1: completion}).latency
    assert accelerated < baseline


def test_public_walks_drop_resident_cache_images():
    """Both public entry points write the caches through the inlined
    ``access`` closure, so they drop the compiled kernel's images."""
    walker, hierarchy, _ = make_walker()
    pt = mapped_pt()
    for walk in (lambda: walker.walk(pt.walk_path(VA)),
                 lambda: walker.walk_to_fault(pt.fault_path(VA + 4096))):
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            cache.image = object()
        walk()
        assert [hierarchy.l1.image, hierarchy.l2.image,
                hierarchy.l3.image] == [None, None, None]
