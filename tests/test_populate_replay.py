"""Bulk populate and the buddy's run-at-a-time replay against their
per-page oracles.

:meth:`ProcessAddressSpace.populate` must leave exactly the state that
calling :meth:`~ProcessAddressSpace.touch` on each vpn in order leaves —
frames, page-table nodes and their insertion order, ASAP regions and
holes, both RNGs, every counter — and :meth:`BuddyAllocator.replay_frames`
exactly what an ``alloc_frame`` loop leaves.  Every golden that pins a
frame number depends on it.
"""

from __future__ import annotations

import copy
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelsim import process as process_module
from repro.kernelsim.buddy import BuddyAllocator, OutOfMemoryError
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace, SegmentationFault
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.pagetable import constants as c

BASE = 0x5555_0000_0000
#: VMAs sit this far apart, so growth never collides with a neighbour.
VMA_STRIDE = 1 << 34


def buddy_state(buddy: BuddyAllocator) -> dict:
    return {
        "rng": buddy._rng.getstate(),
        "pools": [(name, vars(pool)) for name, pool in buddy._pools.items()],
        "used_slots": sorted(buddy._used_slots),
        "reservations": [(base, vars(r))
                         for base, r in buddy._reservations.items()],
        "reserve_top": buddy._reserve_top,
        "stats": vars(buddy.stats),
    }


def process_state(process: ProcessAddressSpace) -> dict:
    table = process.page_table
    pages, large = table.leaf_maps()
    state = {
        "nodes": [list(table.leaf_nodes(level).items())
                  for level in range(1, table.levels + 1)],
        "pages": list(pages.items()),
        "large": list(large.items()),
        "faults": process.faults,
        "buddy": buddy_state(process.buddy),
    }
    layout = process.asap_layout
    if layout is not None:
        state["layout"] = {
            "rng": layout._rng.getstate(),
            "holes_created": layout.holes_created,
            "in_region": layout.nodes_placed_in_region,
            "regions": [(key[1], region.first_tag, region.capacity,
                         region.base_frame, sorted(region.holes),
                         region.extension_dead)
                        for key, region in layout._regions.items()],
        }
    return state


# ----------------------------------------------------------------------
# populate == touch() in order
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    vmas = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["4KB", "2MB", "growable"]))
        if kind == "2MB":
            pages = c.ENTRIES_PER_NODE * draw(st.integers(1, 3))
        else:
            pages = draw(st.integers(1, 3_000))
        vmas.append((BASE + i * VMA_STRIDE, pages, kind))
    runs = st.lists(st.tuples(st.integers(0, len(vmas) - 1),
                              st.integers(0, 1 << 20),
                              st.integers(1, 700)),
                    max_size=6)
    return {
        "levels": draw(st.sampled_from([4, 5])),
        "asap": draw(st.sampled_from([(), (1,), (1, 2), (2, 3)])),
        "pinned": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "tenants": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 1 << 16)),
        "slice": draw(st.sampled_from([5, 97, process_module.POPULATE_SLICE])),
        "vmas": vmas,
        "growth": draw(st.integers(1, 5_000)),
        "phases": [draw(runs) for _ in range(2)],
        "outside": draw(st.lists(st.integers(0, 2_000), max_size=2)),
    }


def build(scenario) -> tuple[list[ProcessAddressSpace], list[list]]:
    buddy = BuddyAllocator(PhysicalMemory(1 << 40), seed=scenario["seed"])
    processes, vmas = [], []
    for tenant in range(scenario["tenants"]):
        # The multi-tenant shape: one buddy, a pool pair per process.
        data, pt = f"data{tenant}", f"pt{tenant}"
        buddy.configure_pool(data, 4.0 + tenant)
        buddy.configure_pool(pt, 3.0)
        layout = None
        if scenario["asap"]:
            layout = AsapPtLayout(buddy, levels=scenario["asap"],
                                  pinned_failure_prob=scenario["pinned"],
                                  fallback_pool=pt,
                                  seed=scenario["seed"] + tenant)
        process = ProcessAddressSpace(buddy, levels=scenario["levels"],
                                      asap_layout=layout, data_pool=data,
                                      pt_pool=pt)
        vmas.append([
            process.mmap(start, pages * c.PAGE_SIZE,
                         growable=kind == "growable",
                         page_level=2 if kind == "2MB" else 1)
            for start, pages, kind in scenario["vmas"]])
        processes.append(process)
    return processes, vmas


def sequence(scenario, vmas, phase: int) -> list[int]:
    """Runs of vpns (repeats included), with an address past every
    VMA spliced in where ``outside`` says."""
    vpns = []
    for index, offset, length in scenario["phases"][phase]:
        vma = vmas[index]
        first = vma.start // c.PAGE_SIZE + offset % (vma.size // c.PAGE_SIZE)
        vpns.extend(range(first, min(first + length, vma.end // c.PAGE_SIZE)))
    for at in scenario["outside"]:
        vpns.insert(at % (len(vpns) + 1), (BASE - (1 << 30)) // c.PAGE_SIZE)
    return vpns


def fault_in(process: ProcessAddressSpace, vpns: list[int], bulk: bool):
    """Populate (bulk) or touch each vpn in order; the fault count and
    the SegmentationFault, if any."""
    before = process.faults
    try:
        if bulk:
            assert process.populate(np.array(vpns, dtype=np.int64)) \
                == process.faults - before
        else:
            for vpn in vpns:
                process.touch(vpn << c.PAGE_SHIFT)
    except SegmentationFault as fault:
        return process.faults - before, str(fault)
    return process.faults - before, None


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_populate_equals_touch_in_order(scenario):
    (oracle, oracle_vmas), (bulk, bulk_vmas) = build(scenario), build(scenario)
    with mock.patch.object(process_module, "POPULATE_SLICE",
                           scenario["slice"]):
        for phase in range(2):
            if phase:
                # Grow each growable VMA, then fault in again over pages
                # already mapped and past the old reservations.
                for processes, vma_lists in ((oracle, oracle_vmas),
                                             (bulk, bulk_vmas)):
                    for process, vmas in zip(processes, vma_lists):
                        for vma in vmas:
                            if vma.growable:
                                process.brk(vma, scenario["growth"]
                                            * c.PAGE_SIZE)
            for tenant in range(scenario["tenants"]):
                vpns = sequence(scenario, oracle_vmas[tenant], phase)
                assert (fault_in(bulk[tenant], vpns, bulk=True)
                        == fault_in(oracle[tenant], vpns, bulk=False))
                assert (process_state(bulk[tenant])
                        == process_state(oracle[tenant]))


def test_populate_accepts_any_iterable_of_vpns():
    vpns = range(BASE // c.PAGE_SIZE, BASE // c.PAGE_SIZE + 40)
    scenario = {"levels": 4, "asap": (1, 2), "pinned": 0.0, "tenants": 1,
                "seed": 5, "vmas": [(BASE, 64, "4KB")]}
    (listed,), _ = build(scenario)
    (generated,), _ = build(scenario)
    assert listed.populate(list(vpns)) == 40
    assert generated.populate(vpn for vpn in vpns) == 40
    assert process_state(listed) == process_state(generated)


# ----------------------------------------------------------------------
# replay_frames == alloc_frame loop
# ----------------------------------------------------------------------
@given(
    st.integers(0, 1 << 16),
    st.sampled_from(["roomy", "tight"]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 60)), max_size=40),
    st.lists(st.integers(0, 3), max_size=20),
    st.sampled_from([None, 0, 1, 2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_replay_equals_alloc_frame_loop(seed, memory, bursts, before,
                                        broken):
    pools = ["data", "pt", "fresh-a", "fresh-b"]
    buddy = (BuddyAllocator(PhysicalMemory(1 << 40), seed=seed)
             if memory == "roomy" else tight_buddy(seed))
    # "data" and "pt" are configured; the other two pools are created by
    # their first request.
    buddy.configure_pool("data", 3.0)
    buddy.configure_pool("pt", 1.5)
    for k in before:
        buddy.alloc_frame(pools[k])
    if broken is not None:
        buddy.break_run(pools[broken])
    requests = np.array([k for k, count in bursts for _ in range(count)],
                        dtype=np.int64)
    loop = copy.deepcopy(buddy)
    try:
        want = [loop.alloc_frame(pools[k]) for k in requests.tolist()]
    except OutOfMemoryError:
        with pytest.raises(OutOfMemoryError):
            buddy.replay_frames(pools, requests)
        return
    got = buddy.replay_frames(pools, requests)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert buddy_state(buddy) == buddy_state(loop)


def tight_buddy(seed: int) -> BuddyAllocator:
    """1024 arena slots, all but 6 under a reservation: random arena
    draws keep missing, so new arenas often come from the linear-scan
    fallback.  Arenas serve runs until full, so a few thousand frames
    per pool fit."""
    buddy = BuddyAllocator(PhysicalMemory(1 << 34), seed=seed,
                           default_mean_run=2.0, runs_per_arena=1 << 12)
    buddy.reserve_contiguous(1018 * 4096)
    return buddy


def test_replay_reaches_the_linear_scan_fallback():
    """The tight-memory case above really exercises the fallback: an
    arena opened after 256 failed random draws."""
    buddy = tight_buddy(seed=1)
    rng = random.Random(0)
    requests = np.array([rng.randrange(4) for _ in range(3_000)])
    loop = copy.deepcopy(buddy)
    draws = []
    randrange = loop._rng.randrange

    def counted(*args):
        draws.append(args)
        return randrange(*args)

    loop._rng.randrange = counted
    per_open = []
    open_arena = BuddyAllocator._open_arena

    def opening(self, state):
        before = len(draws)
        open_arena(self, state)
        per_open.append(len(draws) - before)

    with mock.patch.object(BuddyAllocator, "_open_arena", opening):
        want = [loop.alloc_frame(str(k)) for k in requests.tolist()]
    assert 256 in per_open
    del loop._rng.randrange
    got = buddy.replay_frames(["0", "1", "2", "3"], requests)
    assert got.tolist() == want
    assert buddy_state(buddy) == buddy_state(loop)


def test_replay_rejects_duplicate_pools():
    with pytest.raises(ValueError):
        BuddyAllocator().replay_frames(["data", "data"], np.zeros(2))
