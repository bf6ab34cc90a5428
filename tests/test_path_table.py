"""Row-level oracle for the compiled kernel's path rows.

``repro.sim.columnar._PathTable`` builds one row per page with
whole-array numpy passes.  Every row it builds must equal a plain
per-page reference: ``process.flat_walk`` for the node lines, leaf level
and frame; a bisect over the range registers, ``descriptor.entry_addr``
and the prefetcher's hole checker for the ASAP columns.  The table is
pure numpy, so these tests need no C backend.

The address space is built to reach every corner of the row layout: a
2MB-page VMA, two adjacent VMAs that share a level-1 and a level-2
node (with different hole verdicts on each side of the descriptor
boundary), pages a VMA grew into after its descriptor was loaded,
region holes, and ASID-biased VPNs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import config as cfg
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import VmaDescriptor
from repro.experiments.common import SCHEMES
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace
from repro.kernelsim.pt_layout import AsapPtLayout, VmaHoleChecker
from repro.kernelsim.vma import Vma
from repro.pagetable import constants as c
from repro.pagetable.radix import PageFault
from repro.sim import columnar
from repro.sim.simulator import NativeSimulation
from repro.tlb.tlb import asid_bias

BASE = 0x5555_0000_0000  # 1GB-aligned
MB = 1 << 20
PAGE = c.PAGE_SIZE


@dataclass
class World:
    process: ProcessAddressSpace
    sim: NativeSimulation
    prefetcher: AsapPrefetcher
    left: Vma     # ends mid-node; shares its last nodes with `right`
    right: Vma
    vpns: np.ndarray  # mapped (raw) vpns, sorted


def _world() -> World:
    buddy = BuddyAllocator(PhysicalMemory(1 << 40), seed=5)
    layout = AsapPtLayout(buddy, levels=(1, 2), seed=5)
    process = ProcessAddressSpace(buddy=buddy, asap_layout=layout)
    left = process.mmap(BASE, 24 * MB + 20 * PAGE)
    right = process.mmap(left.end, 16 * MB)
    large = process.mmap(BASE + (1 << 30), 8 * MB, page_level=2)
    # Grows past the descriptor loaded at bind time.
    grown = process.mmap(BASE + (2 << 30), 4 * MB, growable=True)
    # Binding loads one descriptor per VMA, as they stand now.
    sim = NativeSimulation(process, asap=cfg.P1_P2,
                           scheme=SCHEMES["asap"].spec)
    prefetcher = sim.scheme.walk_start_hook().__self__
    edge = grown.end >> 12  # the first page its descriptor misses
    process.brk(grown, 4 * MB)
    # Every later node placement may fail into a hole.
    layout.pinned_failure_prob = 0.3

    def pages(vma: Vma, step: int) -> list[int]:
        return list(range(vma.start >> 12, vma.end >> 12, step))

    seams = [(left.end >> 12) - 1, right.start >> 12, edge - 1, edge]
    touched = (pages(left, 7) + pages(right, 7) + pages(grown, 11)
               + seams + pages(large, 512))
    process.populate(sorted(set(touched)))
    # The node at the left/right seam is one radix node, but each VMA
    # has its own region: a hole on one side only must not leak across
    # the descriptor boundary.
    seam = left.end - PAGE
    layout.region(left, 1).holes.add(c.node_tag(seam, 1))
    layout.region(right, 2).holes.add(c.node_tag(seam, 2))

    mapped = (pages(left, 7) + pages(right, 7) + pages(grown, 11)
              + seams + pages(large, 13))
    return World(process, sim, prefetcher, left, right,
                 np.unique(np.asarray(mapped, dtype=np.int64)))


def _reference_row(process, prefetcher, vpn: int, vbias: int) -> list[int]:
    """One row, page by page, from the scalar walk and register file."""
    lines, _, frame, leaf = process.flat_walk(vpn << 12)
    row = [0] * 19
    row[:len(lines)] = lines
    row[4:7] = [(vpn >> 9) | vbias, (vpn >> 18) | vbias,
                (vpn >> 27) | vbias]
    row[7:10] = [leaf, frame, int(leaf == 2)]
    row[11:15] = [-1] * 4
    if prefetcher is None:
        return row
    va = vpn << 12
    registers = prefetcher.registers
    idx = bisect_right(registers._starts, va) - 1
    if idx < 0 or not registers._descriptors[idx].covers(va):
        return row
    descriptor = registers._descriptors[idx]
    row[10] = 1
    for slot, level in enumerate(prefetcher.levels):
        target = descriptor.entry_addr(va, level)
        if target is None:
            continue
        row[11 + slot] = target >> 6
        if prefetcher.hole_checker is not None:
            row[15 + slot] = int(prefetcher.hole_checker(va, level))
    return row


def _prefetchers(world: World):
    bound = world.prefetcher
    # A level no descriptor pins: its slot must stay -1 / no hole.
    wide = AsapPrefetcher(world.sim.hierarchy, bound.registers,
                          levels=(1, 2, 3), hole_checker=bound.hole_checker)
    return {"none": None, "bound": bound, "wide": wide}


@pytest.mark.parametrize("asid", (0, 5))
@pytest.mark.parametrize("which", ("none", "bound", "wide"))
def test_rows_match_per_page_reference(asid, which):
    world = _world()
    prefetcher = _prefetchers(world)[which]
    vbias = asid_bias(asid)
    rng = np.random.default_rng(17)
    trace = rng.choice(world.vpns, size=3 * world.vpns.size)
    table = columnar._PathTable()
    row_of: dict[int, int] = {}
    for chunk in np.array_split(trace, 5):
        ids = table.rows_for(chunk | vbias, world.process, vbias,
                             prefetcher)
        assert ids.dtype == np.int64 and ids.shape == chunk.shape
        for vpn, row in zip(chunk.tolist(), ids.tolist()):
            # Repeated VPNs, in this call or an earlier one, reuse
            # their first row.
            assert row_of.setdefault(vpn, row) == row
        assert table.count == len(row_of)
    for vpn, row in row_of.items():
        expected = _reference_row(world.process, prefetcher, vpn, vbias)
        assert table.paths[row].tolist() == expected, hex(vpn)
    assert table.known.tolist() == sorted(v | vbias for v in row_of)


def test_scenario_reaches_every_column_kind():
    """The oracle above is only as strong as the address space: check it
    holds large pages, pages outside every descriptor, holes and
    non-holes, and a seam whose node gets a different verdict per
    side."""
    world = _world()
    process, prefetcher = world.process, world.prefetcher
    rows = {vpn: _reference_row(process, prefetcher, vpn, 0)
            for vpn in world.vpns.tolist()}
    values = list(rows.values())
    assert any(row[7] == 2 for row in values)
    assert any(row[10] == 0 for row in values)
    assert any(row[15] or row[16] for row in values)
    assert any(row[10] and not row[15] for row in values)
    seam = world.left.end - PAGE
    for level in (1, 2):
        assert c.node_tag(seam, level) == c.node_tag(world.right.start,
                                                     level)
    last_left = rows[seam >> 12]
    first_right = rows[world.right.start >> 12]
    assert (last_left[15], first_right[15]) == (1, 0)
    assert (last_left[16], first_right[16]) == (0, 1)
    assert isinstance(prefetcher.hole_checker, VmaHoleChecker)


def test_unmapped_vpn_raises_before_any_row_is_committed():
    world = _world()
    process, prefetcher = world.process, world.prefetcher
    vbias = asid_bias(3)
    table = columnar._PathTable()
    table.rows_for(world.vpns[:40] | vbias, process, vbias, prefetcher)
    before = (table.count, table.known.copy(), table.rows.copy(),
              table.paths[:table.count].copy())
    # Two unmapped pages: one inside a VMA, one outside every VMA.  The
    # table must raise the scalar walk's fault for the lower one.
    hole_page = (world.left.start >> 12) + 1
    wild_page = (BASE + (5 << 30)) >> 12
    with pytest.raises(PageFault) as expected:
        process.flat_walk(hole_page << 12)
    chunk = np.concatenate([world.vpns[30:90],
                            [wild_page, hole_page]]) | vbias
    with pytest.raises(PageFault) as got:
        table.rows_for(chunk, process, vbias, prefetcher)
    assert str(got.value) == str(expected.value)
    assert table.count == before[0]
    assert table.known.tolist() == before[1].tolist()
    assert table.rows.tolist() == before[2].tolist()
    assert table.paths[:table.count].tolist() == before[3].tolist()
    # The table is still usable after the fault.
    ids = table.rows_for(world.vpns[30:90] | vbias, process, vbias,
                         prefetcher)
    assert table.count == 90
    for vpn, row in zip(world.vpns[30:90].tolist(), ids.tolist()):
        assert table.paths[row].tolist() == _reference_row(
            process, prefetcher, vpn, vbias)


def test_engine_mode_needs_a_node_constant_hole_checker(monkeypatch):
    """Hole verdicts are computed once per (descriptor, level, node).
    Any configuration where one node could get two verdicts inside one
    descriptor must fall back to the scalar oracle."""
    monkeypatch.setattr(columnar, "columnar_available", lambda: True)
    world = _world()
    sim, prefetcher = world.sim, world.prefetcher
    assert columnar.engine_mode(sim) == "asap"
    checker = prefetcher.hole_checker

    # A custom checker can vary inside a node.
    prefetcher.hole_checker = lambda va, level: bool(va & PAGE)
    assert columnar.engine_mode(sim) is None

    # So can a subclass, whatever it overrides.
    class Custom(VmaHoleChecker):
        pass

    prefetcher.hole_checker = Custom(checker.vmas, checker.layout)
    assert columnar.engine_mode(sim) is None

    # No checker: no holes, nothing to vary.
    prefetcher.hole_checker = None
    assert columnar.engine_mode(sim) == "asap"

    # A descriptor spanning two VMAs: the seam node has two verdicts.
    prefetcher.hole_checker = checker
    registers = prefetcher.registers
    descriptors = list(registers._descriptors)
    left, right = descriptors[0], descriptors[1]
    registers.load([VmaDescriptor(left.start, right.end, left.level_bases)]
                   + descriptors[2:])
    assert columnar.engine_mode(sim) is None

    # A descriptor that is not page-aligned.
    registers.load([VmaDescriptor(left.start, left.end - 64,
                                  left.level_bases)] + descriptors[1:])
    assert columnar.engine_mode(sim) is None

    registers.load(descriptors)
    assert columnar.engine_mode(sim) == "asap"
