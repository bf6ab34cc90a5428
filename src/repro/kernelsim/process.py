"""A process address space with demand paging over the simulated OS.

Ties the substrates together the way Linux does: a VMA tree describes what
is allocated, the radix page table is populated *lazily* on first touch
(page fault), data frames come from the buddy allocator's ``data`` pool and
PT-node frames from its ``pt`` pool — unless an :class:`AsapPtLayout` is
attached, in which case the prefetch-target levels are placed into their
reserved, sorted regions (§3.3).

Large pages: a VMA created with ``page_level=2`` is backed by 2MB mappings
(512-frame aligned), exercising the §3.5 interaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.pt_layout import AsapPtLayout, PtNodePlacer
from repro.kernelsim.vma import Vma, VmaKind, VmaTree
from repro.pagetable import constants as c
from repro.pagetable.radix import FaultPath, RadixPageTable, WalkPath


#: Vpns per whole-array pass of :meth:`ProcessAddressSpace.populate`.
#: Bounds its transient memory (a few dozen int64 arrays this long)
#: while keeping the per-pass overhead small.
POPULATE_SLICE = 16384


def _member(keys: np.ndarray, table: dict) -> np.ndarray:
    """Whether each of ``keys`` is a key of ``table``."""
    return np.fromiter(map(table.__contains__, keys.tolist()), dtype=bool,
                       count=len(keys))


class SegmentationFault(Exception):
    """Access to an address outside every VMA."""


@dataclass
class TouchResult:
    frame: int
    faulted: bool
    leaf_level: int
    created_nodes: list[tuple[int, int, int]]  # (level, tag, phys_base)


# Vma gains a page-size attribute through composition here rather than on
# the dataclass: the OS decides backing granularity per mapping request.
class ProcessAddressSpace:
    """One process: VMAs + page table + demand paging."""

    def __init__(
        self,
        buddy: BuddyAllocator | None = None,
        levels: int = 4,
        asap_layout: AsapPtLayout | None = None,
        data_pool: str = "data",
        pt_pool: str = "pt",
    ) -> None:
        self.buddy = buddy or BuddyAllocator()
        self.vmas = VmaTree()
        self.asap_layout = asap_layout
        self.data_pool = data_pool
        self.pt_pool = pt_pool
        self._page_levels: dict[int, int] = {}  # id(vma) -> leaf level
        self._placer = PtNodePlacer(self.buddy, pt_pool, asap_layout)
        self.page_table = RadixPageTable(levels, node_placer=self._placer)
        self.faults = 0

    # ------------------------------------------------------------------
    # address-space management
    # ------------------------------------------------------------------
    def mmap(
        self,
        start: int,
        size: int,
        kind: VmaKind = VmaKind.MMAP,
        name: str = "",
        growable: bool = False,
        page_level: int = 1,
    ) -> Vma:
        if start % c.PAGE_SIZE or size % c.PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        if page_level == 2 and (start % c.LARGE_PAGE_SIZE
                                or size % c.LARGE_PAGE_SIZE):
            raise ValueError("2MB-backed mappings must be 2MB aligned")
        vma = self.vmas.insert(
            Vma(start=start, size=size, kind=kind, name=name,
                growable=growable)
        )
        self._page_levels[id(vma)] = page_level
        if self.asap_layout is not None:
            self.asap_layout.register_vma(vma)
        return vma

    def brk(self, vma: Vma, delta: int) -> None:
        """Grow a VMA upward; PT regions extend lazily on later faults."""
        self.vmas.extend(vma, delta)

    # ------------------------------------------------------------------
    # demand paging
    # ------------------------------------------------------------------
    def touch(self, va: int) -> TouchResult:
        """Translate ``va``, faulting the page in on first access."""
        hit = self.page_table.lookup(va)
        if hit is not None:
            return TouchResult(frame=hit[0], faulted=False,
                               leaf_level=hit[1], created_nodes=[])
        vma = self.vmas.find(va)
        if vma is None:
            raise SegmentationFault(f"{va:#x} is not mapped by any VMA")
        leaf_level = self._page_levels[id(vma)]
        if leaf_level == 2:
            frame = self.buddy.alloc_run(
                c.ENTRIES_PER_NODE, pool=self.data_pool, aligned=True
            )
        else:
            frame = self.buddy.alloc_frame(self.data_pool)
        self._placer.vma = vma
        try:
            created = self.page_table.map_page(va, frame, leaf_level)
        finally:
            self._placer.vma = None
        self.faults += 1
        if leaf_level == 2:
            # The 4KB frame within the large page, as lookup() reports it.
            frame += c.vpn(va) & (c.ENTRIES_PER_NODE - 1)
        return TouchResult(frame=frame, faulted=True, leaf_level=leaf_level,
                           created_nodes=created)

    def populate(self, vpns) -> int:
        """Pre-fault a sequence of vpns (steady-state warm-up); returns the
        number of faults taken.

        Leaves exactly the state that calling :meth:`touch` on each vpn
        in order would — frames, page-table nodes, ASAP holes, allocator
        RNG and counters — and raises the same :class:`SegmentationFault`
        after committing the faults before an address outside every VMA.
        It gets there with whole-array passes over
        :data:`POPULATE_SLICE` vpns at a time (see :meth:`_populate_slice`).
        An :class:`~repro.kernelsim.buddy.OutOfMemoryError` leaves the
        slice it hit uncommitted.
        """
        if not isinstance(vpns, np.ndarray):
            vpns = np.fromiter(vpns, dtype=np.int64)
        vpns = vpns.astype(np.int64, copy=False)
        before = self.faults
        for lo in range(0, len(vpns), POPULATE_SLICE):
            self._populate_slice(vpns[lo:lo + POPULATE_SLICE])
        return self.faults - before

    def _populate_slice(self, vpns: np.ndarray) -> None:
        """One slice of :meth:`populate`.

        1. Skip vpns already mapped, stop at the first other vpn outside
           every VMA, and keep the first vpn per page (per 2MB page in a
           2MB-backed VMA): these are the faults, in order.
        2. At each level, a new node is the first fault with a node tag
           the level's map lacks; creation order is fault order, root
           first within a fault, as :meth:`RadixPageTable.map_page` goes.
        3. Requests go in fault order, each fault's data frame before its
           new nodes; with an ASAP layout each node's placement is
           decided in creation order and only out-of-region nodes
           request a frame.  The buddy replays the single-frame requests
           one run at a time; a 2MB fault's ``alloc_run`` splits them.
        4. Commit the node maps in creation order and the leaf maps in
           fault order.
        """
        page_table = self.page_table
        pages, large = page_table.leaf_maps()
        unmapped = np.ones(len(vpns), dtype=bool)
        if pages:
            unmapped &= ~_member(vpns, pages)
        if large:
            unmapped &= ~_member(vpns >> c.LEVEL_BITS, large)
        vma_index = self.vmas.locate(vpns << c.PAGE_SHIFT)
        outside = np.flatnonzero(unmapped & (vma_index < 0))
        stop = int(outside[0]) if len(outside) else len(vpns)
        candidates = np.flatnonzero(unmapped[:stop])
        vmas = list(self.vmas)
        level_of_vma = np.array(
            [self._page_levels[id(vma)] for vma in vmas], dtype=np.int64)
        leaf = level_of_vma[vma_index[candidates]]
        page_key = vpns[candidates]
        page_key = np.where(leaf == 2, page_key & ~(c.ENTRIES_PER_NODE - 1),
                            page_key)
        _, first = np.unique(page_key, return_index=True)
        first.sort()
        fault_vpns = vpns[candidates[first]]
        fault_leaf = leaf[first]
        fault_vma = vma_index[candidates[first]]
        if len(fault_vpns):
            self._fault_in(fault_vpns, fault_leaf, fault_vma, vmas)
        if stop < len(vpns):
            va = int(vpns[stop]) << c.PAGE_SHIFT
            raise SegmentationFault(f"{va:#x} is not mapped by any VMA")

    def _fault_in(self, fault_vpns: np.ndarray, fault_leaf: np.ndarray,
                  fault_vma: np.ndarray, vmas: list[Vma]) -> None:
        """Steps 2-4 of :meth:`_populate_slice` for distinct, unmapped
        pages in fault order."""
        page_table = self.page_table
        top = page_table.levels
        # --- new nodes, in creation order ------------------------------
        node_fault, node_level, node_tag = [], [], []
        for level in range(top, 0, -1):
            holders = (np.arange(len(fault_vpns)) if level > 1
                       else np.flatnonzero(fault_leaf == 1))
            tags = fault_vpns[holders] >> (c.LEVEL_BITS * level)
            tags, first = np.unique(tags, return_index=True)
            new = ~_member(tags, page_table.leaf_nodes(level))
            node_fault.append(holders[first[new]])
            node_level.append(np.full(int(new.sum()), level, np.int64))
            node_tag.append(tags[new])
        node_fault = np.concatenate(node_fault)
        node_level = np.concatenate(node_level)
        node_tag = np.concatenate(node_tag)
        # Requests sort by (fault, slot): slot 0 is the data frame, slot
        # 1 + top - level a node, so a fault's nodes follow it root first.
        slots = top + 2
        node_key = node_fault * slots + 1 + top - node_level
        created = np.argsort(node_key)
        node_fault = node_fault[created]
        node_level = node_level[created]
        node_tag = node_tag[created]
        node_key = node_key[created]
        node_base = np.zeros(len(node_tag), dtype=np.int64)
        needs_frame = np.ones(len(node_tag), dtype=bool)
        layout = self.asap_layout
        if layout is not None:
            place = layout.place_in_region
            vma_of = [vmas[i] for i in fault_vma[node_fault].tolist()]
            for i, (vma, level, tag) in enumerate(zip(
                    vma_of, node_level.tolist(), node_tag.tolist())):
                addr = place(vma, level, tag)
                if addr is not None:
                    node_base[i] = addr
                    needs_frame[i] = False
        # --- frame requests, replayed in fault order -------------------
        request_key = np.concatenate(
            [np.arange(len(fault_vpns)) * slots, node_key[needs_frame]])
        order = np.argsort(request_key)
        request_key = request_key[order]
        is_node = order >= len(fault_vpns)
        node_pool = self.pt_pool if layout is None else layout.fallback_pool
        pools = [self.data_pool]
        if node_pool != self.data_pool:
            pools.append(node_pool)
        codes = np.where(is_node, len(pools) - 1, 0)
        large_runs = np.flatnonzero(
            ~is_node & (fault_leaf[request_key // slots] == 2))
        frames = np.empty(len(order), dtype=np.int64)
        lo = 0
        for cut in large_runs.tolist() + [len(order)]:
            frames[lo:cut] = self.buddy.replay_frames(pools, codes[lo:cut])
            if cut < len(order):
                frames[cut] = self.buddy.alloc_run(
                    c.ENTRIES_PER_NODE, pool=self.data_pool, aligned=True)
            lo = cut + 1
        data_frames = frames[~is_node]
        node_base[needs_frame] = frames[is_node] << c.PAGE_SHIFT
        # --- commit ----------------------------------------------------
        for level in range(top, 0, -1):
            at_level = node_level == level
            page_table.leaf_nodes(level).update(zip(
                node_tag[at_level].tolist(), node_base[at_level].tolist()))
        pages, large = page_table.leaf_maps()
        small = fault_leaf == 1
        pages.update(zip(fault_vpns[small].tolist(),
                         data_frames[small].tolist()))
        if not small.all():
            large.update(zip(
                (fault_vpns[~small] >> c.LEVEL_BITS).tolist(),
                data_frames[~small].tolist()))
        self.faults += len(fault_vpns)

    # ------------------------------------------------------------------
    # translation services for the simulator
    # ------------------------------------------------------------------
    def walk_path(self, va: int) -> WalkPath:
        return self.page_table.walk_path(va)

    def flat_walk(self, va: int):
        """Flat walk-path form for the simulator's per-vpn path cache
        (see :meth:`repro.pagetable.radix.RadixPageTable.flat_walk`)."""
        return self.page_table.flat_walk(va)

    def fault_path(self, va: int) -> FaultPath:
        return self.page_table.fault_path(va)

    def frame_of(self, vpn: int) -> int | None:
        return self.page_table.frame_of(vpn)

    def cluster_frames(self, vpn: int) -> list[int | None]:
        return self.page_table.cluster_frames(vpn)

    # ------------------------------------------------------------------
    # Table 2 inventory
    # ------------------------------------------------------------------
    def pt_page_count(self) -> int:
        return self.page_table.node_count()

    def pt_contiguous_regions(self) -> int:
        """Number of maximal physically contiguous runs of PT pages."""
        frames = sorted(self.page_table.node_frames())
        if not frames:
            return 0
        regions = 1
        for prev, cur in zip(frames, frames[1:]):
            if cur != prev + 1:
                regions += 1
        return regions
