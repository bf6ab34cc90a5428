"""The ASAP OS extension: contiguous, VA-sorted page-table regions (§3.3).

At VMA creation time the OS reserves, per prefetch-target PT level, a
physically contiguous region sized for every node the VMA can need.  Node
``tag`` (the VA prefix selecting it) then maps to physical page
``region_base + (tag - first_tag)``: contiguity *and* sorted order, which is
what makes the range-register base-plus-offset computation exact:

    entry_addr(va, L) = descriptor_base(L) + ((va >> level_shift(L)) << 3)

Growth (§3.7.2) consumes the pre-cleared headroom the OS keeps above each
region (asynchronous background extension); once exhausted — or when the
pinned-page lottery strikes — nodes are placed out of region by the buddy
allocator and recorded as *holes*: the walker still works (the radix tree is
pointer-based) but prefetches to those nodes fetch a useless line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.vma import Vma, VmaTree
from repro.pagetable import constants as c


@dataclass
class PtRegion:
    """One reserved region: all level-``level`` nodes of one VMA."""

    level: int
    first_tag: int
    capacity: int  # nodes currently covered by the reservation
    base_frame: int
    reserved_total: int = 0  # capacity + growth headroom at creation time
    holes: set[int] = field(default_factory=set)
    extension_dead: bool = False

    @property
    def base_addr(self) -> int:
        return self.base_frame << c.PAGE_SHIFT

    @property
    def descriptor_base(self) -> int:
        """Base for the range-register arithmetic (may be negative)."""
        return self.base_addr - self.first_tag * c.NODE_BYTES

    def node_addr(self, tag: int) -> int:
        return self.base_addr + (tag - self.first_tag) * c.NODE_BYTES

    def covers(self, tag: int) -> bool:
        return self.first_tag <= tag < self.first_tag + self.capacity


def _tag_span(vma: Vma, level: int) -> tuple[int, int]:
    """(first_tag, node_count) of the level-``level`` nodes mapping ``vma``."""
    first = c.node_tag(vma.start, level)
    last = c.node_tag(vma.end - 1, level)
    return first, last - first + 1


class AsapPtLayout:
    """Reserves and assigns sorted PT regions for prefetch-target levels."""

    def __init__(
        self,
        buddy: BuddyAllocator,
        levels: tuple[int, ...] = (1, 2),
        headroom_fraction: float = 0.5,
        pinned_failure_prob: float = 0.0,
        fallback_pool: str = "pt",
        seed: int = 0,
    ) -> None:
        self.buddy = buddy
        self.levels = tuple(sorted(levels))
        self.headroom_fraction = headroom_fraction
        self.pinned_failure_prob = pinned_failure_prob
        self.fallback_pool = fallback_pool
        self._rng = random.Random(seed)
        self._regions: dict[tuple[int, int], PtRegion] = {}
        self.holes_created = 0
        self.nodes_placed_in_region = 0

    # ------------------------------------------------------------------
    def register_vma(self, vma: Vma) -> None:
        """Reserve contiguous regions for the VMA's target PT levels."""
        for level in self.levels:
            key = (id(vma), level)
            if key in self._regions:
                continue
            first_tag, count = _tag_span(vma, level)
            headroom = 0
            if vma.growable:
                headroom = max(1, int(count * self.headroom_fraction))
            base = self.buddy.reserve_contiguous(count, headroom)
            self._regions[key] = PtRegion(
                level=level, first_tag=first_tag, capacity=count,
                base_frame=base, reserved_total=count + headroom,
            )

    def region(self, vma: Vma, level: int) -> PtRegion | None:
        return self._regions.get((id(vma), level))

    # ------------------------------------------------------------------
    def place_node(self, vma: Vma | None, level: int, tag: int) -> int:
        """Physical base address for a new node (fault-time placement)."""
        addr = self.place_in_region(vma, level, tag)
        if addr is None:
            addr = self.buddy.alloc_frame(self.fallback_pool) << c.PAGE_SHIFT
        return addr

    def place_in_region(
        self, vma: Vma | None, level: int, tag: int
    ) -> int | None:
        """The placement decision of :meth:`place_node`, without the
        fallback allocation: the node's address in ``vma``'s reserved
        region, or None when it goes out of region to a frame from
        :attr:`fallback_pool` (recorded as a hole if the VMA has a
        region at ``level``).

        Draws only from the layout's own RNG, never the buddy's, so a
        bulk populate can decide every new node in creation order first
        and replay the fallback frame requests afterwards.
        """
        region = None if vma is None else self._regions.get((id(vma), level))
        if region is None:
            return None
        if not region.covers(tag):
            # The VMA grew beyond the reservation: try the asynchronous
            # background extension (§3.7.2).
            if region.extension_dead:
                return self._hole(region, tag)
            needed = tag - (region.first_tag + region.capacity) + 1
            if needed <= 0 or not self.buddy.try_extend(region.base_frame,
                                                        needed):
                region.extension_dead = True
                return self._hole(region, tag)
            region.capacity += needed
        if (
            self.pinned_failure_prob
            and self._rng.random() < self.pinned_failure_prob
        ):
            return self._hole(region, tag)
        self.nodes_placed_in_region += 1
        return region.node_addr(tag)

    def _hole(self, region: PtRegion, tag: int) -> None:
        region.holes.add(tag)
        self.holes_created += 1
        return None

    # ------------------------------------------------------------------
    def is_hole(self, vma: Vma, level: int, va: int) -> bool:
        """Would a base-plus-offset prefetch for ``va`` at ``level`` miss
        the real node?  True for nodes placed out of region."""
        region = self._regions.get((id(vma), level))
        if region is None:
            return True
        tag = c.node_tag(va, level)
        return tag in region.holes or not region.covers(tag)

    def descriptor_bases(self, vma: Vma) -> dict[int, int]:
        """level -> base operand for the VMA's range-register descriptor."""
        bases = {}
        for level in self.levels:
            region = self._regions.get((id(vma), level))
            if region is not None:
                bases[level] = region.descriptor_base
        return bases

    @property
    def total_reserved_bytes(self) -> int:
        return sum(r.capacity for r in self._regions.values()) * c.PAGE_SIZE


class PtNodePlacer:
    """The ``placer(level, tag)`` of one radix page table.

    New nodes go through ``layout`` when there is one (with :attr:`vma`,
    the faulting VMA, choosing the region), else to a frame from
    ``buddy``'s ``pool``.  It holds no reference to the address space
    that owns the table, so a finished process, its tables and its
    allocator are freed by reference counting alone.
    """

    __slots__ = ("buddy", "pool", "layout", "vma")

    def __init__(self, buddy: BuddyAllocator, pool: str,
                 layout: AsapPtLayout | None = None,
                 vma: Vma | None = None) -> None:
        self.buddy = buddy
        self.pool = pool
        self.layout = layout
        self.vma = vma

    def __call__(self, level: int, tag: int) -> int:
        if self.layout is not None:
            return self.layout.place_node(self.vma, level, tag)
        return self.buddy.alloc_frame(self.pool) << c.PAGE_SHIFT


class VmaHoleChecker:
    """The prefetcher's ``hole_checker(va, level)`` for one address space.

    True when ``va`` lies in no VMA of ``vmas`` or its level-``level``
    node is a hole of that VMA's region (see :meth:`AsapPtLayout.is_hole`).
    The verdict reads only the VMA and the node tag, so it is the same
    for every address of one VMA that shares a node — the rule the
    columnar kernel relies on to evaluate it once per node.
    """

    __slots__ = ("vmas", "layout")

    def __init__(self, vmas: VmaTree, layout: AsapPtLayout) -> None:
        self.vmas = vmas
        self.layout = layout

    def __call__(self, va: int, level: int) -> bool:
        vma = self.vmas.find(va)
        return vma is None or self.layout.is_hole(vma, level, va)
