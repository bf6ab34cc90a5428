"""The radix-tree page table (Figure 1) and walk paths through it.

The tree is stored *flat*: a node is identified by ``(level, tag)`` where
the tag is the VA prefix above that level's index field — exactly the bits
that select the node during a real walk.  The stored value is the node's
physical base address, assigned by a pluggable *placer* (the buddy
allocator for vanilla Linux, the ASAP layout allocator for sorted regions).
Leaf translations live in flat vpn→frame maps, with 2MB large pages kept at
their own granularity (one PL2 entry per 512 pages, §2.3/§3.5).

Nothing in this module knows about caches or timing; it produces
:class:`WalkPath` objects — the exact sequence of physical entry addresses a
hardware walker would touch — which the walker prices against the memory
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.pagetable import constants as c

#: placer(level, tag) -> physical byte address of the 4KB node.
NodePlacer = Callable[[int, int], int]


class PageFault(Exception):
    """Raised when translating an address with no mapping."""


@dataclass(frozen=True)
class WalkStep:
    """One pointer fetch of a page walk: the PT level and the physical
    byte address of the entry read at that level."""

    level: int
    entry_addr: int

    @property
    def line(self) -> int:
        return self.entry_addr >> c.LINE_SHIFT


@dataclass(frozen=True)
class WalkPath:
    """The full pointer chase for one virtual address (root first)."""

    va: int
    steps: tuple[WalkStep, ...]
    frame: int
    leaf_level: int  # 1 for 4KB pages, 2 for 2MB pages

    @property
    def vpn(self) -> int:
        return self.va >> c.PAGE_SHIFT

    @property
    def is_large(self) -> bool:
        return self.leaf_level >= 2


@dataclass(frozen=True)
class FaultPath:
    """A truncated walk that ends at the first non-present entry.

    ``resolved_steps`` are readable entries; the walk discovers the fault
    when the entry *after* them reads as not-present.  With ASAP's reserved
    regions the missing deep node's location is still known, so the fault
    is detected after a prefetched read (§3.7.1).
    """

    va: int
    resolved_steps: tuple[WalkStep, ...]
    missing_level: int


class RadixPageTable:
    """An x86-style 4- or 5-level radix page table."""

    def __init__(
        self,
        levels: int = 4,
        node_placer: NodePlacer | None = None,
    ) -> None:
        if levels not in (4, 5):
            raise ValueError("only 4- and 5-level page tables exist on x86")
        self.levels = levels
        self._placer = node_placer or self._bump_placer
        self._bump_next = 1 << 50  # fallback placer: distinct, stable addrs
        #: Node bases per level, tag -> phys base.  Split by level (index
        #: 0 unused) so the hot flat_walk/map_page paths probe plain
        #: int-keyed dicts instead of allocating (level, tag) tuples.
        self._nodes_by_level: list[dict[int, int]] = [
            {} for _ in range(levels + 1)
        ]
        self._pages: dict[int, int] = {}  # vpn -> frame (4KB)
        self._large: dict[int, int] = {}  # vpn >> 9 -> frame (2MB)
        # The root always exists (CR3 points at it).
        self._ensure_node(levels, 0, self._placer)

    def _bump_placer(self, level: int, tag: int) -> int:
        addr = self._bump_next
        self._bump_next += c.NODE_BYTES
        return addr

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _ensure_node(
        self, level: int, tag: int, placer: NodePlacer
    ) -> tuple[int, bool]:
        nodes = self._nodes_by_level[level]
        base = nodes.get(tag)
        if base is not None:
            return base, False
        base = placer(level, tag)
        if base % c.NODE_BYTES:
            raise ValueError("PT nodes must be 4KB aligned")
        nodes[tag] = base
        return base, True

    def map_page(
        self,
        va: int,
        frame: int,
        leaf_level: int = 1,
        placer: NodePlacer | None = None,
    ) -> list[tuple[int, int, int]]:
        """Create the mapping for the page containing ``va``.

        Returns the list of newly created nodes as ``(level, tag,
        phys_base)`` so callers (e.g. the hypervisor) can track PT-page
        frames.  ``leaf_level=2`` installs a 2MB mapping; ``frame`` must
        then be 512-frame aligned.
        """
        if leaf_level not in (1, 2):
            raise ValueError("leaf level must be 1 (4KB) or 2 (2MB)")
        # Fast path for the common steady-population case: if the node
        # directly above the leaf exists, every ancestor does too (nodes
        # are only ever created root-first below), so only the leaf entry
        # needs installing.
        if c.node_tag(va, leaf_level) in self._nodes_by_level[leaf_level]:
            if leaf_level == 1:
                self._pages[c.vpn(va)] = frame
            else:
                if frame & (c.ENTRIES_PER_NODE - 1):
                    raise ValueError(
                        "2MB mappings need 512-frame aligned frames")
                self._large[c.vpn(va) >> c.LEVEL_BITS] = frame
            return []
        place = placer or self._placer
        created: list[tuple[int, int, int]] = []
        for level in range(self.levels, leaf_level - 1, -1):
            tag = c.node_tag(va, level)
            base, is_new = self._ensure_node(level, tag, place)
            if is_new:
                created.append((level, tag, base))
        if leaf_level == 1:
            self._pages[c.vpn(va)] = frame
        else:
            if frame & (c.ENTRIES_PER_NODE - 1):
                raise ValueError("2MB mappings need 512-frame aligned frames")
            self._large[c.vpn(va) >> c.LEVEL_BITS] = frame
        return created

    def map_contiguous(self, first_vpn: int, first_frame: int,
                       count: int) -> None:
        """Map each unmapped 4KB page of ``[first_vpn, first_vpn +
        count)`` to ``first_frame`` plus its offset.

        The same tables as calling :meth:`map_page` in order for every
        page whose :meth:`lookup` is None, one leaf node (512 pages) at a
        time: the node's first such page creates any missing nodes, and
        the rest only need their leaf entries.
        """
        pages = self._pages
        offset = first_frame - first_vpn
        vpn, end = first_vpn, first_vpn + count
        while vpn < end:
            stop = min(end, (vpn | (c.ENTRIES_PER_NODE - 1)) + 1)
            if (vpn >> c.LEVEL_BITS) not in self._large:
                missing = [v for v in range(vpn, stop) if v not in pages]
                if missing:
                    head = missing[0]
                    self.map_page(head << c.PAGE_SHIFT, head + offset)
                    pages.update((v, v + offset) for v in missing[1:])
            vpn = stop

    def unmap_page(self, va: int) -> bool:
        """Remove a leaf mapping (nodes are not reclaimed, as in Linux)."""
        if self._pages.pop(c.vpn(va), None) is not None:
            return True
        return self._large.pop(c.vpn(va) >> c.LEVEL_BITS, None) is not None

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def lookup(self, va: int) -> tuple[int, int] | None:
        """Return ``(frame, leaf_level)`` for ``va`` or None if unmapped.

        For a 2MB mapping the returned frame is the frame of the 4KB page
        *within* the large page, so callers can form byte addresses without
        caring about the page size.
        """
        page = c.vpn(va)
        frame = self._pages.get(page)
        if frame is not None:
            return frame, 1
        large = self._large.get(page >> c.LEVEL_BITS)
        if large is not None:
            return large + (page & (c.ENTRIES_PER_NODE - 1)), 2
        return None

    def frame_of(self, vpn: int) -> int | None:
        """Frame of a 4KB vpn (either granularity), or None."""
        hit = self.lookup(vpn << c.PAGE_SHIFT)
        return hit[0] if hit else None

    def cluster_frames(self, vpn: int) -> list[int | None]:
        """Frames of the aligned 8-page cluster holding ``vpn``.

        This is what a walker sees in the PT cache line it fetched; it
        feeds the Clustered TLB's eager coalescing.
        """
        base = vpn & ~7
        return [self.frame_of(base + i) for i in range(8)]

    # ------------------------------------------------------------------
    # walk paths
    # ------------------------------------------------------------------
    def entry_addr(self, va: int, level: int) -> int | None:
        """Physical address of the level-``level`` entry for ``va``."""
        base = self._nodes_by_level[level].get(c.node_tag(va, level))
        if base is None:
            return None
        return c.entry_phys_addr(base, c.level_index(va, level))

    def walk_path(self, va: int) -> WalkPath:
        """The walk for a *mapped* address; raises PageFault otherwise."""
        hit = self.lookup(va)
        if hit is None:
            raise PageFault(f"no translation for {va:#x}")
        frame, leaf_level = hit
        steps = []
        for level in range(self.levels, leaf_level - 1, -1):
            addr = self.entry_addr(va, level)
            assert addr is not None, "mapped page lost an interior node"
            steps.append(WalkStep(level, addr))
        return WalkPath(va=va, steps=tuple(steps), frame=frame,
                        leaf_level=leaf_level)

    def flat_walk(
        self, va: int
    ) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """:meth:`walk_path` without the step objects: ``(lines, levels,
        frame, leaf_level)``, root first.

        This is what the simulators' per-vpn path caches store — the
        walker fast path consumes line numbers and PT levels only, so
        building :class:`WalkStep`/:class:`WalkPath` instances for every
        first-touched page would be pure allocation overhead.  Raises
        PageFault for unmapped addresses, like :meth:`walk_path`.
        """
        hit = self.lookup(va)
        if hit is None:
            raise PageFault(f"no translation for {va:#x}")
        frame, leaf_level = hit
        by_level = self._nodes_by_level
        lines = []
        levels = []
        shift = c.PAGE_SHIFT + c.LEVEL_BITS * (self.levels - 1)
        for level in range(self.levels, leaf_level - 1, -1):
            # entry_addr unfolded: node base + index * entry size.
            base = by_level[level][va >> (shift + c.LEVEL_BITS)]
            lines.append((base + ((va >> shift) & 511) * 8) >> 6)
            levels.append(level)
            shift -= c.LEVEL_BITS
        return tuple(lines), tuple(levels), frame, leaf_level

    def fault_path(self, va: int) -> FaultPath:
        """The truncated walk for an *unmapped* address (§3.7.1)."""
        if self.lookup(va) is not None:
            raise ValueError(f"{va:#x} is mapped; use walk_path")
        steps = []
        for level in range(self.levels, 0, -1):
            addr = self.entry_addr(va, level)
            if addr is None:
                return FaultPath(va=va, resolved_steps=tuple(steps),
                                 missing_level=level)
            steps.append(WalkStep(level, addr))
        # All nodes exist but the PTE slot is empty: the fault is detected
        # when the (readable) PL1 entry is seen to be not-present.
        return FaultPath(va=va, resolved_steps=tuple(steps), missing_level=0)

    # ------------------------------------------------------------------
    # inventory (Table 2's "PT page count")
    # ------------------------------------------------------------------
    def node_count(self, level: int | None = None) -> int:
        if level is None:
            return sum(len(nodes) for nodes in self._nodes_by_level)
        if not 0 <= level < len(self._nodes_by_level):
            return 0
        return len(self._nodes_by_level[level])

    def node_frames(self) -> Iterable[int]:
        """Physical frame numbers of all PT pages."""
        for nodes in self._nodes_by_level:
            for base in nodes.values():
                yield base >> c.PAGE_SHIFT

    def leaf_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """The raw leaf translation maps ``(pages, large)``.

        ``pages`` is vpn -> frame for 4KB mappings, ``large`` is
        ``vpn >> 9`` -> base frame for 2MB ones.  Exposed (read/write)
        for the kernelsim's bulk populate, which writes whole slices of
        faults at once in :meth:`map_page`'s order; everyone else should
        go through :meth:`lookup` / :meth:`map_page`.
        """
        return self._pages, self._large

    def leaf_nodes(self, level: int) -> dict[int, int]:
        """The node map (tag -> phys base) of ``level``, any level
        (see :meth:`leaf_maps`)."""
        return self._nodes_by_level[level]

    @property
    def mapped_pages(self) -> int:
        return len(self._pages) + len(self._large) * c.ENTRIES_PER_NODE

    @property
    def has_large_pages(self) -> bool:
        """Whether any 2MB mapping exists — when False the TLB large-tag
        probes can never hit and the simulators tell the TLB hierarchy
        to skip them."""
        return bool(self._large)
