"""A set-associative, write-allocate cache model with true-LRU replacement.

The model tracks cache *lines by line number* (physical address >> 6); it
never stores data.  Storage is the repository's shared flat-array LRU
layout (see `repro.tlb.tlb` and docs/ARCHITECTURE.md): one preallocated
``lines`` list of ``sets * (ways+1)`` slots, each set owning a contiguous
segment ordered MRU→LRU with a trailing guard slot, so a probe is one
C-speed ``list.index`` scan and the eviction victim is always the last
live slot.  The hot simulator loops additionally reach into this storage
directly (``repro.mem.hierarchy`` inlines the L1 probe), which is the
point of keeping it as plain indexed arrays rather than per-set dicts.

The compiled columnar kernel (``repro.sim.columnar``) keeps an int64
image of this storage between its calls.  The lists stay the source of
truth: the mutators below drop the image, and so does every other
Python writer of the lists (see that module's docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import CacheParams

#: Sentinel marking an empty slot; real line numbers are non-negative.
EMPTY = -1


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class SetAssociativeCache:
    """LRU set-associative cache over abstract line numbers.

    Parameters
    ----------
    params:
        Geometry (size, associativity, line size).  Latency is *not* used
        here; the hierarchy is responsible for pricing accesses.
    name:
        Label used in stats reporting and repr.
    """

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.sets
        self.ways = params.ways
        #: Slots per set segment: ``ways`` entries plus the guard slot.
        self.stride = params.ways + 1
        self.lines: list[int] = [EMPTY] * (self.num_sets * self.stride)
        self.sizes: list[int] = [0] * self.num_sets
        self.stats = CacheStats()
        #: The compiled kernel's resident copy of ``lines``/``sizes``
        #: (``repro.sim.columnar``), or None.  Every mutator below drops
        #: it, because it must equal the lists whenever it exists.
        self.image = None

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    def lookup(self, line: int, update_lru: bool = True) -> bool:
        """Probe for ``line``; on a hit optionally promote it to MRU."""
        self.image = None
        set_index = line % self.num_sets
        base = set_index * self.stride
        lines = self.lines
        limit = base + self.sizes[set_index]
        lines[limit] = line
        pos = lines.index(line, base)
        lines[limit] = EMPTY
        if pos == limit:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if update_lru and pos != base:
            lines[base + 1:pos + 1] = lines[base:pos]
            lines[base] = line
        return True

    def contains(self, line: int) -> bool:
        """Non-mutating membership test (no stats, no LRU update)."""
        set_index = line % self.num_sets
        base = set_index * self.stride
        lines = self.lines
        limit = base + self.sizes[set_index]
        lines[limit] = line
        pos = lines.index(line, base)
        lines[limit] = EMPTY
        return pos != limit

    def install(self, line: int) -> int | None:
        """Insert ``line`` as MRU; return the evicted line, if any."""
        self.image = None
        set_index = line % self.num_sets
        base = set_index * self.stride
        lines = self.lines
        size = self.sizes[set_index]
        limit = base + size
        lines[limit] = line
        pos = lines.index(line, base)
        lines[limit] = EMPTY
        victim = None
        if pos != limit:
            if pos != base:
                lines[base + 1:pos + 1] = lines[base:pos]
        elif size >= self.ways:
            last = base + self.ways - 1
            victim = lines[last]
            lines[base + 1:last + 1] = lines[base:last]
            self.stats.evictions += 1
        else:
            lines[base + 1:limit + 1] = lines[base:limit]
            self.sizes[set_index] = size + 1
        lines[base] = line
        return victim

    def install_many(self, lines: np.ndarray) -> None:
        """``install`` every line of ``lines`` in order, victims dropped.

        Installs into different sets commute.  When a set's new lines
        are distinct and none is resident, LRU leaves the set holding its
        last ``ways`` new lines, newest first, then its old lines, cut at
        ``ways`` (everything cut is an eviction).  Those sets are placed
        at once, in whole-array passes over a ``sets x stride`` grid of
        the lists; the lines of any other set go through ``install`` one
        at a time, in order.
        """
        new = np.asarray(lines, dtype=np.int64)
        if not new.size:
            return
        self.image = None
        nsets, stride, ways = self.num_sets, self.stride, self.ways
        sets = (new & (nsets - 1) if not nsets & (nsets - 1)
                else new % nsets)
        counts = np.bincount(sets, minlength=nsets)
        old_sizes = np.asarray(self.sizes, dtype=np.int64)
        occupied = bool(old_sizes.any())
        if occupied:
            grid = np.asarray(self.lines, dtype=np.int64).reshape(
                nsets, stride)
        else:
            grid = np.full((nsets, stride), EMPTY, dtype=np.int64)
        # A set clashes when some line repeats among its new and resident
        # lines.  A fresh cache filled with a strictly monotone run of
        # lines (the co-runner prefill) cannot clash, so skip the sort.
        clash = None
        steps = np.diff(new)
        if occupied or not ((steps > 0).all() or (steps < 0).all()):
            values = np.concatenate((grid[grid != EMPTY], new))
            values.sort()
            repeats = values[1:][values[1:] == values[:-1]]
            del values
            if repeats.size:
                clash = np.zeros(nsets, dtype=bool)
                clash[repeats % nsets] = True
        del steps
        placed = counts > 0
        if clash is not None:
            placed &= ~clash
        if occupied:
            # Old lines move down by their set's new-line count; those
            # pushed past the last way are evicted.
            rows = np.flatnonzero(placed & (old_sizes > 0))
            shift = counts[rows]
            slot = np.arange(ways)
            kept = ((slot < old_sizes[rows, None])
                    & (slot + shift[:, None] < ways))
            row, col = np.nonzero(kept)
            grid[rows[row], col + shift[row]] = grid[rows[row], col]
        # Only a set's last `ways` new lines can stay, so place from the
        # shortest tail of the batch that holds them for every set.
        first = max(new.size - nsets * ways, 0)
        tail_counts = counts
        if first:
            tail_counts = np.bincount(sets[first:], minlength=nsets)
            if not ((tail_counts >= ways) | (tail_counts == counts)).all():
                first, tail_counts = 0, counts
        # Group the tail by set in install order (a stable sort; 16-bit
        # keys make it a radix sort): a line's way is the number of its
        # set's lines installed after it.
        tail_sets = sets[first:]
        order = np.argsort(
            tail_sets.astype(np.uint16) if nsets <= 1 << 16 else tail_sets,
            kind="stable")
        grouped_sets = tail_sets[order]
        way = (np.cumsum(tail_counts)[grouped_sets] - 1
               - np.arange(tail_sets.size))
        keep = way < ways
        if clash is not None:
            keep &= ~clash[grouped_sets]
        grid[grouped_sets[keep], way[keep]] = new[first:][order[keep]]
        del tail_sets, order, grouped_sets, way, keep
        sizes = old_sizes + counts
        fits = np.minimum(sizes, ways)
        self.stats.evictions += int((sizes - fits)[placed].sum())
        sizes[placed] = fits[placed]
        if clash is not None:
            sizes[clash] = old_sizes[clash]
        self.lines[:] = grid.ravel().tolist()
        self.sizes[:] = sizes.tolist()
        if clash is not None:
            for line in new[clash[sets]].tolist():
                self.install(line)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns whether it was resident."""
        self.image = None
        set_index = line % self.num_sets
        base = set_index * self.stride
        lines = self.lines
        size = self.sizes[set_index]
        limit = base + size
        lines[limit] = line
        pos = lines.index(line, base)
        lines[limit] = EMPTY
        if pos == limit:
            return False
        last = limit - 1
        lines[pos:last] = lines[pos + 1:limit]
        lines[last] = EMPTY
        self.sizes[set_index] = size - 1
        return True

    def flush(self) -> None:
        self.image = None
        self.lines[:] = [EMPTY] * (self.num_sets * self.stride)
        self.sizes[:] = [0] * self.num_sets

    def resident_lines(self):
        """Iterate all resident line numbers (introspection/debug)."""
        stride = self.stride
        for set_index in range(self.num_sets):
            base = set_index * stride
            yield from self.lines[base:base + self.sizes[set_index]]

    @property
    def occupancy(self) -> int:
        return sum(self.sizes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{self.name}: {self.params.size_bytes >> 10}KB "
            f"{self.ways}-way, {self.occupancy}/{self.params.lines} lines>"
        )
