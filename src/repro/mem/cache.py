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

        Installs into different sets commute, so the lines are grouped
        by set (install order kept) and each set is updated once.  When a
        set's new lines are distinct and none is resident, LRU leaves the
        set holding its last ``ways`` new lines, newest first, then its
        old lines, cut at ``ways`` (everything cut is an eviction).  Any
        other set takes the per-line path.
        """
        new = np.asarray(lines, dtype=np.int64)
        if not new.size:
            return
        self.image = None
        # Each temporary goes before the next is built, which keeps the
        # peak near the per-line loop's (the co-runner prefill feeds a
        # whole L3's worth of lines).
        sets = new % self.num_sets
        counts = np.bincount(sets, minlength=self.num_sets).tolist()
        order = np.argsort(sets, kind="stable")
        del sets
        grouped = new[order]
        del order
        grouped = grouped.tolist()
        store, sizes = self.lines, self.sizes
        stride, ways = self.stride, self.ways
        evictions = 0
        end = 0
        for set_index, count in enumerate(counts):
            if not count:
                continue
            batch = grouped[end:end + count]
            end += count
            base = set_index * stride
            size = sizes[set_index]
            old = store[base:base + size]
            fresh = set(batch)
            if len(fresh) != count or not fresh.isdisjoint(old):
                for line in batch:
                    self.install(line)
                continue
            batch.reverse()
            kept = batch[:ways] + old[:max(ways - count, 0)]
            store[base:base + len(kept)] = kept
            sizes[set_index] = len(kept)
            evictions += size + count - len(kept)
        self.stats.evictions += evictions

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
