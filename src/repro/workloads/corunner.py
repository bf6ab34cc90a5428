"""The synthetic SMT co-runner of the paper's colocation methodology (§4).

"We use a synthetic co-runner that issues one request to a random address
for each memory access by the application thread."  The co-runner shares
the entire cache hierarchy (SMT), so its traffic — both its random data
reads and the page-walk reads those trigger (a random address over a big
footprint misses its TLB essentially every time) — evicts the application's
PT lines from L1/L2/LLC.  That is the mechanism behind Figure 8b/10b.

TLB and PWC *capacity* contention is deliberately not modelled, matching
the paper (which notes this makes ASAP's colocation gains conservative):
the co-runner's walks only generate cache traffic, touching its own PT
lines, never the application's translation structures.
"""

from __future__ import annotations

import numpy as np

from repro.mem.hierarchy import CacheHierarchy

#: The co-runner's physical lines live far above any simulated allocation
#: (our machines top out below 4TB).
_CORUNNER_LINE_BASE = 1 << 38
#: Its page table sits in a separate region.
_CORUNNER_PT_BASE = 1 << 37


class Corunner:
    """Issues one random data access plus its walk traffic per app access."""

    def __init__(
        self,
        footprint_bytes: int = 16 << 30,
        seed: int = 1234,
        batch: int = 65536,
        walk_lines_per_access: float = 1.5,
        intensity: int = 1,
    ) -> None:
        """``intensity`` scales the interference rate: how many co-runner
        (data + walk) access groups are replayed per application access.

        Simulated traces compress the application's reuse distances by
        orders of magnitude relative to the billions-of-accesses runs the
        paper measures; the co-runner's eviction rate must be compressed by
        the same factor for the LLC-residency transitions of Figures 8b/10b
        to stay at the same *relative* position.  See EXPERIMENTS.md.
        """
        self.footprint_lines = footprint_bytes >> 6
        # One PL1 line covers 8 pages = 32KB of the co-runner's footprint.
        self.pt_lines = max(1, footprint_bytes >> 15)
        self.walk_lines_per_access = walk_lines_per_access
        self.intensity = max(1, intensity)
        self._rng = np.random.default_rng(seed)
        self._batch = batch
        #: The drawn stream not issued yet: line groups ``[data, pt1(,
        #: pt2)]`` back to back in ``_lines`` and each group's line count
        #: in ``_takes``; ``_cursor`` and ``_take_cursor`` index the next
        #: group's first line and its count.  The compiled kernel
        #: (`repro.sim.columnar`) issues groups straight from these
        #: arrays; ``step`` from list copies of them (``_lists``, made
        #: once per refill).
        self._lines = np.empty(0, dtype=np.int64)
        self._takes = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self._take_cursor = 0
        self._lists: tuple[list[int], list[int]] | None = None
        self.accesses = 0

    def _refill(self) -> None:
        """Draw the next ``batch`` groups onto the end of the stream."""
        n = self._batch
        data = self._rng.integers(0, self.footprint_lines, size=n,
                                  dtype=np.int64) + _CORUNNER_LINE_BASE
        # Walk traffic: PL1 line of the accessed page, plus upper-level
        # lines with decreasing probability (they mostly hit the
        # co-runner's PWC, but the deep levels do not — §3.1).
        pt1 = self._rng.integers(0, self.pt_lines, size=n,
                                 dtype=np.int64) + _CORUNNER_PT_BASE
        extra_mask = self._rng.random(n) < (self.walk_lines_per_access - 1.0)
        pt2 = self._rng.integers(0, max(1, self.pt_lines >> 9), size=n,
                                 dtype=np.int64) + _CORUNNER_PT_BASE * 3
        # Vectorised merge into [data_i, pt1_i(, pt2_i)] groups: each
        # group's start is the running sum of the preceding group sizes,
        # so three scatter-assignments build the interleaved stream the
        # old per-element loop produced, byte for byte (same draws, same
        # order; pinned by the colocation goldens in test_fast_path.py).
        takes = np.where(extra_mask, np.int64(3), np.int64(2))
        ends = np.cumsum(takes)
        starts = ends - takes
        merged = np.empty(int(ends[-1]), dtype=np.int64)
        merged[starts] = data
        merged[starts + 1] = pt1
        merged[starts[extra_mask] + 2] = pt2[extra_mask]
        # Appended to the groups not issued yet: the stream is the same
        # sequence of groups whenever a batch is drawn, since nothing but
        # this method draws from the co-runner's generator.
        self._lines = np.concatenate((self._lines[self._cursor:], merged))
        self._takes = np.concatenate((self._takes[self._take_cursor:],
                                      takes))
        self._cursor = 0
        self._take_cursor = 0
        self._lists = None

    def _draw_ahead(self) -> None:
        """Draw batches until the next step's ``intensity`` groups are
        all drawn.  ``step`` calls it first; the compiled kernel stops
        before a record whose groups are not drawn, and its driver calls
        it there."""
        while self._take_cursor + self.intensity > self._takes.size:
            self._refill()

    def prefill(self, hierarchy: CacheHierarchy) -> None:
        """Install the co-runner's steady-state cache contents.

        A memory-intensive co-runner that has been running alongside the
        application for billions of accesses keeps the shared caches full
        of its single-use lines.  Simulated traces are far too short to
        reach that state by replay, so colocated runs start from it: every
        cache level begins full of co-runner junk, which the application
        then has to displace — exactly the §4 colocation pressure.

        Each level installs the same lines in the same order, and an
        install touches only its own level, so each level takes them in
        one ``install_many``: whole-array passes, with the lists, sizes
        and eviction counts per-line installs would leave.
        """
        total = hierarchy.params.l3.lines + hierarchy.params.l2.lines
        step = max(1, self.footprint_lines // (total + 1))
        lines = _CORUNNER_LINE_BASE + step * np.arange(total, dtype=np.int64)
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            cache.install_many(lines)

    def step(self, hierarchy: CacheHierarchy, now: int) -> None:
        """One co-runner slot: the next ``intensity`` groups (data and
        walk lines) through the hierarchy at ``now``.

        Each line is a demand access (``access_line`` without building
        the result the co-runner never reads).  The scalar record loop
        calls this after every record; the compiled kernel of
        `repro.sim.columnar` issues the same groups at the same point
        itself, so a compiled colocated run never calls it.
        """
        hierarchy.drop_images()
        if self._take_cursor + self.intensity > self._takes.size:
            self._draw_ahead()
        if self._lists is None:
            self._lists = (self._lines.tolist(), self._takes.tolist())
        lines, takes = self._lists
        first = self._take_cursor
        end = first + self.intensity
        start = self._cursor
        stop = start + sum(takes[first:end])
        access = hierarchy.access
        for line in lines[start:stop]:
            access(line, now)
        self._cursor = stop
        self._take_cursor = end
        self.accesses += 1
