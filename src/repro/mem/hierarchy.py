"""Three-level cache hierarchy plus main memory (Table 5).

An access probes L1 → L2 → L3 and is served by the first hit (or memory).
The line is then installed in every level above the serving one, modelling
the fill path.  Latencies are *total* access latencies at the serving level:
4 / 12 / 40 / 191 cycles for L1 / L2 / LLC / memory.

The hierarchy operates on line numbers (physical byte address >> 6); helper
``access_addr`` accepts byte addresses.  It is shared state: the application
thread, the page walker, ASAP prefetches and any SMT co-runner all touch the
same instance, which is what creates the cache pressure the paper studies.

Prefetches (ASAP's path) are best effort: they allocate an L1 MSHR before
anything is fetched and are dropped — with no architectural side effect —
when the MSHR file is full (§3.4).  A demand access that misses the L1 while
a prefetch to the same line is still in flight *merges* with it and
completes when the prefetch does.

Hot-path note: ``access`` is a closure built once per instance that probes
and fills the three levels *inline* on their flat array storage
(`repro.mem.cache`) and returns the latency as a plain int, leaving the
serving-level label in the one-slot ``last_level`` cell — the simulators
and walkers call it millions of times per run and mostly ignore the
label, so returning a tuple would be pure allocation overhead.
``access_line`` wraps the same closure in the stable
:class:`AccessResult` API for everything off the hot path (tests,
schemes, the co-runner).  Because the closure captures the underlying
lists and stat objects, every mutating operation must stay in place
(``flush``/``reset_stats`` reuse the same containers).

The closure writes the lists without dropping the compiled kernel's
resident cache images (`repro.sim.columnar`), so its callers do:
``access_line`` here, the simulators' record loops and the public
walker entry points before they start.  ``prefetch_line``, ``warm``
and ``flush`` go through the cache mutators, which drop their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.mem.cache import EMPTY, SetAssociativeCache
from repro.mem.mshr import MshrFile
from repro.params import HierarchyParams

#: Canonical serving-level labels, closest first.
LEVELS = ("L1", "L2", "L3", "MEM")


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    latency: int
    level: str  # one of LEVELS, or "MSHR" for merges with a prefetch


class CacheHierarchy:
    """Shared L1/L2/L3 + memory with an L1 MSHR file for prefetches."""

    def __init__(self, params: HierarchyParams | None = None) -> None:
        self.params = params or HierarchyParams()
        self.l1 = SetAssociativeCache(self.params.l1, name="L1")
        self.l2 = SetAssociativeCache(self.params.l2, name="L2")
        self.l3 = SetAssociativeCache(self.params.l3, name="L3")
        self.mshrs = MshrFile(self.params.mshr_entries)
        self._latencies = {
            "L1": self.params.l1.latency,
            "L2": self.params.l2.latency,
            "L3": self.params.l3.latency,
            "MEM": self.params.memory_latency,
        }
        self.served: dict[str, int] = {level: 0 for level in LEVELS}
        self.prefetches_issued = 0
        self.prefetches_dropped = 0
        #: Serving level of the most recent ``access`` call ("L1", "L2",
        #: "L3", "MEM" or "MSHR"), as a one-slot cell.
        self.last_level: list[str] = ["L1"]
        #: The inlined hot-path probe: ``access(line, now) -> latency``;
        #: the serving level lands in ``last_level``.  Built once; see
        #: module docstring.
        self.access: Callable[[int, int], int] = self._build_access()

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    def _build_access(self) -> Callable[[int, int], int]:
        """Build the inlined L1→L2→L3→MEM probe/fill closure.

        Semantically identical to the unfolded ``lookup``/``install``
        calls it replaces, including every stats counter; the win is that
        one call prices an access end to end with zero further dispatch.
        Install steps exploit that the preceding probe already proved the
        line absent, so they skip the membership scan a generic
        ``install`` would pay.
        """
        l1, l2, l3 = self.l1, self.l2, self.l3
        l1_lines, l2_lines, l3_lines = l1.lines, l2.lines, l3.lines
        l1_sizes, l2_sizes, l3_sizes = l1.sizes, l2.sizes, l3.sizes
        l1_nsets, l2_nsets, l3_nsets = l1.num_sets, l2.num_sets, l3.num_sets
        l1_stride, l2_stride, l3_stride = l1.stride, l2.stride, l3.stride
        l1_ways, l2_ways, l3_ways = l1.ways, l2.ways, l3.ways
        l1_stats, l2_stats, l3_stats = l1.stats, l2.stats, l3.stats
        lat1 = self._latencies["L1"]
        lat2 = self._latencies["L2"]
        lat3 = self._latencies["L3"]
        latm = self._latencies["MEM"]
        served = self.served
        last_level = self.last_level
        mshr_inflight = self.mshrs._inflight
        inflight_completion = self.mshrs.inflight_completion

        def access(line: int, now: int = 0) -> int:
            # --- L1 probe --------------------------------------------
            l1_set = line % l1_nsets
            l1_base = l1_set * l1_stride
            if l1_lines[l1_base] == line:
                # MRU shortcut: hit in place, no reordering needed.
                l1_stats.hits += 1
                served["L1"] += 1
                last_level[0] = "L1"
                return lat1
            limit = l1_base + l1_sizes[l1_set]
            l1_lines[limit] = line
            pos = l1_lines.index(line, l1_base)
            l1_lines[limit] = EMPTY
            if pos != limit:
                l1_stats.hits += 1
                l1_lines[l1_base + 1:pos + 1] = l1_lines[l1_base:pos]
                l1_lines[l1_base] = line
                served["L1"] += 1
                last_level[0] = "L1"
                return lat1
            l1_stats.misses += 1
            # --- MSHR merge with an in-flight prefetch ---------------
            if mshr_inflight:
                merged = inflight_completion(line, now)
                if merged is not None and merged > now:
                    size = l1_sizes[l1_set]
                    if size >= l1_ways:
                        last = l1_base + l1_ways - 1
                        l1_lines[l1_base + 1:last + 1] = \
                            l1_lines[l1_base:last]
                        l1_stats.evictions += 1
                    else:
                        limit = l1_base + size
                        l1_lines[l1_base + 1:limit + 1] = \
                            l1_lines[l1_base:limit]
                        l1_sizes[l1_set] = size + 1
                    l1_lines[l1_base] = line
                    last_level[0] = "MSHR"
                    return merged - now
            # --- L2 probe --------------------------------------------
            l2_set = line % l2_nsets
            l2_base = l2_set * l2_stride
            if l2_lines[l2_base] == line:
                l2_stats.hits += 1
                latency, level = lat2, "L2"
            else:
                limit = l2_base + l2_sizes[l2_set]
                l2_lines[limit] = line
                pos = l2_lines.index(line, l2_base)
                l2_lines[limit] = EMPTY
                if pos != limit:
                    l2_stats.hits += 1
                    l2_lines[l2_base + 1:pos + 1] = l2_lines[l2_base:pos]
                    l2_lines[l2_base] = line
                    latency, level = lat2, "L2"
                else:
                    l2_stats.misses += 1
                    # --- L3 probe ------------------------------------
                    l3_set = line % l3_nsets
                    l3_base = l3_set * l3_stride
                    if l3_lines[l3_base] == line:
                        l3_stats.hits += 1
                        latency, level = lat3, "L3"
                    else:
                        limit = l3_base + l3_sizes[l3_set]
                        l3_lines[limit] = line
                        pos = l3_lines.index(line, l3_base)
                        l3_lines[limit] = EMPTY
                        if pos != limit:
                            l3_stats.hits += 1
                            l3_lines[l3_base + 1:pos + 1] = \
                                l3_lines[l3_base:pos]
                            l3_lines[l3_base] = line
                            latency, level = lat3, "L3"
                        else:
                            l3_stats.misses += 1
                            latency, level = latm, "MEM"
                            # install into L3 (line known absent)
                            size = l3_sizes[l3_set]
                            if size >= l3_ways:
                                last = l3_base + l3_ways - 1
                                l3_lines[l3_base + 1:last + 1] = \
                                    l3_lines[l3_base:last]
                                l3_stats.evictions += 1
                            else:
                                limit = l3_base + size
                                l3_lines[l3_base + 1:limit + 1] = \
                                    l3_lines[l3_base:limit]
                                l3_sizes[l3_set] = size + 1
                            l3_lines[l3_base] = line
                    # install into L2 (L3/MEM serve; line known absent)
                    size = l2_sizes[l2_set]
                    if size >= l2_ways:
                        last = l2_base + l2_ways - 1
                        l2_lines[l2_base + 1:last + 1] = \
                            l2_lines[l2_base:last]
                        l2_stats.evictions += 1
                    else:
                        limit = l2_base + size
                        l2_lines[l2_base + 1:limit + 1] = \
                            l2_lines[l2_base:limit]
                        l2_sizes[l2_set] = size + 1
                    l2_lines[l2_base] = line
            # install into L1 (every non-L1 serve; line known absent)
            size = l1_sizes[l1_set]
            if size >= l1_ways:
                last = l1_base + l1_ways - 1
                l1_lines[l1_base + 1:last + 1] = l1_lines[l1_base:last]
                l1_stats.evictions += 1
            else:
                limit = l1_base + size
                l1_lines[l1_base + 1:limit + 1] = l1_lines[l1_base:limit]
                l1_sizes[l1_set] = size + 1
            l1_lines[l1_base] = line
            served[level] += 1
            last_level[0] = level
            return latency

        return access

    def access_line(self, line: int, now: int = 0) -> AccessResult:
        """Demand access to ``line``; installs into upper levels on miss."""
        self.drop_images()
        latency = self.access(line, now)
        return AccessResult(latency, self.last_level[0])

    def drop_images(self) -> None:
        """Drop the compiled kernel's resident images of all three
        caches; call before writing their lists through ``access``."""
        self.l1.image = self.l2.image = self.l3.image = None

    def access_addr(self, phys_addr: int, now: int = 0) -> AccessResult:
        return self.access_line(phys_addr >> 6, now)

    def bulk_l1_hits(self, count: int) -> None:
        """Account ``count`` repeat L1 hits on the line the immediately
        preceding access left at MRU (the batched front-end's streak
        costing; the repeats would neither move LRU state nor miss)."""
        self.l1.stats.hits += count
        self.served["L1"] += count

    def _serving_level_below_l1(self, line: int) -> str:
        if self.l2.lookup(line):
            return "L2"
        if self.l3.lookup(line):
            return "L3"
        return "MEM"

    def _fill(self, line: int, served_at: str) -> None:
        self.l1.install(line)
        if served_at in ("L3", "MEM"):
            self.l2.install(line)
        if served_at == "MEM":
            self.l3.install(line)

    # ------------------------------------------------------------------
    # prefetch path (used by ASAP)
    # ------------------------------------------------------------------
    def prefetch_line(self, line: int, now: int) -> int | None:
        """Issue a best-effort prefetch for ``line`` at time ``now``.

        Returns the absolute completion time, or None when the prefetch was
        dropped for lack of an MSHR.  On success the line is installed into
        the L1-D (and intermediate levels), exactly like a demand fill.
        """
        if self.l1.lookup(line):
            # Already resident: the "prefetch" is a free L1 hit.
            self.served["L1"] += 1
            return now + self._latencies["L1"]
        level = self._serving_level_below_l1(line)
        completion = now + self._latencies[level]
        if not self.mshrs.try_allocate(line, now, completion):
            self.prefetches_dropped += 1
            return None
        self._fill(line, level)
        self.served[level] += 1
        self.prefetches_issued += 1
        return completion

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def warm(self, lines: Iterable[int]) -> None:
        """Pre-install lines in all levels (used by tests and warmup)."""
        for line in lines:
            self.l1.install(line)
            self.l2.install(line)
            self.l3.install(line)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.l3.flush()
        self.mshrs.reset()

    def latency_of(self, level: str) -> int:
        return self._latencies[level]

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.stats.reset()
        # In place: the ``access`` closure captured this dict.
        for level in LEVELS:
            self.served[level] = 0
        self.prefetches_issued = 0
        self.prefetches_dropped = 0
