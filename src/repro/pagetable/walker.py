"""The hardware page-table walker (1D walks) with ASAP overlap timing.

A walk is priced as: one PWC probe (2 cycles), then a *serial* chain of
memory-hierarchy accesses for every level the PWC could not skip.  ASAP
prefetch completions are folded in with the overlap rule of DESIGN.md §5:

    finish(level) = max(t_arrival + latency_seen_now, prefetch_completion)

Since an ASAP prefetch installs the PT line into the L1-D, the walker's
demand access typically sees an L1 hit whose *data* is architecturally
available only once the in-flight prefetch completes — hence the max().
The walker never consumes a translation that the walk itself did not
produce, mirroring the paper's security argument (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.radix import FaultPath, WalkPath

#: Label used in service records for levels skipped via the PWC.
PWC_LABEL = "PWC"


@dataclass
class WalkOutcome:
    """Result of pricing one page walk."""

    latency: int
    #: (pt_level, serving label) per request — feeds Figure 9.
    records: list[tuple[int, str]] = field(default_factory=list)
    faulted: bool = False
    prefetched_levels: tuple[int, ...] = ()


class _WalkCounters:
    """The walker's counters, shared with its :meth:`walk_flat` closure
    (which therefore needs no reference back to the walker)."""

    __slots__ = ("walks", "total_latency")

    def __init__(self) -> None:
        self.walks = 0
        self.total_latency = 0


class PageWalker:
    """Walks :class:`WalkPath` objects against a shared cache hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, pwc: SplitPwc) -> None:
        self.hierarchy = hierarchy
        self.pwc = pwc
        self._counters = _WalkCounters()
        #: Inlined fast path over pre-flattened walk paths (closure; the
        #: simulators' record loops call this once per walk).
        self.walk_flat = self._build_walk_flat()

    @property
    def walks(self) -> int:
        return self._counters.walks

    @walks.setter
    def walks(self, value: int) -> None:
        self._counters.walks = value

    @property
    def total_latency(self) -> int:
        return self._counters.total_latency

    @total_latency.setter
    def total_latency(self, value: int) -> None:
        self._counters.total_latency = value

    def walk(
        self,
        path: WalkPath,
        now: int = 0,
        prefetches: dict[int, int] | None = None,
    ) -> WalkOutcome:
        """Price the walk for ``path`` starting at time ``now``.

        ``prefetches`` maps PT level -> absolute completion time of a
        *useful* ASAP prefetch (wrong-address prefetches, e.g. into region
        holes, must not be passed here — they help nobody).
        """
        self.hierarchy.drop_images()
        records: list[tuple[int, str]] = []
        t = now + self.pwc.latency
        skip_from = self.pwc.probe(path.va)
        steps = path.steps
        start = 0
        if skip_from is not None:
            for index, step in enumerate(steps):
                if step.level >= skip_from:
                    records.append((step.level, PWC_LABEL))
                    start = index + 1
                else:
                    break
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        for step in steps[start:]:
            latency = access(step.line, t)
            finish = t + latency
            if prefetches:
                completion = prefetches.get(step.level)
                if completion is not None and completion > finish:
                    finish = completion
            records.append((step.level, last_level[0]))
            t = finish
        self.pwc.insert(path.va, path.leaf_level)
        latency = t - now
        counters = self._counters
        counters.walks += 1
        counters.total_latency += latency
        return WalkOutcome(
            latency=latency,
            records=records,
            prefetched_levels=tuple(sorted(prefetches)) if prefetches else (),
        )

    def _build_walk_flat(self):
        """Build ``walk_flat(lines, levels, pwc_tags, leaf_level, now,
        prefetches, records) -> latency``.

        The simulators cache each page's walk path once as flat tuples —
        ``lines``/``levels`` per step (root first) and one PWC tag per
        :attr:`SplitPwc.view` entry — so repeat walks skip path
        reconstruction entirely.  Semantics match :meth:`walk` exactly
        (PWC probe order, overlap rule, every stats counter), but the PWC
        probe and insert run inline on the per-level flat arrays and
        ``records`` is appended to only when the caller needs service
        records, keeping the measurement-off path allocation-free.
        Unlike :meth:`walk` it does not drop the compiled kernel's cache
        images: its callers, the record loops, drop them once up front.
        It counts through :attr:`_counters`, never ``self``, so the
        walker and the cache hierarchy it holds are freed by reference
        counting once a run lets go of them.
        """
        from repro.tlb.tlb import EMPTY

        pwc = self.pwc
        pwc_latency = pwc.params.latency
        #: (level, tags, frames, sizes, stride, num_sets, ways, stats)
        #: per PWC level, probe order (deepest first).
        level_views = tuple(
            (level, tlb.tags, tlb.frames, tlb.sizes, tlb.stride,
             tlb.num_sets, tlb.ways, tlb.stats)
            for level, tlb in pwc.view
        )
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        counters = self._counters

        def walk_flat(lines, levels, pwc_tags, leaf_level, now,
                      prefetches, records):
            # --- PWC probe: deepest cached level wins -----------------
            t = now + pwc_latency
            pwc.probes += 1
            skip_from = None
            view_index = 0
            for (level, vtags, vframes, vsizes, vstride, vnsets, _ways,
                 vstats) in level_views:
                tag = pwc_tags[view_index]
                view_index += 1
                set_index = tag % vnsets
                base = set_index * vstride
                if vtags[base] == tag:
                    # MRU shortcut: hit in place.
                    vstats.hits += 1
                    pwc.hits += 1
                    skip_from = level
                    break
                limit = base + vsizes[set_index]
                vtags[limit] = tag
                pos = vtags.index(tag, base)
                vtags[limit] = EMPTY
                if pos != limit:
                    vstats.hits += 1
                    frame = vframes[pos]
                    vtags[base + 1:pos + 1] = vtags[base:pos]
                    vtags[base] = tag
                    vframes[base + 1:pos + 1] = vframes[base:pos]
                    vframes[base] = frame
                    pwc.hits += 1
                    skip_from = level
                    break
                vstats.misses += 1
            # --- steps the PWC could not skip -------------------------
            n = len(lines)
            start = 0
            if skip_from is not None:
                while start < n and levels[start] >= skip_from:
                    if records is not None:
                        records.append((levels[start], PWC_LABEL))
                    start += 1
            if records is None and prefetches is None:
                for i in range(start, n):
                    t += access(lines[i], t)
            else:
                for i in range(start, n):
                    latency = access(lines[i], t)
                    finish = t + latency
                    if prefetches:
                        completion = prefetches.get(levels[i])
                        if completion is not None and completion > finish:
                            finish = completion
                    if records is not None:
                        records.append((levels[i], last_level[0]))
                    t = finish
            # --- PWC insert: cache the produced intermediate entries --
            view_index = 0
            for (level, vtags, vframes, vsizes, vstride, vnsets, vways,
                 _vstats) in level_views:
                tag = pwc_tags[view_index]
                view_index += 1
                if level <= leaf_level:
                    continue
                set_index = tag % vnsets
                base = set_index * vstride
                if vtags[base] == tag:
                    # Already MRU: refresh the (constant) payload only.
                    vframes[base] = 1
                    continue
                size = vsizes[set_index]
                limit = base + size
                vtags[limit] = tag
                pos = vtags.index(tag, base)
                vtags[limit] = EMPTY
                if pos != limit:
                    vtags[base + 1:pos + 1] = vtags[base:pos]
                    vframes[base + 1:pos + 1] = vframes[base:pos]
                elif size >= vways:
                    last = base + vways - 1
                    vtags[base + 1:last + 1] = vtags[base:last]
                    vframes[base + 1:last + 1] = vframes[base:last]
                else:
                    vtags[base + 1:limit + 1] = vtags[base:limit]
                    vframes[base + 1:limit + 1] = vframes[base:limit]
                    vsizes[set_index] = size + 1
                vtags[base] = tag
                vframes[base] = 1
            latency = t - now
            counters.walks += 1
            counters.total_latency += latency
            return latency

        return walk_flat

    def walk_to_fault(
        self,
        path: FaultPath,
        now: int = 0,
        prefetches: dict[int, int] | None = None,
    ) -> WalkOutcome:
        """Price fault *detection* for an unmapped address (§3.7.1).

        The walker reads every resolved entry and discovers the
        not-present entry at the end; ASAP prefetches to the deep levels
        still overlap and shorten detection when the reserved regions make
        those entry locations computable.
        """
        self.hierarchy.drop_images()
        records: list[tuple[int, str]] = []
        t = now + self.pwc.latency
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        for step in path.resolved_steps:
            latency = access(step.line, t)
            finish = t + latency
            if prefetches:
                completion = prefetches.get(step.level)
                if completion is not None and completion > finish:
                    finish = completion
            records.append((step.level, last_level[0]))
            t = finish
        counters = self._counters
        counters.walks += 1
        counters.total_latency += t - now
        return WalkOutcome(latency=t - now, records=records, faulted=True)

    @property
    def average_latency(self) -> float:
        if not self.walks:
            return 0.0
        return self.total_latency / self.walks
