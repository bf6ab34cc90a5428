"""Two-level TLB hierarchy: L1 D-TLB backed by the unified L2 S-TLB.

Page-size handling follows the usual simulator convention: a lookup probes
both the 4KB tag and the 2MB tag of the address (the page size is unknown
before the lookup, §2.5), and fills install at the granularity the walk
discovered.  Tags encode the size class in the low bit so both classes
share the set-associative structures.

Multi-tenant runs encode the address-space identifier the same way: the
simulators hand this hierarchy *biased* vpns (``vpn | asid_bias(asid)``,
see :data:`repro.tlb.tlb.ASID_SHIFT`), so the ASID lands in the high bits
of both the small and the large tag and translations of different tenants
coexist without ambiguity.  ASID 0 is the identity — single-tenant runs
pass raw vpns and pay nothing.

Three variants are exposed through one class:

* the plain Table 5 configuration (64-entry L1, 1536-entry L2),
* ``clustered=True`` replaces the L2 S-TLB with the Clustered TLB of
  §5.4.1 (coalescing up to eight translations per entry),
* ``infinite=True`` never evicts, which reproduces the paper's
  libhugetlbfs trick of §5.3 (only cold misses remain) for Table 6.

Hot-path note: ``lookup`` is a closure built per instance that probes the
L1 arrays (`repro.tlb.tlb` flat storage) inline — one call per trace
record, no dispatch into the per-structure methods on the L1 hit path.
The infinite store stays a plain dict: it is an unbounded exact map with
no replacement decisions, so there is nothing to preallocate.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.params import TlbHierarchyParams
from repro.pagetable.constants import LEVEL_BITS
from repro.tlb.clustered import ClusteredTlb
from repro.tlb.tlb import EMPTY, Tlb, TlbStats


# The size class rides in the low bit; an ASID bias (if any) rides in the
# high bits of ``vpn`` itself and therefore survives both encodings.
def _small_tag(vpn: int) -> int:
    return vpn << 1

def _large_tag(vpn: int) -> int:
    return ((vpn >> LEVEL_BITS) << 1) | 1


class _TlbState:
    """What :class:`TlbHierarchy`'s hot-path closures share: the TLB
    structures, the hit counters, the large-probe switch and the L2
    evict hook, with the generic L2 probe and fill over them.

    It holds no reference to the hierarchy, so the closures the
    hierarchy stores on itself form no reference cycle with it, and a
    finished run's TLBs are freed by reference counting.
    """

    __slots__ = ("l1", "l2_plain", "l2_clustered", "large_side",
                 "infinite_store", "infinite", "probe_large", "l1_hits",
                 "l2_hits", "l2_evict_hook")

    def __init__(self, l1: Tlb, l2_plain: Tlb | None,
                 l2_clustered: ClusteredTlb | None,
                 large_side: Tlb | None, infinite: bool) -> None:
        self.l1 = l1
        self.l2_plain = l2_plain
        self.l2_clustered = l2_clustered
        self.large_side = large_side
        self.infinite_store: dict[int, int] = {}
        self.infinite = infinite
        self.probe_large = [True]
        self.l1_hits = 0
        self.l2_hits = 0
        self.l2_evict_hook: Callable[[int, int], None] | None = None

    def l2_lookup(self, vpn: int) -> int | None:
        if self.l2_clustered is not None:
            frame = self.l2_clustered.lookup(vpn)
            if frame is not None:
                return frame
            if not self.probe_large[0]:
                return None
            return self.large_side.lookup(_large_tag(vpn))
        assert self.l2_plain is not None
        frame = self.l2_plain.lookup(_small_tag(vpn))
        if frame is None and self.probe_large[0]:
            frame = self.l2_plain.lookup(_large_tag(vpn))
        return frame

    def fill(
        self,
        vpn: int,
        frame: int,
        large: bool = False,
        neighbour_frames: Sequence[int | None] | None = None,
    ) -> None:
        if self.infinite:
            self.infinite_store[vpn] = frame
            return
        if large:
            tag = _large_tag(vpn)
            self.l1.fill(tag, frame)
            if self.l2_clustered is not None:
                self.large_side.fill(tag, frame)
            else:
                assert self.l2_plain is not None
                self.l2_plain.fill(tag, frame)
            return
        self.l1.fill(_small_tag(vpn), frame)
        if self.l2_clustered is not None:
            self.l2_clustered.fill(vpn, frame, neighbour_frames)
        else:
            assert self.l2_plain is not None
            victim = self.l2_plain.fill(_small_tag(vpn), frame)
            if victim is not None and self.l2_evict_hook is not None \
                    and not (victim[0] & 1):
                self.l2_evict_hook(victim[0] >> 1, victim[1])


class TlbHierarchy:
    """L1 + L2 TLBs with unified miss accounting (walk triggers)."""

    def __init__(
        self,
        params: TlbHierarchyParams | None = None,
        clustered: bool = False,
        infinite: bool = False,
    ) -> None:
        self.params = params or TlbHierarchyParams()
        self.clustered = clustered
        self.infinite = infinite
        self.l1 = Tlb(self.params.l1, name="L1-DTLB")
        self.l2_plain: Tlb | None = None
        self.l2_clustered: ClusteredTlb | None = None
        self._large_side: Tlb | None = None
        if clustered:
            self.l2_clustered = ClusteredTlb(self.params.l2, name="L2-STLB")
            # Large pages do not coalesce; they get a small private array.
            self._large_side = Tlb(self.params.l2, name="L2-large")
        else:
            self.l2_plain = Tlb(self.params.l2, name="L2-STLB")
        self._state = _TlbState(self.l1, self.l2_plain, self.l2_clustered,
                                self._large_side, infinite)
        self._infinite_store = self._state.infinite_store
        self.stats = TlbStats()
        #: One-element cell read by the lookup closure: the simulators
        #: clear it when the (immutable, pre-populated) page table holds
        #: no 2MB mappings, so the large-tag probes — which can then
        #: never hit — are skipped.  Behaviour-neutral either way.
        self.probe_large: list[bool] = self._state.probe_large
        #: Inlined hot-path probe (closure; see module docstring).
        self.lookup: Callable[[int], int | None] = self._build_lookup()
        #: Inlined fill for the simulators' post-miss fills (closure).
        self.fill_fast: Callable[..., None] = self._build_fill_fast()

    @property
    def l1_hits(self) -> int:
        return self._state.l1_hits

    @l1_hits.setter
    def l1_hits(self, value: int) -> None:
        self._state.l1_hits = value

    @property
    def l2_hits(self) -> int:
        return self._state.l2_hits

    @l2_hits.setter
    def l2_hits(self, value: int) -> None:
        self._state.l2_hits = value

    @property
    def l2_evict_hook(self) -> Callable[[int, int], None] | None:
        """Optional observer for small-page L2 S-TLB evictions,
        ``hook(vpn, frame)`` — translation schemes that recycle victims
        (e.g. Victima parking them in the data cache) attach here at
        bind time.  None costs one test per walk-path fill."""
        return self._state.l2_evict_hook

    @l2_evict_hook.setter
    def l2_evict_hook(self,
                      hook: Callable[[int, int], None] | None) -> None:
        self._state.l2_evict_hook = hook

    # ------------------------------------------------------------------
    def _build_lookup(self) -> Callable[[int], int | None]:
        """Build ``lookup(vpn) -> frame | None`` with the L1 probe inlined.

        Walk-trigger accounting is unchanged: a returned None has already
        counted one hierarchy miss.  The L2 probe and the L1 refill stay
        behind one call each — they only run on L1 misses.
        """
        l1 = self.l1
        l1_tags, l1_frames = l1.tags, l1.frames
        l1_sizes, l1_stride, l1_nsets = l1.sizes, l1.stride, l1.num_sets
        l1_stats = l1.stats
        stats = self.stats
        state = self._state
        l2 = self.l2_plain
        if l2 is not None:
            l2_tags, l2_frames = l2.tags, l2.frames
            l2_sizes, l2_stride, l2_nsets = l2.sizes, l2.stride, l2.num_sets
            l2_stats = l2.stats
        l2_generic = state.l2_lookup
        l1_fill = l1.fill
        infinite = self.infinite
        clustered = self.clustered
        infinite_get = self._infinite_store.get
        probe_large = self.probe_large

        def l2_lookup(vpn: int) -> int | None:
            """Plain L2 S-TLB probe (small then large tag), inline."""
            tag = vpn << 1
            set_index = tag % l2_nsets
            base = set_index * l2_stride
            limit = base + l2_sizes[set_index]
            l2_tags[limit] = tag
            pos = l2_tags.index(tag, base)
            l2_tags[limit] = EMPTY
            if pos != limit:
                l2_stats.hits += 1
                frame = l2_frames[pos]
                if pos != base:
                    l2_tags[base + 1:pos + 1] = l2_tags[base:pos]
                    l2_tags[base] = tag
                    l2_frames[base + 1:pos + 1] = l2_frames[base:pos]
                    l2_frames[base] = frame
                return frame
            l2_stats.misses += 1
            if not probe_large[0]:
                return None
            tag = ((vpn >> LEVEL_BITS) << 1) | 1
            set_index = tag % l2_nsets
            base = set_index * l2_stride
            limit = base + l2_sizes[set_index]
            l2_tags[limit] = tag
            pos = l2_tags.index(tag, base)
            l2_tags[limit] = EMPTY
            if pos != limit:
                l2_stats.hits += 1
                frame = l2_frames[pos]
                if pos != base:
                    l2_tags[base + 1:pos + 1] = l2_tags[base:pos]
                    l2_tags[base] = tag
                    l2_frames[base + 1:pos + 1] = l2_frames[base:pos]
                    l2_frames[base] = frame
                return frame
            l2_stats.misses += 1
            return None

        if clustered:
            l2_lookup = l2_generic

        def lookup(vpn: int) -> int | None:
            """Probe the hierarchy for ``vpn``; None means a walk is
            required."""
            if infinite:
                frame = infinite_get(vpn)
                if frame is None:
                    stats.misses += 1
                    return None
                stats.hits += 1
                state.l1_hits += 1
                return frame

            # L1 probe, small (4KB) tag then large (2MB) tag, inline.
            tag = vpn << 1
            set_index = tag % l1_nsets
            base = set_index * l1_stride
            if l1_tags[base] == tag:
                # MRU shortcut: hit in place, no reordering needed.
                l1_stats.hits += 1
                stats.hits += 1
                state.l1_hits += 1
                return l1_frames[base]
            limit = base + l1_sizes[set_index]
            l1_tags[limit] = tag
            pos = l1_tags.index(tag, base)
            l1_tags[limit] = EMPTY
            if pos != limit:
                l1_stats.hits += 1
                frame = l1_frames[pos]
                l1_tags[base + 1:pos + 1] = l1_tags[base:pos]
                l1_tags[base] = tag
                l1_frames[base + 1:pos + 1] = l1_frames[base:pos]
                l1_frames[base] = frame
                stats.hits += 1
                state.l1_hits += 1
                return frame
            l1_stats.misses += 1
            if probe_large[0]:
                tag = ((vpn >> LEVEL_BITS) << 1) | 1
                set_index = tag % l1_nsets
                base = set_index * l1_stride
                limit = base + l1_sizes[set_index]
                l1_tags[limit] = tag
                pos = l1_tags.index(tag, base)
                l1_tags[limit] = EMPTY
                if pos != limit:
                    l1_stats.hits += 1
                    frame = l1_frames[pos]
                    if pos != base:
                        l1_tags[base + 1:pos + 1] = l1_tags[base:pos]
                        l1_tags[base] = tag
                        l1_frames[base + 1:pos + 1] = l1_frames[base:pos]
                        l1_frames[base] = frame
                    stats.hits += 1
                    state.l1_hits += 1
                    return frame
                l1_stats.misses += 1

            frame = l2_lookup(vpn)
            if frame is not None:
                stats.hits += 1
                state.l2_hits += 1
                # Refill the first level on an L2 hit (4KB refills only
                # need the small tag; a large hit refills the large tag).
                l1_fill(vpn << 1, frame)
                return frame

            stats.misses += 1
            return None

        return lookup

    # ------------------------------------------------------------------
    def _build_fill_fast(self) -> Callable[..., None]:
        """Build the simulators' fill: same signature as :meth:`fill`.

        Precondition (which :meth:`fill` does not require): the caller
        just took a full hierarchy miss for ``vpn``, so neither L1 tag
        nor the plain-L2 tag is resident — fills can install without the
        membership scan.  The simulators only fill on that path; every
        other caller uses the generic :meth:`fill`.  Large-page,
        clustered and infinite fills delegate to it (off the 4KB common
        case; the clustered TLB coalesces into existing entries).
        """
        l1 = self.l1
        l1_tags, l1_frames = l1.tags, l1.frames
        l1_sizes, l1_stride, l1_nsets = l1.sizes, l1.stride, l1.num_sets
        l1_ways = l1.ways
        l2 = self.l2_plain
        if l2 is not None:
            l2_tags, l2_frames = l2.tags, l2.frames
            l2_sizes, l2_stride, l2_nsets = l2.sizes, l2.stride, l2.num_sets
            l2_ways = l2.ways
        state = self._state
        generic_fill = state.fill

        if self.infinite or self.clustered:
            return generic_fill

        def fill_fast(vpn, frame, large=False, neighbour_frames=None):
            if large:
                generic_fill(vpn, frame, large=True)
                return
            tag = vpn << 1
            # L1 install (tag known absent).
            set_index = tag % l1_nsets
            base = set_index * l1_stride
            size = l1_sizes[set_index]
            if size >= l1_ways:
                last = base + l1_ways - 1
                l1_tags[base + 1:last + 1] = l1_tags[base:last]
                l1_frames[base + 1:last + 1] = l1_frames[base:last]
            else:
                limit = base + size
                l1_tags[base + 1:limit + 1] = l1_tags[base:limit]
                l1_frames[base + 1:limit + 1] = l1_frames[base:limit]
                l1_sizes[set_index] = size + 1
            l1_tags[base] = tag
            l1_frames[base] = frame
            # L2 install (tag known absent); victims feed the evict hook.
            set_index = tag % l2_nsets
            base = set_index * l2_stride
            size = l2_sizes[set_index]
            victim_tag = EMPTY
            if size >= l2_ways:
                last = base + l2_ways - 1
                victim_tag = l2_tags[last]
                victim_frame = l2_frames[last]
                l2_tags[base + 1:last + 1] = l2_tags[base:last]
                l2_frames[base + 1:last + 1] = l2_frames[base:last]
            else:
                limit = base + size
                l2_tags[base + 1:limit + 1] = l2_tags[base:limit]
                l2_frames[base + 1:limit + 1] = l2_frames[base:limit]
                l2_sizes[set_index] = size + 1
            l2_tags[base] = tag
            l2_frames[base] = frame
            if victim_tag != EMPTY and not (victim_tag & 1):
                hook = state.l2_evict_hook
                if hook is not None:
                    hook(victim_tag >> 1, victim_frame)

        return fill_fast

    # ------------------------------------------------------------------
    def bulk_hits(self, vpn: int, count: int) -> None:
        """Account ``count`` back-to-back L1 hits for ``vpn``.

        The batched front-end calls this for the repeat records of a
        same-page streak: the preceding record's lookup or fill left the
        translation resident at L1 MRU, so each repeat would hit without
        moving any replacement state — only the counters advance.  The
        per-structure counters replicate the scalar path exactly,
        including the small-tag probe that misses first when the page is
        resident under its large tag.
        """
        self.stats.hits += count
        self._state.l1_hits += count
        if self.infinite:
            return
        l1 = self.l1
        if l1.contains(_small_tag(vpn)):
            l1.stats.hits += count
        else:
            assert l1.contains(_large_tag(vpn)), \
                "bulk_hits called for a vpn the L1 TLB does not hold"
            l1.stats.misses += count
            l1.stats.hits += count

    # ------------------------------------------------------------------
    def fill(
        self,
        vpn: int,
        frame: int,
        large: bool = False,
        neighbour_frames: Sequence[int | None] | None = None,
    ) -> None:
        """Install a translation discovered by a completed page walk."""
        self._state.fill(vpn, frame, large, neighbour_frames)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self.l1.flush()
        if self.l2_clustered is not None:
            self.l2_clustered.flush()
            self._large_side.flush()
        if self.l2_plain is not None:
            self.l2_plain.flush()
        self._infinite_store.clear()

    @property
    def walks_triggered(self) -> int:
        return self.stats.misses

    def mpki(self, accesses: int) -> float:
        """TLB misses (page walks) per thousand memory accesses."""
        if not accesses:
            return 0.0
        return 1000.0 * self.stats.misses / accesses

    def reset_stats(self) -> None:
        self.stats.reset()
        self._state.l1_hits = 0
        self._state.l2_hits = 0
        self.l1.stats.reset()
        if self.l2_plain is not None:
            self.l2_plain.stats.reset()
        if self.l2_clustered is not None:
            self.l2_clustered.stats.reset()
