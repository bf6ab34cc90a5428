"""Victima-like scheme: TLB victims parked in the L2 data cache.

Models the core idea of *Victima: Drastically Increasing Address
Translation Reach by Leveraging Underutilized Cache Resources*
(PAPERS.md): translations evicted from the L2 S-TLB are not discarded
but written into the L2 **data** cache as cache-resident TLB entries.  A
later TLB miss probes the L2 cache before walking; a hit returns the
translation at L2 latency instead of a multi-access radix walk.

Model mapping onto this repo's substrate:

* each parked translation occupies one synthetic line in the shared
  :class:`~repro.mem.hierarchy.CacheHierarchy`'s L2 (a tag namespace
  disjoint from physical lines), so parked entries *contend with data*
  — data traffic can evict them, which is exactly the capacity tension
  the paper exploits and the co-runner experiments stress;
* a probe is valid only while its line is still L2-resident; the probe
  itself is a real L2 access (promotes LRU, charged at L2 latency);
* the probe races the walk's first stages (the paper issues the PTW
  concurrently and squashes it on a probe hit), so a *failed* probe
  costs no extra latency — the scheme's price is paid in cache
  capacity: parked lines evict data, and data evicts parked lines.

Only small (4KB) translations park; large pages already have reach.
"""

from __future__ import annotations

from repro.schemes.base import ProbeHook, SchemeSpec, TranslationScheme

#: Synthetic line namespace for parked entries: far above any physical
#: line the kernelsim can allocate, so parked lines never alias data.
_PARK_TAG_BASE = 1 << 50


class VictimaLike(TranslationScheme):
    """L2-cache-parked TLB victims probed before the page walk."""

    name = "VictimaLike"

    def __init__(self, spec: SchemeSpec) -> None:
        super().__init__(spec)
        self.max_parked = int(spec.param("parked_entries", 4096))
        self._parked: dict[int, int] = {}  # vpn -> frame
        #: The compiled kernel's resident copy of ``_parked``
        #: (`repro.sim.columnar`); it equals the dict whenever it exists,
        #: so every Python write to the dict drops it.
        self.park_image = None
        self._hierarchy = None
        self._probe_latency = 0
        self.stats = {
            "parked": 0,
            "probe_hits": 0,
            "probe_misses": 0,
            "parked_lost_to_data": 0,
        }

    # ------------------------------------------------------------------
    def _bind(self, sim) -> None:
        tlbs = sim.tlbs
        if tlbs.l2_plain is None and not tlbs.infinite:
            raise ValueError(
                "VictimaLike parks plain L2 S-TLB victims; it does not "
                "compose with the clustered TLB")
        self._hierarchy = sim.hierarchy
        self._probe_latency = sim.hierarchy.latency_of("L2")
        tlbs.l2_evict_hook = self._park

    bind_native = _bind
    bind_virtualized = _bind

    # ------------------------------------------------------------------
    def _park(self, vpn: int, frame: int) -> None:
        """L2 S-TLB eviction: write the translation into the L2 cache."""
        if len(self._parked) >= self.max_parked and vpn not in self._parked:
            # Victim-set bookkeeping is bounded; beyond it the oldest
            # tracked entry is dropped (its cache line simply goes stale).
            self._parked.pop(next(iter(self._parked)))
        self._parked[vpn] = frame
        self.park_image = None
        self._hierarchy.l2.install(_PARK_TAG_BASE | vpn)
        self.stats["parked"] += 1

    def _probe(self, va: int, vpn: int, now: int) -> tuple[int | None, int]:
        frame = self._parked.get(vpn)
        if frame is not None and self._hierarchy.l2.lookup(
                _PARK_TAG_BASE | vpn):
            # The entry moves back into the TLB; its cache line is
            # freed rather than left to rot at MRU.
            self._hierarchy.l2.invalidate(_PARK_TAG_BASE | vpn)
            del self._parked[vpn]
            self.park_image = None
            self.stats["probe_hits"] += 1
            return frame, self._probe_latency
        if frame is not None:
            # Bookkept but its line was evicted by data traffic: the
            # cache, not the scheme, is the source of truth.
            del self._parked[vpn]
            self.park_image = None
            self.stats["parked_lost_to_data"] += 1
        self.stats["probe_misses"] += 1
        # The walk was issued concurrently; a failed probe adds nothing.
        return None, 0

    def probe_hook(self) -> ProbeHook:
        return self._probe

    def on_translation_flush(self) -> None:
        """Parked entries *are* cached translations: a full flush must
        kill them — bookkeeping and their L2-resident lines — or a
        flush-then-continue run would keep short-circuiting walks with
        supposedly-flushed state (the multi-tenant full-flush switch
        policy was the first caller to hit this)."""
        if not self._parked:
            return  # nothing to kill; a resident park image stays valid
        for vpn in self._parked:
            self._hierarchy.l2.invalidate(_PARK_TAG_BASE | vpn)
        self._parked.clear()
        self.park_image = None

    def scheme_stats(self) -> dict[str, int]:
        return dict(self.stats)
