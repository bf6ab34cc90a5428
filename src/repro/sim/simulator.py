"""The trace-driven simulators' shared record loop, and the native (1D)
simulator.

Per trace record (one memory operation):

1. the TLB hierarchy is probed; a miss hands control to the configured
   translation scheme (`repro.schemes`),
2. the scheme may *probe* an alternative translation source before
   walking (Victima's cache-parked entries), *race* the walk with
   prefetches (ASAP, §3.4), or *speculate* and verify (Revelator),
3. the walker prices the walk against the shared cache hierarchy,
4. the data access itself goes through the same hierarchy,
5. an optional SMT co-runner issues one random access (§4).

Execution time accumulates ``base + walk + data`` cycles per record, giving
the Figure 2 / Table 6 fractions; walks are pre-faulted (steady state — the
paper measures long-running warmed-up services), so page-fault handling
never pollutes walk-latency measurements.

:class:`TraceSimulation` is that pipeline, written once: the native
simulator here and the virtualized one (`repro.sim.virt`) differ only in
the page walk of step 3 — the radix walk or Figure 7's nested 2D walk —
and in how they populate.

Scheme dispatch is hoisted out of the record loop: each hook is bound
once per run and a scheme that opts out contributes ``None``, so the
baseline costs exactly the ``is not None`` tests the pre-scheme code
paid for its optional ASAP prefetcher (the baseline cell of
``tools/bench.py`` tracks it).
"""

from __future__ import annotations

import gc

import numpy as np

from repro.core.config import AsapConfig, BASELINE
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import VmaDescriptor
from repro.kernelsim.process import ProcessAddressSpace
from repro.mem.hierarchy import CacheHierarchy
from repro.obs.probe import SimProbe
from repro.pagetable.constants import level_shift
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.walker import PWC_LABEL, PageWalker
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.schemes import SchemeSpec, build_scheme
from repro.sim.order import streaming_first_touch_order
from repro.sim.stats import SimStats
from repro.traces.source import iter_trace_chunks
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.tlb import EMPTY, asid_bias
from repro.workloads.corunner import Corunner


def detect_runs(trace: np.ndarray,
                n_records: int) -> tuple[list[int], list[int]]:
    """Vectorised same-cache-line-block run detection.

    Returns ``(starts, counts)``: the index of each run's first record
    and the run's length, where a *run* is a maximal stretch of records
    sharing one cache-line block (``va >> 6``) — hence one page and one
    data line.
    """
    if not n_records:
        return [], []
    blocks = trace >> 6
    change = np.empty(n_records, dtype=bool)
    change[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts.tolist(), np.diff(starts, append=n_records).tolist()


def drive_batched(run_starts, run_counts, handle, bulk, scalar_only):
    """The scalar loop's per-chunk driver.

    ``handle(index)`` simulates one record through the scalar pipeline
    and returns its vpn; ``bulk(vpn, first_index, repeats)`` costs a
    run's repeat records in one step (handling the warmup-boundary
    split itself).  With ``scalar_only`` (co-runner present: it touches
    the shared caches after every record) repeats replay through
    ``handle`` instead.
    """
    for index, count in zip(run_starts, run_counts):
        vpn = handle(index)
        if count == 1:
            continue
        if scalar_only:
            for repeat_index in range(index + 1, index + count):
                handle(repeat_index)
        else:
            bulk(vpn, index + 1, count - 1)


def build_native_descriptors(
    process: ProcessAddressSpace, max_count: int
) -> list[VmaDescriptor]:
    """The descriptors the OS would load for this process: its largest
    VMAs, with bases from the ASAP PT layout."""
    layout = process.asap_layout
    if layout is None:
        return []
    descriptors = []
    for vma in process.vmas.largest(max_count):
        bases = layout.descriptor_bases(vma)
        if bases:
            descriptors.append(
                VmaDescriptor(
                    start=vma.start,
                    end=vma.end,
                    level_bases=tuple(sorted(bases.items())),
                )
            )
    return descriptors


class TraceSimulation:
    """The record-loop front end both simulators share.

    A subclass builds its machine in ``__init__`` — setting ``machine``,
    ``hierarchy``, ``tlbs``, ``walker``, ``corunner``, ``asid``,
    ``kernel`` and ``scheme``, plus ``pwcs`` (its split PWCs),
    ``_page_table`` (the page table whose translations the TLBs cache),
    ``_walk_paths`` (its per-vpn walk-path cache) and
    ``_columnar_paths`` — and supplies ``populate`` and the per-miss
    walk (:meth:`_miss_walk`).  Everything around the walk is here.
    """

    #: The simulator's name in the observation log's ``simulate`` span.
    probe_kind = ""

    # ------------------------------------------------------------------
    def flush_translation_state(self) -> None:
        """Flush *every* piece of cached translation state coherently.

        ``TlbHierarchy.flush()`` alone is not a safe mid-run flush: the
        page-walk caches, the in-flight translation-prefetch MSHRs, the
        simulator's per-vpn walk paths and any scheme-cached
        translations (Victima's parked entries) would all survive it and
        keep serving stale translations.  This is the one entry point
        that restores every translation structure to its cold state (the
        shared data caches and all statistics counters are untouched);
        the multi-tenant scheduler's full-flush switch policy and any
        shootdown-like event must go through it.
        """
        self.tlbs.flush()
        for pwc in self.pwcs:
            pwc.flush()
        self.hierarchy.mshrs.drain()
        self.flush_private_translation_state()

    def flush_private_translation_state(self) -> None:
        """The per-process half of :meth:`flush_translation_state`: the
        walk-path caches and the scheme's own translation state.  The
        multi-tenant scheduler calls this on the *other* tenants after
        flushing the shared hardware once through the active one."""
        self._walk_paths.clear()
        if self._columnar_paths is not None:
            self._columnar_paths.clear()
        self.scheme.on_translation_flush()

    # ------------------------------------------------------------------
    def run(
        self,
        trace,
        warmup: int = 0,
        populate: bool = True,
        collect_service: bool = True,
        init_order: str = "sequential",
    ) -> SimStats:
        """Simulate the trace; statistics cover post-warmup records only.

        ``trace`` is one ndarray (the historical monolithic case — a
        single execution chunk) or a
        :class:`~repro.traces.source.TraceSource` streaming execution
        chunks; peak memory follows the chunk size, never the record
        count.  All loop state — the clock, warmup baselines, statistics
        accumulators and the run-detection seam — carries across chunks
        inside this one call, so SimStats are byte-identical for every
        chunking of the same records (pinned by tests/test_traces.py).

        With the default kernel the whole call runs in the compiled
        chunk kernel of `repro.sim.columnar` wherever its
        ``engine_mode`` allows, byte-identically; otherwise it runs the
        scalar record loop (:meth:`_scalar_loop`).
        """
        #: Observation seam: ``None`` unless a recorder is active
        #: (``--obs``), in which case the run gets phase spans and one
        #: counter snapshot per chunk — all at chunk granularity, so
        #: statistics stay byte-identical (see repro.obs.probe).
        obs = SimProbe.create(self.probe_kind, warmup)
        if populate:
            if obs is not None:
                obs.phase_begin("populate")
            self.populate(trace, order=init_order)
            if obs is not None:
                obs.phase_end("populate")
        if self.corunner is not None:
            self.corunner.prefill(self.hierarchy)
        stats = SimStats()
        tlbs = self.tlbs
        #: ASID bias: ORed into the vpn and into every PWC's tags (a
        #: nested walk's host PWC too: gPA spaces of different VMs
        #: collide numerically), so shared TLB/PWC structures keep
        #: tenants apart.  0 in single-tenant runs — a no-op bit for bit.
        vbias = asid_bias(self.asid)
        for pwc in self.pwcs:
            pwc.asid_bias = vbias
        tlbs.probe_large[0] = self._page_table.has_large_pages
        measuring = warmup == 0
        #: The run-wide loop state ``(now, measuring, acc, data_c,
        #: walk_c, walk_count, tlb_l1_base, tlb_l2_base)`` both engines
        #: thread through every chunk.  The hit-counter baselines
        #: snapshot the current shared counters (not zero), so a
        #: mid-sequence segment measures only its window.
        carry = (0, measuring, 0, 0, 0, 0,
                 tlbs.l1_hits if measuring else 0,
                 tlbs.l2_hits if measuring else 0)
        #: The compiled kernel's mode for this call, or None for the
        #: scalar loop; decided before the obs log names it.
        mode = None
        if self.kernel == "columnar":
            from repro.sim import columnar

            mode = columnar.engine_mode(self)
        #: The execution-chunk stream; under observation it is re-cut at
        #: the warmup boundary and sample intervals (chunking-invariant,
        #: so statistics are unchanged — pinned by tests/test_traces.py).
        if obs is not None:
            obs.run_begin(kernel=mode or "scalar")
            chunk_stream = obs.chunks(iter_trace_chunks(trace))
        else:
            chunk_stream = iter_trace_chunks(trace)
        if mode is not None:
            carry = columnar.run_columnar(
                self, chunk_stream, warmup, collect_service, stats, carry,
                obs_probe=obs, mode=mode)
        else:
            # The scalar loop writes the cache lists directly (the
            # inlined ``access`` closure, the fast sweep), so the
            # compiled kernel's resident cache images would go stale:
            # drop them.  The loop allocates only short-lived tuples and
            # the per-page walk paths; pausing the cyclic collector for
            # its duration saves pointless generation-0 scans (restored
            # even on error).
            self.hierarchy.drop_images()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                carry = self._scalar_loop(chunk_stream, warmup,
                                          collect_service, stats, carry, obs)
            finally:
                if gc_was_enabled:
                    gc.enable()
        (_, _, acc, data_c, walk_c, walk_count,
         tlb_l1_base, tlb_l2_base) = carry
        base_cycles = self.machine.core.base_cycles
        stats.accesses = acc
        stats.base_cycles = acc * base_cycles
        stats.data_cycles = data_c
        stats.walk_cycles = walk_c
        stats.walks = walk_count
        stats.cycles = acc * base_cycles + data_c + walk_c
        stats.tlb_l1_hits = tlbs.l1_hits - tlb_l1_base
        stats.tlb_l2_hits = tlbs.l2_hits - tlb_l2_base
        self.scheme.finalize(stats)
        if obs is not None:
            obs.run_end(stats)
        return stats

    def _scalar_loop(self, chunk_stream, warmup: int,
                     collect_service: bool, stats: SimStats, carry: tuple,
                     obs) -> tuple:
        """The scalar record loop, the compiled kernel's oracle: every
        chunk of ``chunk_stream`` from ``carry`` on; returns the updated
        carry (see :meth:`run`).

        Each chunk is consumed as *runs* of records sharing one
        cache-line block (``va >> 6``), detected with one vectorized
        pass.  A run's first record goes through the full scalar
        pipeline (``handle``); its repeats are guaranteed L1-TLB + L1-D
        hits (the first record left both at MRU and nothing else touches
        them mid-run), so they are costed in bulk (``bulk``) — counter
        increments and ``count * (base + L1)`` cycles — with
        byte-identical statistics.  A run that straddles a chunk seam is
        stitched the same way: the continuation records at the next
        chunk's head are bulk-costed against the carried vpn, exactly as
        if the seam were not there.  Any record that can observe or
        change more state takes the scalar path: the first record of
        every run (and with it every TLB miss and scheme hook), every
        record of a co-runner simulation (the co-runner perturbs the
        shared caches between records), and the warmup boundary (a bulk
        segment is split so the hit counters are snapshotted at exactly
        the record where measurement starts).  A chunk without repeats
        in a hook-free run whose structures fit it goes to the native
        simulator's ``_fast_native_sweep`` instead.
        """
        tlbs = self.tlbs
        hierarchy = self.hierarchy
        corunner = self.corunner
        scheme = self.scheme
        probe = scheme.probe_hook()
        walk_start = scheme.walk_start_hook()
        walk_end = scheme.walk_end_hook()
        walk = self._miss_walk(collect_service)
        base_cycles = self.machine.core.base_cycles
        record_service = stats.service.record_walk
        lookup = tlbs.lookup
        tlb_fill = tlbs.fill_fast
        access = hierarchy.access
        bulk_tlb = tlbs.bulk_hits
        bulk_l1 = hierarchy.bulk_l1_hits
        l1_latency = hierarchy.latency_of("L1")
        step_cost = base_cycles + l1_latency
        vbias = asid_bias(self.asid)
        scalar_only = corunner is not None
        fast_ok = (not scalar_only and probe is None and walk_start is None
                   and walk_end is None and tlbs.l2_evict_hook is None
                   and self._fast_sweep_ok())
        #: Local accumulators for the per-record statistics; :meth:`run`
        #: derives the stats from them (base/total cycles too: every
        #: measured record contributes exactly ``base_cycles`` and its
        #: translation stall is exactly what walk_cycles collects).
        (now, measuring, acc, data_c, walk_c, walk_count,
         tlb_l1_base, tlb_l2_base) = carry
        #: Chunk cursor: ``addresses`` is rebound per execution chunk and
        #: ``chunk_base`` is the chunk's global record index, so the
        #: closures below always see the current chunk through the same
        #: cells.
        addresses: list[int] = []
        chunk_base = 0

        def handle(index: int) -> int:
            """One record (chunk-local ``index``) through the scalar
            pipeline; returns its vpn."""
            nonlocal now, measuring, tlb_l1_base, tlb_l2_base
            nonlocal acc, data_c, walk_c, walk_count
            va = addresses[index]
            if not measuring and chunk_base + index >= warmup:
                measuring = True
                tlb_l1_base = tlbs.l1_hits
                tlb_l2_base = tlbs.l2_hits
            vpn = (va >> 12) | vbias
            frame = lookup(vpn)
            translation = 0
            if frame is None:
                offset = 0
                if probe is not None:
                    frame, offset = probe(va, vpn, now)
                if frame is not None:
                    # Scheme probe hit: the walk is short-circuited.
                    translation = offset
                    tlb_fill(vpn, frame)
                    if measuring:
                        walk_c += translation
                else:
                    start = now + offset
                    prefetches = None
                    if walk_start is not None:
                        prefetches = walk_start(va, start)
                    frame, large, neighbours, latency, records = walk(
                        va, vpn, start, prefetches)
                    translation = offset + latency
                    if walk_end is not None:
                        translation = walk_end(va, vpn, now, translation)
                    tlb_fill(vpn, frame, large=large,
                             neighbour_frames=neighbours)
                    if measuring:
                        walk_c += translation
                        walk_count += 1
                        if collect_service:
                            record_service(records)
            data_latency = access(((frame << 12) | (va & 0xFFF)) >> 6,
                                  now + translation)
            now += base_cycles + translation + data_latency
            if measuring:
                acc += 1
                data_c += data_latency
            if corunner is not None:
                corunner.step(hierarchy, now)
            return vpn

        def bulk(vpn, first_index, repeats):
            """Cost a run's repeat records (guaranteed L1-TLB/L1-D hits).

            ``first_index`` is chunk-local.  Unmeasured repeats advance
            state but not statistics; if the warmup boundary lands
            inside the run, the hit counters are snapshotted exactly
            there, like the scalar loop would.
            """
            nonlocal now, measuring, tlb_l1_base, tlb_l2_base, acc, data_c
            if not measuring:
                pre = warmup - chunk_base - first_index
                if pre >= repeats:
                    bulk_tlb(vpn, repeats)
                    bulk_l1(repeats)
                    now += step_cost * repeats
                    return
                if pre > 0:
                    bulk_tlb(vpn, pre)
                    bulk_l1(pre)
                    now += step_cost * pre
                    repeats -= pre
                measuring = True
                tlb_l1_base = tlbs.l1_hits
                tlb_l2_base = tlbs.l2_hits
            bulk_tlb(vpn, repeats)
            bulk_l1(repeats)
            now += step_cost * repeats
            acc += repeats
            data_c += l1_latency * repeats

        #: Run-detection seam state: the cache-line block and (biased)
        #: vpn of the previous chunk's last record.  A chunk whose first
        #: record shares that block continues the carried run, and its
        #: head records are repeats — costed exactly as the monolithic
        #: loop would have costed them.
        prev_block = -1
        prev_vpn = 0
        for chunk in chunk_stream:
            n_records = len(chunk)
            if not n_records:
                continue
            addresses = chunk.tolist()
            run_starts, run_counts = detect_runs(chunk, n_records)
            lead = 0
            if prev_block == addresses[0] >> 6:
                lead = run_counts[0]
                run_starts = run_starts[1:]
                run_counts = run_counts[1:]
                if scalar_only:
                    for index in range(lead):
                        handle(index)
                else:
                    bulk(prev_vpn, 0, lead)
            prev_block = addresses[-1] >> 6
            prev_vpn = (addresses[-1] >> 12) | vbias
            if run_starts and fast_ok and len(run_starts) == n_records - lead:
                # The plain-pipeline case: hand the chunk's remaining
                # records to the fully inlined sweep (byte-equivalent;
                # see its docstring).
                local = addresses[lead:] if lead else addresses
                local_warmup = min(max(warmup - chunk_base - lead, 0),
                                   len(local))
                (now, measuring, acc, data_c, walk_c, walk_count,
                 tlb_l1_base, tlb_l2_base) = self._fast_native_sweep(
                    local, local_warmup, collect_service, stats,
                    (now, measuring, acc, data_c, walk_c, walk_count,
                     tlb_l1_base, tlb_l2_base))
            else:
                drive_batched(run_starts, run_counts, handle, bulk,
                              scalar_only)
            chunk_base += n_records
            # Counter owners are current here: the scalar paths update
            # them per record and the fast sweep flushes its mirrors
            # before returning.
            if obs is not None:
                obs.sample(chunk_base, now=now, accesses=acc,
                           data_cycles=data_c, walk_cycles=walk_c,
                           walks=walk_count,
                           tlb_l1_hits=tlbs.l1_hits,
                           tlb_l2_hits=tlbs.l2_hits,
                           tlb_misses=tlbs.stats.misses)
        return (now, measuring, acc, data_c, walk_c, walk_count,
                tlb_l1_base, tlb_l2_base)

    # -- what each simulator supplies -----------------------------------
    def _miss_walk(self, collect_service: bool):
        """The per-miss walk the scalar loop calls after a TLB (and
        scheme-probe) miss: ``walk(va, vpn, start, prefetches) -> (frame,
        large, neighbours, latency, records)``.  It prices the walk of
        ``va``'s page starting at cycle ``start`` with the walk-start
        hook's ``prefetches`` folded in, and returns the translation to
        fill (``neighbours``: the clustered TLB's neighbour frames, or
        ``None``), the walk's latency, and its per-step service records
        (``None`` unless ``collect_service``)."""
        raise NotImplementedError

    def _fast_sweep_ok(self) -> bool:
        """Whether this simulator's structures fit ``_fast_native_sweep``
        (the scalar loop checks the hooks and the co-runner itself)."""
        return False


class NativeSimulation(TraceSimulation):
    """Drives one process's trace through the native machine model."""

    probe_kind = "native"

    def __init__(
        self,
        process: ProcessAddressSpace,
        machine: MachineParams = DEFAULT_MACHINE,
        asap: AsapConfig = BASELINE,
        clustered_tlb: bool = False,
        infinite_tlb: bool = False,
        corunner: Corunner | None = None,
        scheme: SchemeSpec | None = None,
        hierarchy: CacheHierarchy | None = None,
        tlbs: TlbHierarchy | None = None,
        pwc: SplitPwc | None = None,
        walker: PageWalker | None = None,
        asid: int = 0,
        kernel: str = "columnar",
    ) -> None:
        """``hierarchy``/``tlbs``/``pwc``/``walker`` let the multi-tenant
        driver (`repro.sim.multitenant`) hand several per-process
        simulations one shared set of hardware structures; ``asid`` tags
        this process's translations within them (0 — the single-tenant
        default — changes nothing, bit for bit).  ``kernel`` selects the
        record-loop engine: ``"columnar"`` (the default) runs each
        ``run()`` through the compiled chunk kernel of
        `repro.sim.columnar` wherever its ``engine_mode`` allows and
        through the scalar loop otherwise (no C backend, or a
        configuration it does not compile); ``"scalar"`` forces that
        loop, the differential oracle.  Both are byte-identical."""
        if asid and (clustered_tlb or infinite_tlb):
            raise ValueError(
                "ASID-tagged simulations do not compose with "
                "clustered/infinite TLBs")
        if kernel not in ("scalar", "columnar"):
            raise ValueError(f"unknown simulation kernel {kernel!r}")
        self.process = process
        self.machine = machine
        self.asap = asap
        self.clustered_tlb = clustered_tlb
        self.hierarchy = hierarchy or CacheHierarchy(machine.hierarchy)
        self.tlbs = tlbs or TlbHierarchy(
            machine.tlb, clustered=clustered_tlb, infinite=infinite_tlb
        )
        self.pwc = pwc or SplitPwc(machine.pwc,
                                   top_level=process.page_table.levels)
        self.pwcs = (self.pwc,)
        self.walker = walker or PageWalker(self.hierarchy, self.pwc)
        self.corunner = corunner
        self.asid = asid
        self.kernel = kernel
        self._page_table = process.page_table
        self._pwc_shifts = tuple(level_shift(level)
                                 for level, _ in self.pwc.view)
        #: Per-vpn flattened walk paths (see :meth:`_miss_walk`), shared
        #: by the general loop and the inlined sweep.  Instance state so a
        #: run can be split into scheduler quanta without re-flattening,
        #: and so ``flush_translation_state`` can clear them coherently
        #: with the hardware structures.
        self._walk_paths: dict[int, tuple] = {}
        #: The columnar kernel's path-row cache (same role as the dict
        #: above, owned by `repro.sim.columnar`); lazily built.
        self._columnar_paths = None
        #: Set by AsapScheme.bind_native for introspection/back-compat.
        self.prefetcher: AsapPrefetcher | None = None
        self.scheme = build_scheme(scheme, asap)
        self.scheme.bind_native(self)

    # ------------------------------------------------------------------
    def populate(self, trace, order: str = "sequential") -> int:
        """Pre-fault every page of the trace in first-touch order.

        ``trace`` is an ndarray or a :class:`~repro.traces.source.
        TraceSource`; the ordering folds it one execution chunk at a
        time, so populating a streamed trace needs memory proportional
        to the touched page count, not the trace length.

        In infinite-TLB mode (Table 6's "execution without TLB misses",
        the analog of the paper's libhugetlbfs trick) the translations are
        pre-installed too, so the measured run has no walks at all.
        """
        ordered = streaming_first_touch_order(
            (chunk >> 12 for chunk in iter_trace_chunks(trace)), order)
        faults = self.process.populate(ordered)
        if self.tlbs.infinite:
            for vpn in ordered.tolist():
                frame = self.process.frame_of(int(vpn))
                assert frame is not None
                self.tlbs.fill(int(vpn), frame)
        return faults

    # ------------------------------------------------------------------
    def _miss_walk(self, collect_service: bool):
        """The radix walk: the page's flat path, priced by
        ``PageWalker.walk_flat``.

        A page's path is flattened on its first walk and cached under
        its biased vpn: ``(lines, levels, pwc_tags, leaf_level, frame,
        large, neighbours)`` — the step lines and levels root first, one
        ASID-biased tag per :attr:`SplitPwc.view` entry, the leaf level
        and frame, the 2MB flag and the clustered TLB's neighbour frames
        (``None`` unless clustered).  The page table cannot change
        mid-run, so the path is invariant; only the cache/PWC state it
        is priced against evolves.  The inlined sweep fills the same
        dict in the same layout."""
        flat_paths = self._walk_paths
        flat_walk = self.process.flat_walk
        cluster_frames = self.process.cluster_frames
        clustered = self.clustered_tlb
        pwc_shifts = self._pwc_shifts
        vbias = asid_bias(self.asid)
        walk_flat = self.walker.walk_flat

        def walk(va, vpn, start, prefetches):
            flat = flat_paths.get(vpn)
            if flat is None:
                lines, levels, pframe, leaf_level = flat_walk(va)
                flat = flat_paths[vpn] = (
                    lines, levels,
                    tuple([(va >> shift) | vbias for shift in pwc_shifts]),
                    leaf_level, pframe, leaf_level >= 2,
                    # vpn == raw vpn here: clustered TLBs are
                    # single-tenant only (ctor guard).
                    cluster_frames(vpn)
                    if clustered and leaf_level == 1 else None)
            (lines, levels, pwc_tags, leaf_level, frame, large,
             neighbours) = flat
            records = [] if collect_service else None
            latency = walk_flat(lines, levels, pwc_tags, leaf_level, start,
                                prefetches, records)
            return frame, large, neighbours, latency, records

        return walk

    def _fast_sweep_ok(self) -> bool:
        return (not self.tlbs.infinite and not self.clustered_tlb
                and len(self.pwc.view) == 3)

    # ------------------------------------------------------------------
    def _fast_native_sweep(
        self,
        addresses: list[int],
        warmup: int,
        collect_service: bool,
        stats: SimStats,
        carry: tuple,
    ) -> tuple:
        """The fully inlined record loop for the plain-pipeline case.

        Preconditions (checked by the record loop before dispatching
        here): no scheme hooks, no L2-TLB evict hook, no co-runner, plain
        (non-clustered, finite) TLBs, a three-level PWC (4-level page
        table) and a chunk without same-block repeats.  That is exactly
        the baseline-radix configuration every figure sweep runs most,
        so this path pays for no generality at all: the L1 TLB probe,
        L2 S-TLB probe, PWC probe/insert, TLB fills and the MRU case of
        the cache access run inline on the flat arrays, and every shared
        counter is accumulated locally and flushed once at the end.

        ``addresses``/``warmup`` are chunk-local (the caller has already
        subtracted the global offset); ``carry`` is the run-wide loop
        state ``(now, measuring, acc, data_c, walk_c, walk_count,
        tlb_l1_base, tlb_l2_base)`` threaded through chunk after chunk
        and returned updated, so a chunk seam is invisible to the clock,
        the warmup baselines and every accumulator.

        It must remain *byte-equivalent* to the general loop of
        :meth:`TraceSimulation.run` — same stats, same final structure
        state.  The
        golden-parity suites (tests/test_fast_path.py,
        tests/test_traces.py) pin both paths and every chunking.
        """
        tlbs = self.tlbs
        l1t = tlbs.l1
        t_tags, t_frames, t_sizes = l1t.tags, l1t.frames, l1t.sizes
        t_stride, t_nsets = l1t.stride, l1t.num_sets
        l1_refill = l1t.fill
        probe_large = tlbs.probe_large[0]
        t_ways = l1t.ways
        u = tlbs.l2_plain
        u_tags, u_frames, u_sizes = u.tags, u.frames, u.sizes
        u_stride, u_nsets, u_ways = u.stride, u.num_sets, u.ways
        hierarchy = self.hierarchy
        access = hierarchy.access
        last_level = hierarchy.last_level
        c1 = hierarchy.l1
        c1_lines = c1.lines
        c1_stats = c1.stats
        c1_nsets, c1_stride = c1.num_sets, c1.stride
        lat1 = hierarchy.latency_of("L1")
        served = hierarchy.served
        walker = self.walker
        pwc = self.pwc
        pwc_latency = pwc.params.latency
        (_, p2), (_, p3), (_, p4) = pwc.view
        p2_tags, p2_frames, p2_sizes = p2.tags, p2.frames, p2.sizes
        p2_stride, p2_nsets, p2_ways = p2.stride, p2.num_sets, p2.ways
        p3_tags, p3_frames, p3_sizes = p3.tags, p3.frames, p3.sizes
        p3_stride, p3_nsets, p3_ways = p3.stride, p3.num_sets, p3.ways
        p4_tags, p4_frames, p4_sizes = p4.tags, p4.frames, p4.sizes
        p4_stride, p4_nsets, p4_ways = p4.stride, p4.num_sets, p4.ways
        s2, s3, s4 = self._pwc_shifts
        flat_walk = self.process.flat_walk
        flat_paths = self._walk_paths
        #: ASID bias, hoisted: constant for the whole sweep (one OR per
        #: record; 0 in single-tenant runs leaves every tag unchanged).
        vbias = asid_bias(self.asid)
        base_cycles = self.machine.core.base_cycles
        record_service = stats.service.record_walk

        # Counters mirrored locally; initialised from (and flushed back
        # to) their owners so the observable end state matches the
        # general loop exactly.
        th, tm = tlbs.stats.hits, tlbs.stats.misses
        l1h, l2h = tlbs.l1_hits, tlbs.l2_hits
        ls_hits, ls_misses = l1t.stats.hits, l1t.stats.misses
        us_hits, us_misses = u.stats.hits, u.stats.misses
        pwc_probes, pwc_hits = pwc.probes, pwc.hits
        p2_h, p2_m = p2.stats.hits, p2.stats.misses
        p3_h, p3_m = p3.stats.hits, p3.stats.misses
        p4_h, p4_m = p4.stats.hits, p4.stats.misses
        walker_walks = walker.walks
        walker_cycles = walker.total_latency
        c1_mru = 0
        # Run-wide loop state, carried across chunks (see docstring).
        # The measurement baselines were snapshotted by :meth:`run` at
        # run start (current shared counters, not zero — a multi-tenant
        # segment must measure only its window) or at the warmup
        # boundary, whichever came last.
        (now, measuring, acc, data_c, walk_c, walk_count,
         tlb_l1_base, tlb_l2_base) = carry

        for index, va in enumerate(addresses):
            if not measuring and index >= warmup:
                measuring = True
                tlb_l1_base = l1h
                tlb_l2_base = l2h
            vpn = (va >> 12) | vbias
            translation = 0
            # --- L1 D-TLB probe, small then (optional) large tag -----
            tag = vpn << 1
            set_index = tag % t_nsets
            base = set_index * t_stride
            frame = None
            if t_tags[base] == tag:
                ls_hits += 1
                th += 1
                l1h += 1
                frame = t_frames[base]
            else:
                limit = base + t_sizes[set_index]
                t_tags[limit] = tag
                pos = t_tags.index(tag, base)
                t_tags[limit] = EMPTY
                if pos != limit:
                    ls_hits += 1
                    frame = t_frames[pos]
                    t_tags[base + 1:pos + 1] = t_tags[base:pos]
                    t_tags[base] = tag
                    t_frames[base + 1:pos + 1] = t_frames[base:pos]
                    t_frames[base] = frame
                    th += 1
                    l1h += 1
                else:
                    ls_misses += 1
                    if probe_large:
                        tag = ((vpn >> 9) << 1) | 1
                        set_index = tag % t_nsets
                        base = set_index * t_stride
                        limit = base + t_sizes[set_index]
                        t_tags[limit] = tag
                        pos = t_tags.index(tag, base)
                        t_tags[limit] = EMPTY
                        if pos != limit:
                            ls_hits += 1
                            frame = t_frames[pos]
                            if pos != base:
                                t_tags[base + 1:pos + 1] = t_tags[base:pos]
                                t_tags[base] = tag
                                t_frames[base + 1:pos + 1] = \
                                    t_frames[base:pos]
                                t_frames[base] = frame
                            th += 1
                            l1h += 1
                        else:
                            ls_misses += 1
            if frame is None:
                # --- L2 S-TLB probe, small then (optional) large tag -
                tag = vpn << 1
                set_index = tag % u_nsets
                base = set_index * u_stride
                limit = base + u_sizes[set_index]
                u_tags[limit] = tag
                pos = u_tags.index(tag, base)
                u_tags[limit] = EMPTY
                if pos != limit:
                    us_hits += 1
                    frame = u_frames[pos]
                    if pos != base:
                        u_tags[base + 1:pos + 1] = u_tags[base:pos]
                        u_tags[base] = tag
                        u_frames[base + 1:pos + 1] = u_frames[base:pos]
                        u_frames[base] = frame
                else:
                    us_misses += 1
                    if probe_large:
                        tag = ((vpn >> 9) << 1) | 1
                        set_index = tag % u_nsets
                        base = set_index * u_stride
                        limit = base + u_sizes[set_index]
                        u_tags[limit] = tag
                        pos = u_tags.index(tag, base)
                        u_tags[limit] = EMPTY
                        if pos != limit:
                            us_hits += 1
                            frame = u_frames[pos]
                            if pos != base:
                                u_tags[base + 1:pos + 1] = u_tags[base:pos]
                                u_tags[base] = tag
                                u_frames[base + 1:pos + 1] = \
                                    u_frames[base:pos]
                                u_frames[base] = frame
                        else:
                            us_misses += 1
                if frame is not None:
                    th += 1
                    l2h += 1
                    l1_refill(vpn << 1, frame)
                else:
                    tm += 1
                    # --- page walk (flat-path cache) -----------------
                    flat = flat_paths.get(vpn)
                    if flat is None:
                        # The general loop's layout (see _miss_walk),
                        # with no cluster neighbours (plain TLBs).
                        lines, levels, pframe, leaf_level = flat_walk(va)
                        flat = flat_paths[vpn] = (
                            lines, levels,
                            ((va >> s2) | vbias, (va >> s3) | vbias,
                             (va >> s4) | vbias),
                            leaf_level, pframe, leaf_level >= 2, None)
                    (lines, levels, (tg2, tg3, tg4), leaf_level, frame,
                     large, _) = flat
                    t = now + pwc_latency
                    pwc_probes += 1
                    records = [] if collect_service else None
                    # PWC probe: PL2, then PL3, then PL4.
                    skip_from = 0
                    set_index = tg2 % p2_nsets
                    base = set_index * p2_stride
                    if p2_tags[base] == tg2:
                        p2_h += 1
                        pwc_hits += 1
                        skip_from = 2
                    else:
                        limit = base + p2_sizes[set_index]
                        p2_tags[limit] = tg2
                        pos = p2_tags.index(tg2, base)
                        p2_tags[limit] = EMPTY
                        if pos != limit:
                            p2_h += 1
                            value = p2_frames[pos]
                            p2_tags[base + 1:pos + 1] = p2_tags[base:pos]
                            p2_tags[base] = tg2
                            p2_frames[base + 1:pos + 1] = p2_frames[base:pos]
                            p2_frames[base] = value
                            pwc_hits += 1
                            skip_from = 2
                        else:
                            p2_m += 1
                            set_index = tg3 % p3_nsets
                            base = set_index * p3_stride
                            if p3_tags[base] == tg3:
                                p3_h += 1
                                pwc_hits += 1
                                skip_from = 3
                            else:
                                limit = base + p3_sizes[set_index]
                                p3_tags[limit] = tg3
                                pos = p3_tags.index(tg3, base)
                                p3_tags[limit] = EMPTY
                                if pos != limit:
                                    p3_h += 1
                                    value = p3_frames[pos]
                                    p3_tags[base + 1:pos + 1] = \
                                        p3_tags[base:pos]
                                    p3_tags[base] = tg3
                                    p3_frames[base + 1:pos + 1] = \
                                        p3_frames[base:pos]
                                    p3_frames[base] = value
                                    pwc_hits += 1
                                    skip_from = 3
                                else:
                                    p3_m += 1
                                    set_index = tg4 % p4_nsets
                                    base = set_index * p4_stride
                                    if p4_tags[base] == tg4:
                                        p4_h += 1
                                        pwc_hits += 1
                                        skip_from = 4
                                    else:
                                        limit = base + p4_sizes[set_index]
                                        p4_tags[limit] = tg4
                                        pos = p4_tags.index(tg4, base)
                                        p4_tags[limit] = EMPTY
                                        if pos != limit:
                                            p4_h += 1
                                            value = p4_frames[pos]
                                            p4_tags[base + 1:pos + 1] = \
                                                p4_tags[base:pos]
                                            p4_tags[base] = tg4
                                            p4_frames[base + 1:pos + 1] = \
                                                p4_frames[base:pos]
                                            p4_frames[base] = value
                                            pwc_hits += 1
                                            skip_from = 4
                                        else:
                                            p4_m += 1
                    # Steps the PWC skipped: levels is (4, 3, 2[, 1])
                    # root-first, so the skipped prefix length is
                    # 5 - skip_from, never exceeding the step count.
                    if skip_from:
                        start = 5 - skip_from
                        if records is not None:
                            for i in range(start):
                                records.append((levels[i], PWC_LABEL))
                    else:
                        start = 0
                    for i in range(start, len(lines)):
                        line = lines[i]
                        cache_base = (line % c1_nsets) * c1_stride
                        if c1_lines[cache_base] == line:
                            c1_mru += 1
                            if records is not None:
                                records.append((levels[i], "L1"))
                            t += lat1
                        else:
                            latency = access(line, t)
                            if records is not None:
                                records.append((levels[i], last_level[0]))
                            t += latency
                    # PWC insert for the levels above the leaf.
                    if leaf_level == 1:
                        set_index = tg2 % p2_nsets
                        base = set_index * p2_stride
                        if p2_tags[base] == tg2:
                            p2_frames[base] = 1
                        else:
                            size = p2_sizes[set_index]
                            limit = base + size
                            p2_tags[limit] = tg2
                            pos = p2_tags.index(tg2, base)
                            p2_tags[limit] = EMPTY
                            if pos != limit:
                                p2_tags[base + 1:pos + 1] = p2_tags[base:pos]
                                p2_frames[base + 1:pos + 1] = \
                                    p2_frames[base:pos]
                            elif size >= p2_ways:
                                last = base + p2_ways - 1
                                p2_tags[base + 1:last + 1] = p2_tags[base:last]
                                p2_frames[base + 1:last + 1] = \
                                    p2_frames[base:last]
                            else:
                                p2_tags[base + 1:limit + 1] = \
                                    p2_tags[base:limit]
                                p2_frames[base + 1:limit + 1] = \
                                    p2_frames[base:limit]
                                p2_sizes[set_index] = size + 1
                            p2_tags[base] = tg2
                            p2_frames[base] = 1
                    set_index = tg3 % p3_nsets
                    base = set_index * p3_stride
                    if p3_tags[base] == tg3:
                        p3_frames[base] = 1
                    else:
                        size = p3_sizes[set_index]
                        limit = base + size
                        p3_tags[limit] = tg3
                        pos = p3_tags.index(tg3, base)
                        p3_tags[limit] = EMPTY
                        if pos != limit:
                            p3_tags[base + 1:pos + 1] = p3_tags[base:pos]
                            p3_frames[base + 1:pos + 1] = p3_frames[base:pos]
                        elif size >= p3_ways:
                            last = base + p3_ways - 1
                            p3_tags[base + 1:last + 1] = p3_tags[base:last]
                            p3_frames[base + 1:last + 1] = p3_frames[base:last]
                        else:
                            p3_tags[base + 1:limit + 1] = p3_tags[base:limit]
                            p3_frames[base + 1:limit + 1] = \
                                p3_frames[base:limit]
                            p3_sizes[set_index] = size + 1
                        p3_tags[base] = tg3
                        p3_frames[base] = 1
                    set_index = tg4 % p4_nsets
                    base = set_index * p4_stride
                    if p4_tags[base] == tg4:
                        p4_frames[base] = 1
                    else:
                        size = p4_sizes[set_index]
                        limit = base + size
                        p4_tags[limit] = tg4
                        pos = p4_tags.index(tg4, base)
                        p4_tags[limit] = EMPTY
                        if pos != limit:
                            p4_tags[base + 1:pos + 1] = p4_tags[base:pos]
                            p4_frames[base + 1:pos + 1] = p4_frames[base:pos]
                        elif size >= p4_ways:
                            last = base + p4_ways - 1
                            p4_tags[base + 1:last + 1] = p4_tags[base:last]
                            p4_frames[base + 1:last + 1] = p4_frames[base:last]
                        else:
                            p4_tags[base + 1:limit + 1] = p4_tags[base:limit]
                            p4_frames[base + 1:limit + 1] = \
                                p4_frames[base:limit]
                            p4_sizes[set_index] = size + 1
                        p4_tags[base] = tg4
                        p4_frames[base] = 1
                    translation = t - now
                    walker_walks += 1
                    walker_cycles += translation
                    # TLB fill (known absent after the full miss).
                    if large:
                        tlbs.fill(vpn, frame, large=True)
                    else:
                        tag = vpn << 1
                        set_index = tag % t_nsets
                        base = set_index * t_stride
                        size = t_sizes[set_index]
                        if size >= t_ways:
                            last = base + t_ways - 1
                            t_tags[base + 1:last + 1] = t_tags[base:last]
                            t_frames[base + 1:last + 1] = t_frames[base:last]
                        else:
                            limit = base + size
                            t_tags[base + 1:limit + 1] = t_tags[base:limit]
                            t_frames[base + 1:limit + 1] = t_frames[base:limit]
                            t_sizes[set_index] = size + 1
                        t_tags[base] = tag
                        t_frames[base] = frame
                        set_index = tag % u_nsets
                        base = set_index * u_stride
                        size = u_sizes[set_index]
                        if size >= u_ways:
                            last = base + u_ways - 1
                            u_tags[base + 1:last + 1] = u_tags[base:last]
                            u_frames[base + 1:last + 1] = u_frames[base:last]
                        else:
                            limit = base + size
                            u_tags[base + 1:limit + 1] = u_tags[base:limit]
                            u_frames[base + 1:limit + 1] = u_frames[base:limit]
                            u_sizes[set_index] = size + 1
                        u_tags[base] = tag
                        u_frames[base] = frame
                    if measuring:
                        walk_c += translation
                        walk_count += 1
                        if collect_service:
                            record_service(records)
            # --- data access ----------------------------------------
            line = (frame << 6) | ((va & 0xFFF) >> 6)
            cache_base = (line % c1_nsets) * c1_stride
            if c1_lines[cache_base] == line:
                c1_mru += 1
                data_latency = lat1
            else:
                data_latency = access(line, now + translation)
            now += base_cycles + translation + data_latency
            if measuring:
                acc += 1
                data_c += data_latency

        # Flush the local counters back to their owners.
        tlbs.stats.hits, tlbs.stats.misses = th, tm
        tlbs.l1_hits, tlbs.l2_hits = l1h, l2h
        l1t.stats.hits, l1t.stats.misses = ls_hits, ls_misses
        u.stats.hits, u.stats.misses = us_hits, us_misses
        pwc.probes, pwc.hits = pwc_probes, pwc_hits
        p2.stats.hits, p2.stats.misses = p2_h, p2_m
        p3.stats.hits, p3.stats.misses = p3_h, p3_m
        p4.stats.hits, p4.stats.misses = p4_h, p4_m
        walker.walks = walker_walks
        walker.total_latency = walker_cycles
        c1_stats.hits += c1_mru
        served["L1"] += c1_mru
        return (now, measuring, acc, data_c, walk_c, walk_count,
                tlb_l1_base, tlb_l2_base)
