"""The virtualized (2D) trace-driven simulator (§3.6, Figures 10 and 12).

Same structure as the native simulator, but a TLB miss triggers a nested
2D walk through the guest and host page tables, and the translation
scheme (`repro.schemes`) can act per dimension.  ASAP configures
guest/host prefetchers independently: the guest prefetcher's descriptors
carry *host-physical* bases (valid because the hypervisor backs the
guest PT regions contiguously), and the host prefetcher uses a single
descriptor covering the VM's entire guest-physical space — one host VMA
per VM, the Linux/KVM observation of §3.6.  Alternative schemes hook the
same dispatch points: Victima parks gVA→host-frame victims in the L2
data cache; Revelator speculates on the end-to-end translation while the
nested walk verifies.
"""

from __future__ import annotations

import gc

from repro.core.config import AsapConfig, BASELINE
from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import VmaDescriptor
from repro.kernelsim.hypervisor import VirtualMachine
from repro.mem.hierarchy import CacheHierarchy
from repro.obs.probe import SimProbe
from repro.pagetable.nested import NestedPageWalker
from repro.pagetable.pwc import SplitPwc
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.schemes import SchemeSpec, build_scheme
from repro.sim.order import streaming_first_touch_order
from repro.sim.simulator import detect_runs, drive_batched
from repro.sim.stats import SimStats
from repro.traces.source import iter_trace_chunks
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.tlb import asid_bias
from repro.workloads.corunner import Corunner


def build_guest_descriptors(
    vm: VirtualMachine, max_count: int
) -> list[VmaDescriptor]:
    """Guest VMA descriptors with host-physical bases (§3.6)."""
    descriptors = []
    for vma in vm.guest.vmas.largest(max_count):
        bases = vm.guest_descriptor_bases(vma)
        if bases:
            descriptors.append(
                VmaDescriptor(
                    start=vma.start,
                    end=vma.end,
                    level_bases=tuple(sorted(bases.items())),
                )
            )
    return descriptors


def build_host_descriptor(vm: VirtualMachine) -> VmaDescriptor | None:
    """The single host descriptor covering the whole guest-physical space."""
    bases = vm.host_descriptor_bases()
    if not bases:
        return None
    return VmaDescriptor(
        start=vm.host_vma.start,
        end=vm.host_vma.end,
        level_bases=tuple(sorted(bases.items())),
    )


class VirtualizedSimulation:
    """Drives a guest trace through the nested (2D) machine model."""

    def __init__(
        self,
        vm: VirtualMachine,
        machine: MachineParams = DEFAULT_MACHINE,
        asap: AsapConfig = BASELINE,
        infinite_tlb: bool = False,
        corunner: Corunner | None = None,
        scheme: SchemeSpec | None = None,
        hierarchy: CacheHierarchy | None = None,
        tlbs: TlbHierarchy | None = None,
        guest_pwc: SplitPwc | None = None,
        host_pwc: SplitPwc | None = None,
        walker: NestedPageWalker | None = None,
        asid: int = 0,
        kernel: str = "columnar",
    ) -> None:
        """The optional structure arguments let the multi-tenant driver
        (`repro.sim.multitenant`) run several VMs against one shared set
        of hardware structures; ``asid`` doubles as the VMID tagging this
        VM's entries in the shared TLBs and in both PWC dimensions (0 —
        the single-tenant default — changes nothing, bit for bit).

        ``kernel`` selects the record-loop engine, as on the native
        simulator: ``"columnar"`` (the default) runs each ``run()``
        through the compiled chunk kernel of `repro.sim.columnar`, which
        replays the nested walk, wherever its ``engine_mode`` allows, and
        through the scalar loop below otherwise; ``"scalar"`` forces that
        loop, the differential oracle.  Both are byte-identical."""
        if asid and infinite_tlb:
            raise ValueError(
                "ASID-tagged simulations do not compose with infinite TLBs")
        if kernel not in ("scalar", "columnar"):
            raise ValueError(f"unknown simulation kernel {kernel!r}")
        self.vm = vm
        self.machine = machine
        self.asap = asap
        self.hierarchy = hierarchy or CacheHierarchy(machine.hierarchy)
        self.tlbs = tlbs or TlbHierarchy(machine.tlb, infinite=infinite_tlb)
        self.guest_pwc = guest_pwc or SplitPwc(
            machine.pwc, top_level=vm.guest.page_table.levels)
        self.host_pwc = host_pwc or SplitPwc(machine.pwc, top_level=4)
        self.walker = walker or NestedPageWalker(
            self.hierarchy, self.guest_pwc, self.host_pwc)
        self.corunner = corunner
        self.asid = asid
        self.kernel = kernel
        #: Per-vpn nested walk paths; instance state for the same reasons
        #: as the native simulator's flat caches (quantum splitting and
        #: coherent flushing).
        self._nested_paths: dict[int, tuple] = {}
        #: The columnar kernel's nested-row cache (same role as the dict
        #: above, owned by `repro.sim.columnar`); lazily built.
        self._columnar_paths = None
        #: Set by AsapScheme.bind_virtualized for introspection/back-compat.
        self.guest_prefetcher: AsapPrefetcher | None = None
        self.host_prefetcher: AsapPrefetcher | None = None
        self.scheme = build_scheme(scheme, asap)
        self.scheme.bind_virtualized(self)

    # ------------------------------------------------------------------
    def flush_translation_state(self) -> None:
        """Flush every piece of cached translation state coherently:
        TLBs, both PWC dimensions, in-flight translation-prefetch MSHRs,
        the per-vpn nested-path cache and scheme-cached translations.
        See
        :meth:`repro.sim.simulator.NativeSimulation.flush_translation_state`
        — this is the virtualized half of the same coherence contract.
        """
        self.tlbs.flush()
        self.guest_pwc.flush()
        self.host_pwc.flush()
        self.hierarchy.mshrs.drain()
        self.flush_private_translation_state()

    def flush_private_translation_state(self) -> None:
        """Per-VM half of the flush: the nested-path caches and the
        scheme's own translation state (see the native simulator)."""
        self._nested_paths.clear()
        if self._columnar_paths is not None:
            self._columnar_paths.clear()
        self.scheme.on_translation_flush()

    # ------------------------------------------------------------------
    def populate(self, trace, order: str = "sequential") -> int:
        """Pre-fault guest pages (and their host backing); in infinite-TLB
        mode the gVA -> host-frame translations are pre-installed too.
        Accepts an ndarray or a chunk-streaming TraceSource (see the
        native simulator)."""
        ordered = streaming_first_touch_order(
            (chunk >> 12 for chunk in iter_trace_chunks(trace)), order)
        faults = 0
        for vpn in ordered.tolist():
            if self.vm.touch(int(vpn) << 12).faulted:
                faults += 1
        if self.tlbs.infinite:
            for vpn in ordered.tolist():
                path = self.vm.nested_path(int(vpn) << 12)
                self.tlbs.fill(int(vpn), path.data_frame)
        return faults

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

        Same batched, chunk-streaming front-end as the native simulator
        (see :meth:`repro.sim.simulator.NativeSimulation.run`):
        ``trace`` is one ndarray or a TraceSource of execution chunks;
        the clock, warmup baselines, accumulators and run-detection seam
        carry across chunks, so every chunking of the same records is
        byte-identical.  Same-block repeats of a record are guaranteed
        L1-TLB + L1-D hits and are costed in bulk (including seam
        continuations); the scalar pipeline handles runs' first records,
        every co-runner record and the warmup boundary.  Nested walk
        paths are cached per vpn — the guest and host page tables cannot
        change mid-run — so repeat walks skip the Figure 7 schedule
        reconstruction.  With the default kernel the whole call runs in
        the compiled chunk kernel instead wherever its ``engine_mode``
        allows (`repro.sim.columnar`), with byte-identical results.
        """
        #: Observation seam (see the native simulator): phase spans and
        #: per-chunk counter snapshots when a recorder is active.
        obs = SimProbe.create("virt", warmup)
        if populate:
            if obs is not None:
                obs.phase_begin("populate")
            self.populate(trace, order=init_order)
            if obs is not None:
                obs.phase_end("populate")
        if self.corunner is not None:
            self.corunner.prefill(self.hierarchy)
        stats = SimStats()
        vm = self.vm
        tlbs = self.tlbs
        walker = self.walker
        hierarchy = self.hierarchy
        corunner = self.corunner
        scheme = self.scheme
        probe = scheme.probe_hook()
        walk_start = scheme.walk_start_hook()
        walk_end = scheme.walk_end_hook()
        fill_hook = scheme.fill_hook()
        host_prefetcher = self.scheme.host_prefetcher
        base_cycles = self.machine.core.base_cycles
        record_service = stats.service.record_walk
        lookup = tlbs.lookup
        tlb_fill = tlbs.fill_fast
        access = hierarchy.access
        nested_path = vm.nested_path
        walk = walker.walk
        need_records = collect_service or walk_end is not None
        l1_latency = hierarchy.latency_of("L1")
        step_cost = base_cycles + l1_latency
        nested_paths = self._nested_paths
        #: ASID/VMID bias, hoisted once per run: the TLB sees it in the
        #: vpn, the nested walker in both PWCs' tags (guest PWC keyed by
        #: gVA, host PWC by gPA — gPA spaces of different VMs collide
        #: numerically, hence the host-side bias too).  0 single-tenant.
        vbias = asid_bias(self.asid)
        self.guest_pwc.asid_bias = vbias
        self.host_pwc.asid_bias = vbias
        tlbs.probe_large[0] = vm.guest.page_table.has_large_pages

        now = 0
        measuring = warmup == 0
        # Baselines snapshot the current shared counters (see the native
        # simulator): a mid-sequence segment measures only its window.
        tlb_l1_base = tlbs.l1_hits if measuring else 0
        tlb_l2_base = tlbs.l2_hits if measuring else 0
        #: Local accumulators, flushed into ``stats`` after the loop
        #: (see the native simulator).
        acc = data_c = walk_c = walk_count = 0
        #: Chunk cursor (see the native simulator): the closures read the
        #: current chunk and its global offset through these cells.
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
                    # Scheme probe hit: no walk, hence no walk outcome on
                    # this path (the pre-refactor loop left a stale one
                    # reachable in scope here).
                    translation = offset
                    tlb_fill(vpn, frame)
                    if fill_hook is not None:
                        fill_hook(vpn, frame)
                    if measuring:
                        walk_c += translation
                else:
                    cached = nested_paths.get(vpn)
                    if cached is None:
                        path = nested_path(va)
                        cached = (path, path.data_frame,
                                  path.guest_leaf_level >= 2)
                        nested_paths[vpn] = cached
                    path, frame, large = cached
                    guest_prefetches = None
                    if walk_start is not None:
                        guest_prefetches = walk_start(va, now + offset)
                    outcome = walk(
                        path,
                        now + offset,
                        guest_prefetches=guest_prefetches,
                        host_prefetcher=host_prefetcher,
                        collect=need_records,
                    )
                    translation = offset + outcome.latency
                    if walk_end is not None:
                        translation = walk_end(va, vpn, now, translation,
                                               outcome)
                    tlb_fill(vpn, frame, large=large)
                    if fill_hook is not None:
                        fill_hook(vpn, frame)
                    if measuring:
                        walk_c += translation
                        walk_count += 1
                        if collect_service:
                            record_service(outcome.records)
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
            """Cost a run's repeat records (``first_index`` chunk-local);
            see the native simulator's ``bulk`` (same warmup-boundary
            splitting)."""
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

        bulk_ok = corunner is None
        bulk_tlb = tlbs.bulk_hits
        bulk_l1 = hierarchy.bulk_l1_hits
        #: Run-detection seam state (see the native simulator): block and
        #: biased vpn of the previous chunk's last record.
        prev_block = -1
        prev_vpn = 0
        #: The compiled kernel's mode for this call, or None for the
        #: scalar loop below; decided before the obs log names it.  The
        #: hook-free case is what the native simulator calls fast_ok.
        mode = None
        if self.kernel == "columnar":
            from repro.sim import columnar as _columnar

            hook_free = (probe is None and walk_start is None
                         and walk_end is None and fill_hook is None
                         and host_prefetcher is None
                         and tlbs.l2_evict_hook is None)
            mode = _columnar.engine_mode(self, hook_free)
        #: Chunk stream, re-cut at the warmup/sample seams under
        #: observation (statistics chunking-invariant — see the native
        #: simulator).
        if obs is not None:
            obs.run_begin(kernel=mode or "scalar")
            chunk_stream = obs.chunks(iter_trace_chunks(trace))
        else:
            chunk_stream = iter_trace_chunks(trace)
        if mode is not None:
            # Whole-chunk C engine with the nested walk compiled in
            # (byte-identical to the loop below; see repro.sim.columnar).
            (now, measuring, acc, data_c, walk_c, walk_count,
             tlb_l1_base, tlb_l2_base) = _columnar.run_columnar(
                self, chunk_stream, warmup, collect_service, stats,
                (now, measuring, acc, data_c, walk_c, walk_count,
                 tlb_l1_base, tlb_l2_base), obs_probe=obs, mode=mode)
        else:
            # The loop writes the cache lists through the inlined
            # ``access`` closure: drop the compiled kernel's resident
            # images, and pause the cyclic collector while it runs
            # (restored even on error; see the native simulator).
            hierarchy.drop_images()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
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
                        if bulk_ok:
                            bulk(prev_vpn, 0, lead)
                        else:
                            for index in range(lead):
                                handle(index)
                    prev_block = addresses[-1] >> 6
                    prev_vpn = (addresses[-1] >> 12) | vbias
                    if not run_starts:
                        chunk_base += n_records
                        if obs is not None:
                            obs.sample(chunk_base, now=now, accesses=acc,
                                       data_cycles=data_c, walk_cycles=walk_c,
                                       walks=walk_count,
                                       tlb_l1_hits=tlbs.l1_hits,
                                       tlb_l2_hits=tlbs.l2_hits,
                                       tlb_misses=tlbs.stats.misses)
                        continue
                    if bulk_ok and len(run_starts) == n_records - lead:
                        # No same-block repeats in the chunk: scalar sweep.
                        for index in range(lead, n_records):
                            handle(index)
                    else:
                        drive_batched(run_starts, run_counts, handle, bulk,
                                      scalar_only=not bulk_ok)
                    chunk_base += n_records
                    if obs is not None:
                        obs.sample(chunk_base, now=now, accesses=acc,
                                   data_cycles=data_c, walk_cycles=walk_c,
                                   walks=walk_count,
                                   tlb_l1_hits=tlbs.l1_hits,
                                   tlb_l2_hits=tlbs.l2_hits,
                                   tlb_misses=tlbs.stats.misses)
            finally:
                if gc_was_enabled:
                    gc.enable()
        stats.accesses = acc
        stats.base_cycles = acc * base_cycles
        stats.data_cycles = data_c
        stats.walk_cycles = walk_c
        stats.walks = walk_count
        stats.cycles = acc * base_cycles + data_c + walk_c
        stats.tlb_l1_hits = tlbs.l1_hits - tlb_l1_base
        stats.tlb_l2_hits = tlbs.l2_hits - tlb_l2_base
        scheme.finalize(stats)
        if obs is not None:
            obs.run_end(stats)
        return stats
