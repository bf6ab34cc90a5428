"""Multi-tenant simulation: N address spaces on one simulated machine.

The paper's cost model is measured per process, but its motivating
setting — datacenter servers under consolidation (§4's co-runner
methodology) — is multi-programmed.  This module closes that gap: N
:class:`~repro.kernelsim.process.ProcessAddressSpace`s (or N guest VMs)
share one :class:`~repro.kernelsim.phys.PhysicalMemory` /
:class:`~repro.kernelsim.buddy.BuddyAllocator`, one cache hierarchy and
one set of TLB/PWC structures, and a round-robin scheduler interleaves
their traces in configurable quanta.

Two context-switch policies are modelled:

* ``"flush"`` — the pre-ASID x86 behaviour: every switch flushes all
  translation state through the simulators'
  ``flush_translation_state()`` (TLBs, PWCs, in-flight prefetch MSHRs
  and the per-vpn flattened walk paths — the coherence contract of
  docs/ARCHITECTURE.md §10);
* ``"asid"`` — ASID-tagged retention: translations stay resident across
  switches, tagged by the tenant's ASID in the high bits of every
  TLB/PWC tag (:data:`repro.tlb.tlb.ASID_SHIFT`), and tenants compete
  for TLB/PWC/cache capacity instead.

Scheduling composes with the record loop by construction: each quantum
is one ``run()`` call on the active tenant's simulator, so the compiled
kernel (`repro.sim.columnar`, which every roster scheme's quanta run)
or the scalar loop of a fallback cell replays exactly the per-quantum
trace slice — the split lands precisely on the switch boundary.  The
kernel keeps the caches' images and Victima's parked pools resident
between quanta (ARCHITECTURE.md §12).  With one tenant
and no switching, the whole machinery reduces to a single ``run()``
over shared-but-singly-owned structures, and the results are
byte-identical to the single-tenant path (pinned by
tests/test_multitenant.py).

Determinism: everything — per-tenant traces, buddy allocators, ASAP
layouts — is seeded from ``scale.seed`` and the tenant index, so a
multi-tenant job remains a pure function of its spec and executes
identically inline or in a worker process.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.core.config import AsapConfig, BASELINE
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.mem.hierarchy import CacheHierarchy
from repro.obs.events import active as obs_active
from repro.pagetable.nested import NestedPageWalker
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.walker import PageWalker
from repro.params import DEFAULT_MACHINE, MachineParams
from repro.schemes import SchemeSpec
from repro.sim.runner import Scale, build_vm, guest_mem_bytes, make_trace, \
    setup_span
from repro.sim.simulator import NativeSimulation
from repro.sim.stats import SimStats
from repro.sim.virt import VirtualizedSimulation
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.tlb import ASID_SHIFT
from repro.traces.source import as_trace_source
from repro.workloads.suite import get as get_workload
from repro.workloads.suite import tenant_names

#: Context-switch policies understood by the scheduler.
SWITCH_POLICIES = ("flush", "asid")

#: Per-tenant seed stride: tenant 0 keeps the scale's seed (single-tenant
#: identity), later tenants get decorrelated trace/allocator streams.
_TENANT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class MultiTenantSpec:
    """The multi-tenant scenario axis of a runtime Job.

    ``tenants`` is the process (or VM) count; ``quantum`` the scheduler
    slice in trace records (0 = run each tenant to completion, so an
    N-tenant run still switches N-1 times); ``switch_policy`` selects
    full translation-state flushing or ASID-tagged retention at each
    switch.
    """

    tenants: int = 1
    quantum: int = 0
    switch_policy: str = "flush"

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("a multi-tenant run needs at least one tenant")
        if self.quantum < 0:
            raise ValueError("the scheduling quantum cannot be negative")
        if self.switch_policy not in SWITCH_POLICIES:
            raise ValueError(
                f"unknown switch policy {self.switch_policy!r}; "
                f"one of {SWITCH_POLICIES}")

    def payload(self) -> dict:
        """Canonical JSON-serialisable form (cache identity)."""
        return {"tenants": self.tenants, "quantum": self.quantum,
                "policy": self.switch_policy}

    def label(self) -> str:
        return f"mt{self.tenants}q{self.quantum}-{self.switch_policy}"


def tenant_seed(seed: int, index: int) -> int:
    """Tenant ``index``'s seed; index 0 is the identity."""
    return seed + _TENANT_SEED_STRIDE * index


def round_robin_schedule(
    lengths: list[int], quantum: int
) -> list[tuple[int, int, int]]:
    """``(tenant, start, stop)`` slices in round-robin order.

    ``quantum <= 0`` runs each tenant to completion in one slice.  A
    tenant whose trace is exhausted drops out of later rounds; slices
    are never empty.
    """
    if quantum <= 0:
        return [(i, 0, length) for i, length in enumerate(lengths) if length]
    cursors = [0] * len(lengths)
    schedule: list[tuple[int, int, int]] = []
    remaining = sum(lengths)
    while remaining:
        for tenant, length in enumerate(lengths):
            take = min(quantum, length - cursors[tenant])
            if take <= 0:
                continue
            start = cursors[tenant]
            cursors[tenant] = start + take
            schedule.append((tenant, start, start + take))
            remaining -= take
    return schedule


# ----------------------------------------------------------------------
# statistics aggregation
# ----------------------------------------------------------------------
def _merge_segment(agg: SimStats, seg: SimStats) -> None:
    """Fold one quantum's flow statistics into the aggregate.

    Cumulative scheme-owned fields (prefetch counters, scheme_stats) are
    deliberately skipped here: each ``run()`` call publishes the
    scheme's *cumulative-to-date* counters, so those are taken once per
    tenant from its final segment by :func:`_merge_tenant_totals`.
    """
    agg.accesses += seg.accesses
    agg.cycles += seg.cycles
    agg.base_cycles += seg.base_cycles
    agg.data_cycles += seg.data_cycles
    agg.walk_cycles += seg.walk_cycles
    agg.walks += seg.walks
    if seg.accesses:
        # Fully-unmeasured (all-warmup) segments leave these two fields
        # holding raw cumulative counters; only measured segments carry
        # a meaningful measured-window difference.
        agg.tlb_l1_hits += seg.tlb_l1_hits
        agg.tlb_l2_hits += seg.tlb_l2_hits
    for level, counts in seg.service._counts.items():
        per_level = agg.service._counts.setdefault(level, {})
        for label, count in counts.items():
            per_level[label] = per_level.get(label, 0) + count


def _merge_tenant_totals(agg: SimStats, final: SimStats) -> None:
    """Fold one tenant's cumulative scheme counters (its last segment)."""
    agg.prefetches_issued += final.prefetches_issued
    agg.prefetches_useful += final.prefetches_useful
    agg.prefetches_dropped += final.prefetches_dropped
    for key, value in final.scheme_stats.items():
        agg.scheme_stats[key] = agg.scheme_stats.get(key, 0) + value


# ----------------------------------------------------------------------
# the scheduler loop (shared by both modes)
# ----------------------------------------------------------------------
def _victim_router(hooks: tuple) -> Callable[[int, int], None]:
    """The L2 S-TLB eviction hook that hands each victim to
    ``hooks[owner]``, the owner being the ASID riding in the victim's
    biased vpn.  It stays a plain closure, the cheapest call on the
    scalar hot path; ``route.hooks`` exposes the per-ASID hooks to
    :func:`routed_hooks`."""

    def route(vpn: int, frame: int) -> None:
        hook = hooks[vpn >> ASID_SHIFT]
        if hook is not None:
            hook(vpn, frame)

    route.hooks = hooks
    return route


_ROUTE_CODE = _victim_router(()).__code__


def routed_hooks(hook) -> tuple | None:
    """The per-ASID hooks of a victim router built here, or ``None`` for
    any other hook.  The compiled kernel reads them to park each victim
    in its owner's pool (`repro.sim.columnar`)."""
    if getattr(hook, "__code__", None) is _ROUTE_CODE:
        return hook.hooks
    return None


def _install_evict_dispatcher(tlbs, evict_hooks) -> None:
    """Route L2 S-TLB victims to the scheme of the tenant that *owns*
    the evicted translation (its ASID rides in the biased vpn), not the
    tenant that happens to be running — an eviction-recycling scheme
    (Victima) must be able to reclaim its own entries after a switch
    back.  All-None hook lists keep the hook slot None (zero hot-path
    cost), and a single tenant gets its hook installed directly (the
    exact single-tenant dispatch)."""
    if not any(hook is not None for hook in evict_hooks):
        tlbs.l2_evict_hook = None
        return
    if len(evict_hooks) == 1:
        tlbs.l2_evict_hook = evict_hooks[0]
        return
    tlbs.l2_evict_hook = _victim_router(tuple(evict_hooks))


def _drive(sims, traces, evict_hooks, mt: MultiTenantSpec, warmup: int,
           collect_service: bool) -> SimStats:
    """Interleave the tenants' traces and aggregate their statistics.

    ``traces`` may be ndarrays or chunk-streaming TraceSources; each
    quantum hands the active tenant's simulator one ``section`` of its
    source, so a streamed (10M+-record) tenant trace never materialises
    beyond one execution chunk.
    """
    sources = [as_trace_source(trace) for trace in traces]
    lengths = [source.records for source in sources]
    schedule = round_robin_schedule(lengths, mt.quantum)
    hierarchy = sims[0].hierarchy
    tlbs = sims[0].tlbs
    _install_evict_dispatcher(tlbs, evict_hooks)
    agg = SimStats()
    final_stats: list[SimStats | None] = [None] * len(sims)
    consumed = 0
    active: int | None = None
    switches = flushes = 0
    #: Observation seam: quantum spans plus switch/flush instants when a
    #: recorder is active (``--obs``); ``None`` costs one test per run.
    recorder = obs_active()
    for tenant, start, stop in schedule:
        if active is not None:
            # A quantum boundary: whatever prefetches were in flight are
            # conceptually drained; the next segment's clock restarts.
            hierarchy.mshrs.drain()
            if tenant != active:
                switches += 1
                if recorder is not None:
                    recorder.instant("switch", "mt", src=active, dst=tenant,
                                     policy=mt.switch_policy)
                if mt.switch_policy == "flush":
                    # The hardware structures are shared: flush them once
                    # through the incoming tenant, then clear only the
                    # other tenants' private state (path caches, scheme
                    # translations).
                    sims[tenant].flush_translation_state()
                    for index, sim in enumerate(sims):
                        if index != tenant:
                            sim.flush_private_translation_state()
                    flushes += 1
                    if recorder is not None:
                        recorder.instant("flush", "mt", tenant=tenant)
        segment_warmup = min(max(warmup - consumed, 0), stop - start)
        if recorder is not None:
            recorder.begin("quantum", "mt", tenant=tenant, start=start,
                           stop=stop)
        seg = sims[tenant].run(
            sources[tenant].section(start, stop),
            warmup=segment_warmup,
            populate=False,
            collect_service=collect_service,
        )
        if recorder is not None:
            recorder.end("quantum")
        consumed += stop - start
        _merge_segment(agg, seg)
        final_stats[tenant] = seg
        active = tenant
    # The compiled kernel's cache images stay resident only so the next
    # quantum can reuse them; after the last one, free them now rather
    # than whenever the collector gets to this schedule's hierarchy.
    hierarchy.drop_images()
    if recorder is not None:
        recorder.counter("mt_schedule", "mt", tenants=len(sims),
                         quanta=len(schedule), switches=switches,
                         flushes=flushes)
    for seg in final_stats:
        if seg is not None:
            _merge_tenant_totals(agg, seg)
    if mt.tenants > 1:
        # Scenario counters ride in scheme_stats; single-tenant runs
        # stay field-identical to the plain simulators.
        agg.scheme_stats["mt_tenants"] = mt.tenants
        agg.scheme_stats["mt_switches"] = switches
        agg.scheme_stats["mt_flushes"] = flushes
    return agg


def _per_tenant_length(scale: Scale, tenants: int) -> int:
    """Split the scale's record budget across tenants (constant total
    work as the process count sweeps; one tenant keeps the full trace)."""
    return max(1, scale.trace_length // tenants)


def _tenant_traces(workload: str, mt: MultiTenantSpec,
                   scale: Scale) -> tuple[list, list]:
    """Each tenant's workload spec and trace (seeded per tenant)."""
    specs = [get_workload(name)
             for name in tenant_names(workload, mt.tenants)]
    length = _per_tenant_length(scale, mt.tenants)
    traces = [make_trace(spec, Scale(length, 0, tenant_seed(scale.seed, i)))
              for i, spec in enumerate(specs)]
    return specs, traces


def _populate(sims, traces, specs) -> None:
    """Pre-fault every tenant, under one ``populate`` span when a
    recorder is active."""
    recorder = obs_active()
    with (nullcontext() if recorder is None
          else recorder.span("populate", "sim", tenants=len(sims))):
        for sim, trace, spec in zip(sims, traces, specs):
            sim.populate(trace, order=spec.init_order)


# ----------------------------------------------------------------------
# native mode
# ----------------------------------------------------------------------
def run_native_mt(
    workload: str,
    config: AsapConfig = BASELINE,
    mt: MultiTenantSpec = MultiTenantSpec(),
    machine: MachineParams = DEFAULT_MACHINE,
    scale: Scale = Scale(),
    collect_service: bool = True,
    scheme: SchemeSpec | None = None,
    kernel: str = "columnar",
) -> SimStats:
    """Run one native multi-tenant scenario; returns aggregate statistics.

    ``workload`` is a Table 3 name or an ``MT_MIXES`` mix.  All tenants
    share one physical memory and buddy allocator (per-tenant pools keep
    each workload's fragmentation knobs), one cache hierarchy and one
    TLB/PWC set; each tenant gets its own process, scheme instance and
    ASID.  ``kernel`` selects each tenant simulator's record-loop engine;
    per-quantum sections run through it exactly as single-tenant traces
    do.
    """
    specs, traces = _tenant_traces(workload, mt, scale)
    sims: list[NativeSimulation] = []
    evict_hooks = []
    with setup_span("native", workload, tenants=mt.tenants):
        buddy = BuddyAllocator(PhysicalMemory(mt.tenants << 41),
                               seed=scale.seed)
        hierarchy = CacheHierarchy(machine.hierarchy)
        tlbs = TlbHierarchy(machine.tlb)
        pwc = SplitPwc(machine.pwc, top_level=4)
        walker = PageWalker(hierarchy, pwc)
        for index, spec in enumerate(specs):
            process = spec.build_process(
                asap_levels=config.native_levels,
                seed=tenant_seed(scale.seed, index),
                buddy=buddy,
                data_pool=f"data{index}",
                pt_pool=f"pt{index}",
            )
            sim = NativeSimulation(
                process,
                machine=machine,
                asap=config,
                scheme=scheme,
                hierarchy=hierarchy,
                tlbs=tlbs,
                pwc=pwc,
                walker=walker,
                asid=index,
                kernel=kernel,
            )
            # Schemes attach their eviction observer at bind time;
            # snapshot it per tenant so the scheduler can route each
            # victim to the observer of the tenant that owns it.
            evict_hooks.append(tlbs.l2_evict_hook)
            tlbs.l2_evict_hook = None
            sims.append(sim)
    _populate(sims, traces, specs)
    return _drive(sims, traces, evict_hooks, mt, scale.warmup,
                  collect_service)


# ----------------------------------------------------------------------
# virtualized mode
# ----------------------------------------------------------------------
def run_virtualized_mt(
    workload: str,
    config: AsapConfig = BASELINE,
    mt: MultiTenantSpec = MultiTenantSpec(),
    host_page_level: int = 1,
    machine: MachineParams = DEFAULT_MACHINE,
    scale: Scale = Scale(),
    collect_service: bool = True,
    scheme: SchemeSpec | None = None,
    kernel: str = "columnar",
) -> SimStats:
    """Run one virtualized multi-tenant scenario (N VMs on one host).

    Each tenant is a guest VM; all VMs share the host's physical memory
    and buddy allocator, and the ASID doubles as the VMID tagging both
    the shared TLBs and the host-dimension PWC.  ``kernel`` selects each
    tenant simulator's record-loop engine, as in :func:`run_native_mt`;
    a compiled tenant maps its lazily backed host pages in the quantum
    where the scalar loop would, so tenants sharing the host buddy draw
    the same frames under either kernel.
    """
    specs, traces = _tenant_traces(workload, mt, scale)
    sims: list[VirtualizedSimulation] = []
    evict_hooks = []
    with setup_span("virtualized", workload, tenants=mt.tenants):
        host_bytes = sum(max(4 * guest_mem_bytes(spec), 1 << 41)
                         for spec in specs)
        host_buddy = BuddyAllocator(PhysicalMemory(host_bytes),
                                    seed=scale.seed + 7)
        hierarchy = CacheHierarchy(machine.hierarchy)
        tlbs = TlbHierarchy(machine.tlb)
        guest_pwc = SplitPwc(machine.pwc, top_level=4)
        host_pwc = SplitPwc(machine.pwc, top_level=4)
        walker = NestedPageWalker(hierarchy, guest_pwc, host_pwc)
        for index, spec in enumerate(specs):
            vm = build_vm(spec, config, scale,
                          host_page_level=host_page_level,
                          seed=tenant_seed(scale.seed, index),
                          host_buddy=host_buddy)
            sim = VirtualizedSimulation(
                vm,
                machine=machine,
                asap=config,
                scheme=scheme,
                hierarchy=hierarchy,
                tlbs=tlbs,
                guest_pwc=guest_pwc,
                host_pwc=host_pwc,
                walker=walker,
                asid=index,
                kernel=kernel,
            )
            evict_hooks.append(tlbs.l2_evict_hook)
            tlbs.l2_evict_hook = None
            sims.append(sim)
    _populate(sims, traces, specs)
    return _drive(sims, traces, evict_hooks, mt, scale.warmup,
                  collect_service)


__all__ = [
    "MultiTenantSpec",
    "SWITCH_POLICIES",
    "round_robin_schedule",
    "routed_hooks",
    "run_native_mt",
    "run_virtualized_mt",
    "tenant_seed",
]
