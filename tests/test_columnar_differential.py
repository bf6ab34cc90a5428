"""Randomized differential tests: columnar chunk kernel vs scalar oracle.

The compiled columnar kernel (`repro.sim.columnar`) re-implements the
native and virtualized simulators' scalar record loops in C; the scalar
loops are the *oracle* and every statistic, service distribution and
structure image must match them byte for byte.  These tests drive both
engines through the same cells — every scheme of the comparison roster,
native and virtualized (the nested 2D walk, on 4KB and 2MB host pages),
single- and multi-tenant, chunk sizes down to one record with warmup
boundaries landing on and around chunk seams — and compare whole
``SimStats`` values (``ServiceDistribution`` has value equality, so
``==`` covers the Figure 9 distributions too).

Where the columnar engine's preconditions hold (plain baseline, asap,
victima, revelator; standard TLBs, with or without the SMT co-runner)
the suite also asserts the C kernel actually *engaged*, naming the mode
each ``simulate`` span logs, with ``REPRO_REQUIRE_CCORE=1`` making a
silent fallback an error; clustered-TLB cells, a ``Corunner`` subclass,
a Victima router with a foreign hook, and a Revelator subclass, custom
walk-end hook or scheme pricing against another hierarchy exercise the
documented wholesale fallback instead.  Co-runner cells also compare
the co-runner's step count and the lines its next steps would issue,
with refills landing inside records and chunks.  Virtualized cells also compare the host page table and host
buddy a run leaves: the walk that first needs a lazily backed
guest-physical page maps it, under either kernel.  The scheme-state
seam tests pin the hardest part of the compiled scheme paths: in-flight
prefetch MSHRs and the parked-victim pool must round-trip through the
per-chunk writeback/reload exactly, even when every record lands on its
own seam.  Revelator's lottery runs in C over the ASID-biased vpn, so
its tests sweep the placement coverage (both branches of the walk end),
a speculation latency longer than some walks, chunk seams and
multi-tenant schedules in which tenants other than ASID 0 run.

The kernel keeps its data-cache images and every Victima scheme's
parked pool resident between ``run()`` calls and writes back only what
a call changed.  An autouse fixture checks that every image it reuses
still equals its cache's lists or its scheme's parked map, and the
multi-tenant and mixed-kernel tests compare the whole machine state
left behind, not only the statistics.  Multi-tenant Victima adds the
owner routing: each L2 S-TLB victim parks in the pool of the tenant
that owns it, whichever tenant is running.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from repro.experiments.common import SCHEMES
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.mem.hierarchy import CacheHierarchy
from repro.obs.events import capture
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.walker import PageWalker
from repro.params import DEFAULT_MACHINE
from repro.schemes import SchemeSpec
from repro.schemes.revelator import RevelatorLike
from repro.sim import columnar, multitenant
from repro.sim.multitenant import MultiTenantSpec, round_robin_schedule, \
    run_native_mt, run_virtualized_mt
from repro.core import config as cfg
from repro.core.config import AsapConfig
from repro.kernelsim.hypervisor import VirtualMachine
from repro.sim.runner import CORUNNER_INTENSITY, Scale, build_vm, \
    make_trace, run_native
from repro.sim.simulator import NativeSimulation
from repro.sim.virt import VirtualizedSimulation
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.tlb import ASID_SHIFT
from repro.traces.source import ArraySource
from repro.workloads.corunner import Corunner
from repro.workloads.suite import get as get_workload

pytestmark = pytest.mark.skipif(
    not columnar.columnar_available(),
    reason="no C compiler/cffi for the columnar backend")

SCALE = Scale(trace_length=6_000, warmup=1_200, seed=11)

SCHEME_NAMES = ("baseline", "asap", "victima", "revelator")

#: Each compiled scheme with the mode its runs log.
COMPILED = (("baseline", "plain"), ("asap", "asap"), ("victima", "victima"),
            ("revelator", "revelator"))


def _park_image_items(image) -> list:
    """A resident park image's map, walked in FIFO order."""
    items = []
    index = image.park.head
    while index >= 0:
        slot = image.park.pool[index]
        items.append((slot.vpn, slot.frame))
        index = slot.next
    return items


@pytest.fixture(autouse=True)
def reused_images(monkeypatch):
    """Wrap ``run_columnar``: every cache image a call reuses must equal
    its lists (and carry no touched flags) when the call starts, and
    every resident park image of a scheme the call parks for must equal
    that scheme's parked map.  Yields one tuple per compiled call naming
    the caches whose image it reused.
    """
    original = columnar.run_columnar
    calls = []

    def checked(sim, *args, **kwargs):
        reused = []
        for cache in (sim.hierarchy.l1, sim.hierarchy.l2, sim.hierarchy.l3):
            image = cache.image
            if image is not None:
                assert image.lines.tolist() == cache.lines, cache.name
                assert image.sizes.tolist() == cache.sizes, cache.name
                assert not image.touched.any(), cache.name
                reused.append(cache.name)
        routes = columnar._park_routes(sim)
        for scheme in routes[0] if routes else ():
            image = scheme.park_image
            if image is not None:
                assert _park_image_items(image) == \
                    list(scheme._parked.items())
                assert not image.park.dirty
        calls.append(tuple(reused))
        return original(sim, *args, **kwargs)

    monkeypatch.setattr(columnar, "run_columnar", checked)
    yield calls


def _pwcs(sim) -> tuple:
    if isinstance(sim, VirtualizedSimulation):
        return sim.guest_pwc, sim.host_pwc
    return (sim.pwc,)


def _machine_state(sim) -> dict:
    """Everything a run leaves in the shared hardware structures (both
    PWC dimensions of a virtualized machine)."""
    hierarchy = sim.hierarchy
    state = {cache.name: (list(cache.lines), list(cache.sizes))
             for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3)}
    units = [sim.tlbs.l1, sim.tlbs.l2_plain]
    units += [unit for pwc in _pwcs(sim) for _, unit in pwc.view]
    state["tlb_pwc"] = [(list(unit.tags), list(unit.frames),
                         list(unit.sizes)) for unit in units]
    mshrs = hierarchy.mshrs
    state["mshrs"] = (list(mshrs._inflight.items()), mshrs.allocations,
                      mshrs.rejections, mshrs.merges)
    return state


def _native_pair(name: str, **kwargs):
    entry = SCHEMES[name]
    return [
        run_native("mc80", entry.native_config, scheme=entry.spec,
                   scale=SCALE, kernel=kernel, **kwargs)
        for kernel in ("scalar", "columnar")
    ]


def _simulate_kernels(recorder) -> list[str]:
    """The kernel each ``simulate`` span of a captured run names."""
    return [event["args"]["kernel"] for event in recorder.events
            if event["type"] == "B" and event["name"] == "simulate"]


# ----------------------------------------------------------------------
# scheme roster, native and virtualized
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_native_schemes_differential(name, monkeypatch):
    # Every scheme's cell must run the C kernel (the differential point
    # of the test), in the scheme's own mode.
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    with capture() as recorder:
        scalar, col = _native_pair(name)
    assert _simulate_kernels(recorder) == ["scalar", dict(COMPILED)[name]]
    assert scalar == col
    assert scalar.service._counts == col.service._counts


@pytest.mark.parametrize("workload", ("mc80", "bfs"))
@pytest.mark.parametrize("hole_rate", (0.05, 0.5, 1.0))
def test_native_asap_holes_differential(workload, hole_rate, monkeypatch):
    """Region holes (§3.7.2) put 1s into the path rows' hole columns:
    those prefetches are issued but never overlap the walk.  The cells
    must compile, and scalar and columnar must agree on everything."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    verdicts = []
    engine_mode = columnar.engine_mode

    def recording(*args, **kwargs):
        verdicts.append(engine_mode(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(columnar, "engine_mode", recording)
    entry = SCHEMES["asap"]
    scale = Scale(trace_length=20_000, warmup=4_000, seed=13)
    scalar, col = [
        run_native(workload, entry.native_config, scheme=entry.spec,
                   scale=scale, hole_rate=hole_rate, kernel=kernel)
        for kernel in ("scalar", "columnar")
    ]
    assert verdicts == ["asap"]
    assert scalar == col
    assert scalar.service._counts == col.service._counts
    assert col.scheme_stats["wasted_on_hole"] > 0


def test_native_corunner_compiles_identically(monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    with capture() as recorder:
        scalar, col = _native_pair("baseline", colocated=True)
    assert _simulate_kernels(recorder) == ["scalar", "plain"]
    assert scalar == col


def test_native_clustered_tlb_falls_back_identically():
    scalar, col = _native_pair("baseline", clustered_tlb=True)
    assert scalar == col


# ----------------------------------------------------------------------
# virtualized cells: the nested 2D walk through the kernel
# ----------------------------------------------------------------------
#: Host-dimension ASAP alone (the Figure 10 ladder has no such rung).
HOST_ONLY = AsapConfig(name="P1h+P2h", host_levels=(1, 2))


def _host_state(vm) -> tuple:
    """What lazy host mappings change: the host page table's maps and
    the host buddy's allocation state."""
    hpt = vm.hpt
    pages, large = hpt.leaf_maps()
    buddy = vm.host_buddy
    return (dict(pages), dict(large),
            [dict(hpt.leaf_nodes(level)) for level in range(1, 5)],
            buddy._rng.getstate(),
            {name: vars(pool) for name, pool in buddy._pools.items()},
            sorted(buddy._used_slots), vars(buddy.stats))


def _sim_state(sim) -> dict:
    """Everything a run leaves: the machine, every counter the kernel
    writes back, the scheme's state and, for a VM, its host side."""
    state = _machine_state(sim)
    tlbs, hierarchy, walker = sim.tlbs, sim.hierarchy, sim.walker
    nested = isinstance(sim, VirtualizedSimulation)
    prefetchers = ((sim.guest_prefetcher, sim.host_prefetcher) if nested
                   else (sim.prefetcher,))
    state["counters"] = (
        (walker.walks, walker.total_latency,
         walker.total_accesses if nested else None),
        [(pwc.probes, pwc.hits, [vars(unit.stats) for _, unit in pwc.view])
         for pwc in _pwcs(sim)],
        (vars(tlbs.stats), tlbs.l1_hits, tlbs.l2_hits,
         vars(tlbs.l1.stats), vars(tlbs.l2_plain.stats)),
        [vars(cache.stats)
         for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3)],
        (dict(hierarchy.served), hierarchy.prefetches_issued,
         hierarchy.prefetches_dropped),
        [(pf.registers.hits, pf.registers.misses, vars(pf.stats))
         for pf in prefetchers if pf is not None])
    state["parked"] = list(getattr(sim.scheme, "_parked", {}).items())
    state["scheme"] = sim.scheme.scheme_stats()
    if nested:
        state["host"] = _host_state(sim.vm)
    if sim.corunner is not None:
        state["corunner"] = _corunner_state(sim.corunner)
    return state


def _corunner_state(corunner: Corunner) -> tuple:
    """A co-runner's step count, its drawn but unissued groups and its
    generator: together, every line its next steps issue."""
    return (corunner.accesses,
            corunner._lines[corunner._cursor:].tolist(),
            corunner._takes[corunner._take_cursor:].tolist(),
            corunner._rng.bit_generator.state)


def _virt_run(kernel: str, name: str = "baseline", *, config=None,
              host_page_level: int = 1, scale: Scale = SCALE,
              chunk_records: int | None = None, hole_rate: float = 0.0,
              collect_service: bool = True, make_vm=None, trace=None,
              scheme: SchemeSpec | None = None, tweak=None):
    """One virtualized cell on ``kernel`` — mc80, or ``make_vm(config,
    host_page_level)`` running ``trace`` — returning its statistics, its
    simulation and the kernel its ``simulate`` span names.
    ``hole_rate`` injects guest PT-region holes (§3.7.2) before
    population; ``scheme`` replaces the roster entry's spec, and
    ``tweak(sim)`` runs on the built simulation before the run."""
    entry = SCHEMES[name]
    config = entry.virt_config if config is None else config
    scheme = entry.spec if scheme is None else scheme
    spec = get_workload("mc80")
    if make_vm is None:
        vm = build_vm(spec, config, scale, host_page_level=host_page_level)
        trace = make_trace(spec, scale)
    else:
        vm = make_vm(config, host_page_level)
    if hole_rate:
        vm.guest.asap_layout.pinned_failure_prob = hole_rate
    sim = VirtualizedSimulation(vm, asap=config, scheme=scheme,
                                kernel=kernel)
    if tweak is not None:
        tweak(sim)
    if chunk_records is not None:
        trace = ArraySource(trace, chunk_records=chunk_records)
    with capture() as recorder:
        stats = sim.run(trace, warmup=scale.warmup,
                        collect_service=collect_service,
                        init_order=spec.init_order)
    return stats, sim, _simulate_kernels(recorder)


def _assert_identical(run, mode: str, **kwargs):
    """Scalar and compiled runs of one cell (``run(kernel, **kwargs)``)
    agree on the statistics and on every state they leave; the compiled
    run ran ``mode``.  Returns the compiled run's statistics and
    simulation."""
    (scalar, s_sim, s_kernels), (col, c_sim, c_kernels) = [
        run(kernel, **kwargs) for kernel in ("scalar", "columnar")]
    assert scalar == col, kwargs
    assert scalar.service._counts == col.service._counts, kwargs
    assert _sim_state(s_sim) == _sim_state(c_sim), kwargs
    assert (s_kernels, c_kernels) == (["scalar"], [mode]), kwargs
    return col, c_sim


def _assert_virt_identical(mode: str, **kwargs):
    """:func:`_assert_identical` over one virtualized cell."""
    return _assert_identical(_virt_run, mode, **kwargs)


@pytest.mark.parametrize("name", ("baseline", "asap", "victima", "revelator"))
def test_virtualized_schemes_differential(name, monkeypatch):
    """Each scheme's virtualized cell runs the compiled nested walk, on
    4KB and on 2MB host pages, with and without service collection, and
    matches the scalar loop on every statistic and every state it
    leaves."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mode = dict(COMPILED)[name]
    for host_page_level, collect in ((1, True), (2, True), (1, False)):
        stats, _ = _assert_virt_identical(
            mode, name=name, host_page_level=host_page_level,
            collect_service=collect)
        assert stats.walks > 0
        assert bool(stats.service._counts) == collect
        if name == "victima":
            assert stats.scheme_stats["probe_hits"] > 0
            assert stats.scheme_stats["parked_lost_to_data"] > 0


@pytest.mark.parametrize("config", (cfg.P1G_P2G, HOST_ONLY, cfg.FULL_2D),
                         ids=("guest", "host", "both"))
def test_virtualized_asap_dimensions_differential(config, monkeypatch):
    """Guest-only, host-only and combined ASAP: guest prefetches at walk
    start, host prefetches at every host walk, or both."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    stats, sim = _assert_virt_identical("asap", name="asap", config=config)
    assert (sim.guest_prefetcher is not None) == bool(config.guest_levels)
    assert (sim.host_prefetcher is not None) == bool(config.host_levels)
    assert stats.prefetches_useful > 0


@pytest.mark.parametrize("hole_rate", (0.05, 0.5, 1.0))
def test_virtualized_asap_holes_differential(hole_rate, monkeypatch):
    """Guest PT-region holes put 1s into the guest ASAP hole columns:
    those prefetches are issued but never overlap the walk."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    stats, _ = _assert_virt_identical("asap", name="asap",
                                      hole_rate=hole_rate)
    assert stats.scheme_stats["wasted_on_hole"] > 0


@pytest.mark.parametrize("chunk_records", (1, 7, 4096))
def test_virtualized_chunk_size_seams(chunk_records, monkeypatch):
    """Warmup exactly on a seam, just past one, and mid-chunk: chunked
    compiled == chunked scalar == the monolithic scalar run."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    length = max(3_000, chunk_records + 2_000)
    for warmup in (chunk_records, chunk_records + 1, 2_000):
        scale = Scale(trace_length=length, warmup=warmup, seed=23)
        stats, _ = _assert_virt_identical("plain", scale=scale,
                                          chunk_records=chunk_records)
        monolithic, _, _ = _virt_run("scalar", scale=scale)
        assert stats == monolithic, f"warmup={warmup}"


@pytest.mark.parametrize("name", ("asap", "victima"))
def test_virtualized_scheme_state_straddles_seams(name, monkeypatch):
    """In-flight prefetch MSHRs and the parked-victim pool cross every
    seam of a one-record-chunk nested run."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    stats, sim = _assert_virt_identical(name, name=name, chunk_records=1)
    if name == "asap":
        assert sim.hierarchy.mshrs.allocations > 0
    else:
        assert stats.scheme_stats["parked"] > 0


#: A guest heap of 4KB pages next to a 2MB-backed VMA: no suite workload
#: maps 2MB guest pages, whose nested walks stop at the guest PL2 entry.
HEAP, HUGE = 0x5555_0000_0000, 0x7000_0000_0000


def _large_page_vm(config, host_page_level: int) -> VirtualMachine:
    guest_mem = 1 << 34
    buddy = BuddyAllocator(PhysicalMemory(guest_mem), seed=29)
    layout = (AsapPtLayout(buddy, levels=config.guest_levels, seed=29)
              if config.guest_levels else None)
    guest = ProcessAddressSpace(buddy=buddy, asap_layout=layout)
    vm = VirtualMachine(guest, guest_mem_bytes=guest_mem,
                        host_page_level=host_page_level,
                        host_asap_levels=config.host_levels,
                        back_guest_pt_contiguously=bool(config.guest_levels),
                        seed=29)
    vm.mmap(HEAP, 16 << 20, name="heap")
    vm.mmap(HUGE, 32 << 20, name="huge", page_level=2)
    return vm


def _large_page_trace() -> np.ndarray:
    """Pages of both VMAs, a third of them repeated in short streaks."""
    rng = np.random.default_rng(29)
    pages = np.where(rng.random(4_000) < 0.5,
                     (HEAP >> 12) + rng.integers(0, 4_096, 4_000),
                     (HUGE >> 12) + rng.integers(0, 8_192, 4_000))
    trace = (pages << 12) | (rng.integers(0, 64, 4_000) << 6)
    return np.repeat(trace, rng.choice((1, 1, 3), trace.size))


@pytest.mark.parametrize("name", ("baseline", "asap", "victima", "revelator"))
def test_virtualized_large_guest_pages_differential(name, monkeypatch):
    """Walks that end at a 2MB guest leaf (three guest steps, then the
    data page) and fill large TLB tags, on 4KB and 2MB host pages."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    trace = _large_page_trace()
    scale = Scale(trace_length=trace.size, warmup=1_000, seed=29)
    for host_page_level in (1, 2):
        _, sim = _assert_virt_identical(
            dict(COMPILED)[name], name=name, scale=scale,
            host_page_level=host_page_level, make_vm=_large_page_vm,
            trace=trace)
        assert sim.vm.guest.page_table.has_large_pages
        leaves = sim._columnar_paths.paths[:sim._columnar_paths.count, 3]
        assert set(leaves.tolist()) == {1, 2}


def _lazy_run(kernel: str, host_page_level: int) -> tuple:
    """A populated baseline VM whose first record is already translated:
    a run of that record alone never walks, and in the next run the first
    walk lands mid-chunk.  Returns both runs' statistics, the host state
    before and after each and the machine, then the kernel each run's
    ``simulate`` span names."""
    spec = get_workload("mc80")
    scale = Scale(trace_length=3_000, warmup=500, seed=19)
    vm = build_vm(spec, cfg.BASELINE, scale,
                  host_page_level=host_page_level)
    sim = VirtualizedSimulation(vm, kernel=kernel)
    trace = make_trace(spec, scale)
    sim.populate(trace, order=spec.init_order)
    vpn = int(trace[0]) >> 12
    sim.tlbs.fill(vpn, vm.hpt.frame_of(vm.guest.frame_of(vpn)))
    states = [_host_state(vm)]
    with capture() as recorder:
        hit = sim.run(trace[:1], populate=False)
        states.append(_host_state(vm))
        stats = sim.run(trace, warmup=scale.warmup, populate=False)
        states.append(_host_state(vm))
    return (hit, stats, states, _machine_state(sim)), \
        _simulate_kernels(recorder)


@pytest.mark.parametrize("host_page_level", (1, 2))
def test_lazy_host_mapping_matches_scalar(host_page_level, monkeypatch):
    """Populate backs every guest page and PT node it creates but not
    the guest root node's page; on 4KB host pages the run's first walk
    maps it, drawing a host frame.  The compiled run stops before that
    walk, maps the page through one ``nested_path`` call (the scalar
    loop calls it once per walked page) and leaves the same host page
    table and host buddy.  2MB host pages already back the root."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    calls = []
    nested_path = VirtualMachine.nested_path

    def counting(vm, va):
        calls.append(va)
        return nested_path(vm, va)

    monkeypatch.setattr(VirtualMachine, "nested_path", counting)
    runs = []
    for kernel, mode in (("scalar", "scalar"), ("columnar", "plain")):
        calls.clear()
        run, kernels = _lazy_run(kernel, host_page_level)
        assert kernels == [mode, mode]
        runs.append(run)
    assert runs[0] == runs[1]
    hit, _, (before, after_hit, after), _ = runs[1]
    assert hit.walks == 0 and after_hit == before
    mapped = len(after[0]) - len(before[0])
    assert mapped == (1 if host_page_level == 1 else 0)
    assert len(calls) == mapped


def test_lazy_host_mapping_two_tenants_share_a_host_buddy(monkeypatch):
    """Two VMs draw their lazily mapped root pages from one host buddy,
    each in its own first quantum: the compiled schedule maps them in
    the same order, so both host page tables and the shared buddy end up
    as the scalar schedule leaves them."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    calls = []
    nested_path = VirtualMachine.nested_path

    def counting(vm, va):
        calls.append(vm)
        return nested_path(vm, va)

    monkeypatch.setattr(VirtualMachine, "nested_path", counting)
    mt = MultiTenantSpec(tenants=2, quantum=400, switch_policy="asid")
    hosts = []
    for kernel, mode in (("scalar", "scalar"), ("columnar", "plain")):
        calls.clear()
        _, sims, kernels = _run_mt("baseline", mt, kernel, monkeypatch,
                                   virtualized=True)
        assert set(kernels) == {mode}
        assert sims[0].vm.host_buddy is sims[1].vm.host_buddy
        hosts.append([_host_state(sim.vm) for sim in sims])
    assert hosts[0] == hosts[1]
    assert calls == [sim.vm for sim in sims]


# ----------------------------------------------------------------------
# chunk seams: tiny chunks, warmup on and around the boundaries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_records", (1, 7, 4096))
def test_chunk_size_seams(chunk_records, monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    spec = get_workload("mc80")
    length = 8_192
    trace = spec.generate_trace(length, seed=23)
    # Warmup exactly on a seam, just past one, and mid-chunk.
    for warmup in (chunk_records, chunk_records + 1, length // 3):
        results = []
        for kernel in ("scalar", "columnar"):
            source = ArraySource(trace, chunk_records=chunk_records)
            scale = Scale(trace_length=length, warmup=warmup, seed=23)
            results.append(run_native("mc80", scale=scale,
                                      trace_source=source, kernel=kernel))
        monolithic = run_native(
            "mc80", scale=Scale(trace_length=length, warmup=warmup,
                                seed=23),
            trace_source=ArraySource(trace, chunk_records=length),
            kernel="scalar")
        assert results[0] == results[1], f"warmup={warmup}"
        assert results[0] == monolithic, f"warmup={warmup}"


# ----------------------------------------------------------------------
# scheme-state chunk seams: in-flight MSHRs and the parked-victim pool
# must round-trip through the per-chunk writeback/reload exactly
# ----------------------------------------------------------------------
def _scheme_sim(name: str, kernel: str, seed: int):
    entry = SCHEMES[name]
    spec = get_workload("mc80")
    process = spec.build_process(
        asap_levels=entry.native_config.native_levels, seed=seed)
    return spec, NativeSimulation(process, asap=entry.native_config,
                                  scheme=entry.spec, kernel=kernel)


@pytest.mark.parametrize("chunk_records", (1, 64, 509))
def test_asap_inflight_mshr_straddles_seams(chunk_records, monkeypatch):
    """An MSHR allocated for a prefetch in one chunk retires or merges
    in a later one; with single-record chunks every in-flight window
    crosses a seam."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    length = 6_000
    spec = get_workload("mc80")
    trace = spec.generate_trace(length, seed=37)
    scale = Scale(trace_length=length, warmup=1_100, seed=37)
    runs = []
    for kernel in ("scalar", "columnar"):
        _, sim = _scheme_sim("asap", kernel, seed=scale.seed)
        stats = sim.run(ArraySource(trace, chunk_records=chunk_records),
                        warmup=scale.warmup, init_order=spec.init_order)
        runs.append((sim, stats))
    (s_sim, s_stats), (c_sim, c_stats) = runs
    assert s_stats == c_stats, f"chunk={chunk_records}"
    # The scenario is real: prefetches issued and MSHRs were allocated.
    s_pf = s_sim.scheme.walk_start_hook().__self__
    c_pf = c_sim.scheme.walk_start_hook().__self__
    assert s_pf.stats.issued > 0
    assert s_sim.hierarchy.mshrs.allocations > 0
    # Structure state, not just statistics: the prefetcher counters and
    # the in-flight MSHR file itself must match the oracle's.
    assert vars(c_pf.stats) == vars(s_pf.stats)
    assert c_sim.hierarchy.mshrs.allocations == \
        s_sim.hierarchy.mshrs.allocations
    assert c_sim.hierarchy.mshrs.merges == s_sim.hierarchy.mshrs.merges
    assert c_sim.hierarchy.mshrs._inflight == s_sim.hierarchy.mshrs._inflight


@pytest.mark.parametrize("chunk_records", (1, 64, 509))
def test_victima_parked_entry_evicted_across_seams(chunk_records,
                                                   monkeypatch):
    """A victim parked in the L2 data cache in one chunk is probed — or
    lost to a demand fill — in a later one; the parked pool, its FIFO
    order and the loss counter must survive every seam."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    length = 6_000
    spec = get_workload("mc80")
    trace = spec.generate_trace(length, seed=41)
    scale = Scale(trace_length=length, warmup=1_100, seed=41)
    runs = []
    for kernel in ("scalar", "columnar"):
        _, sim = _scheme_sim("victima", kernel, seed=scale.seed)
        stats = sim.run(ArraySource(trace, chunk_records=chunk_records),
                        warmup=scale.warmup, init_order=spec.init_order)
        runs.append((sim, stats))
    (s_sim, s_stats), (c_sim, c_stats) = runs
    assert s_stats == c_stats, f"chunk={chunk_records}"
    # The scenario is real: victims were parked, and at least one parked
    # entry was evicted by a demand fill after its parking chunk.
    assert s_sim.scheme.stats["parked"] > 0
    assert s_sim.scheme.stats["parked_lost_to_data"] > 0
    # Structure state: identical counters, identical pool content *and*
    # FIFO order (the order decides the next eviction victim).
    assert c_sim.scheme.stats == s_sim.scheme.stats
    assert list(c_sim.scheme._parked.items()) == \
        list(s_sim.scheme._parked.items())


def test_victima_reparks_a_parked_page_in_place(monkeypatch):
    """A page parked while still in the L2 S-TLB (here by a direct
    ``_park`` with a stale frame) is re-parked in place when the S-TLB
    evicts it: it keeps its FIFO position and takes the new frame, and
    the compiled write-back must carry that change to the dict."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    spec = get_workload("mc80")
    trace = spec.generate_trace(6_000, seed=43)
    runs = []
    for kernel in ("scalar", "columnar"):
        _, sim = _scheme_sim("victima", kernel, seed=43)
        sim.populate(trace, order=spec.init_order)
        sim.run(trace[:3_000], populate=False)
        stlb = sim.tlbs.l2_plain
        lru_tags = [stlb.tags[index * stlb.stride + stlb.ways - 1]
                    for index in range(stlb.num_sets)
                    if stlb.sizes[index] == stlb.ways]
        stale = [tag >> 1 for tag in lru_tags if not tag & 1][:32]
        for vpn in stale:
            sim.scheme._park(vpn, -7)
        stats = sim.run(trace[3_000:], populate=False)
        parked = sim.scheme._parked
        assert any(parked.get(vpn, -7) != -7 for vpn in stale), kernel
        runs.append((stats, list(parked.items()), sim.scheme.stats))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# randomized fuzz over (workload, length, warmup, seed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_randomized_differential(seed, monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    rng = random.Random(seed)
    workload = rng.choice(("mc80", "mcf"))
    length = rng.randrange(1_500, 9_000)
    warmup = rng.randrange(0, length)
    chunk = rng.choice((1, 7, 256, 4096))
    spec = get_workload(workload)
    trace = spec.generate_trace(length, seed=seed + 100)
    scale = Scale(trace_length=length, warmup=warmup, seed=seed + 100)
    context = (f"seed={seed} workload={workload} length={length} "
               f"warmup={warmup} chunk={chunk}")
    scalar, col = [
        run_native(workload, scale=scale,
                   trace_source=ArraySource(trace, chunk_records=chunk),
                   kernel=kernel)
        for kernel in ("scalar", "columnar")
    ]
    assert scalar == col, context


# ----------------------------------------------------------------------
# multi-tenant: per-quantum sections through the chunk kernel
# ----------------------------------------------------------------------
def _run_mt(name: str, mt: MultiTenantSpec, kernel: str, monkeypatch,
            workload: str = "mc80", scale: Scale = SCALE,
            virtualized: bool = False):
    """One multi-tenant cell (native, or virtualized: one VM per tenant):
    its statistics, its tenants' simulations and the kernel each
    quantum's ``simulate`` span names."""
    drive = multitenant._drive
    tenants = []

    def capturing_drive(sims, *args, **kwargs):
        tenants.append(sims)
        return drive(sims, *args, **kwargs)

    monkeypatch.setattr(multitenant, "_drive", capturing_drive)
    entry = SCHEMES[name]
    runner, config = ((run_virtualized_mt, entry.virt_config) if virtualized
                      else (run_native_mt, entry.native_config))
    with capture() as recorder:
        stats = runner(workload, config, mt=mt, scale=scale,
                       scheme=entry.spec, kernel=kernel)
    return stats, tenants[-1], _simulate_kernels(recorder)


def _schedule_state(sims) -> dict:
    """The shared machine plus every tenant's scheme state (Victima's
    parked map in FIFO order: the order picks the next bound victim)
    and walker counters.  VMs add their host page tables and the shared
    host buddy."""
    state = _machine_state(sims[0])
    state["schemes"] = [
        (list(getattr(sim.scheme, "_parked", {}).items()),
         sim.scheme.scheme_stats())
        for sim in sims]
    state["walkers"] = [(sim.walker.walks, sim.walker.total_latency)
                        for sim in sims]
    if isinstance(sims[0], VirtualizedSimulation):
        state["hosts"] = [_host_state(sim.vm) for sim in sims]
    return state


def _assert_mt_identical(name, mt, monkeypatch, compiled_mode,
                         workload="mc80", scale=SCALE, virtualized=False):
    """Scalar and compiled runs of one cell agree on the statistics and
    on every state the schedule leaves behind; every compiled quantum
    ran ``compiled_mode``.  Returns the compiled run's tenants."""
    (scalar, s_sims, s_kernels), (col, c_sims, c_kernels) = [
        _run_mt(name, mt, kernel, monkeypatch, workload, scale, virtualized)
        for kernel in ("scalar", "columnar")]
    assert scalar == col, name
    assert scalar.service._counts == col.service._counts, name
    assert _schedule_state(s_sims) == _schedule_state(c_sims), name
    assert set(s_kernels) == {"scalar"}
    assert set(c_kernels) == {compiled_mode}, name
    assert len(c_kernels) == len(s_kernels)
    return c_sims


@pytest.mark.parametrize("policy", ("flush", "asid"))
def test_multitenant_native_differential(policy, reused_images,
                                         monkeypatch):
    """Statistics *and* the state left after the schedule: a partial
    write-back that missed a set would show up in the structures even
    where the statistics happen to agree."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mt = MultiTenantSpec(tenants=2, quantum=700, switch_policy=policy)
    for name, mode in (("baseline", "plain"), ("asap", "asap"),
                       ("victima", "victima")):
        reused_images.clear()
        sims = _assert_mt_identical(name, mt, monkeypatch, mode)
        # The schedule releases its resident images once it ends.
        hierarchy = sims[0].hierarchy
        assert [hierarchy.l1.image, hierarchy.l2.image,
                hierarchy.l3.image] == [None, None, None], name
        # Each scenario built its images once; every later quantum
        # reused all three.  Victima's flush is the exception: it
        # invalidates the parked L2 lines through the cache's Python
        # mutator, so each quantum after a switch rebuilds the L2 image.
        reused = ("L1", "L3") if (name, policy) == ("victima", "flush") \
            else ("L1", "L2", "L3")
        assert reused_images.count(()) == 1, name
        assert set(reused_images) == {(), reused}, name
        if name == "victima":
            assert sims[0].scheme.stats["parked"] > 0
            assert all(sim.scheme.stats["probe_misses"] for sim in sims)


@pytest.mark.parametrize("name", ("asap", "victima"))
def test_multitenant_scheme_differential(name, monkeypatch):
    """Three ASID-tagged tenants on ``bfs`` with a quantum that divides
    neither a tenant's trace nor the warmup: each scheme's compiled mode
    runs every quantum, the short last ones and the one the warmup
    boundary splits included, with the scalar oracle's results."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mt = MultiTenantSpec(tenants=3, quantum=523, switch_policy="asid")
    sims = _assert_mt_identical(name, mt, monkeypatch, name,
                                workload="bfs")
    assert all(any(sim.scheme.scheme_stats().values()) for sim in sims)


def test_multitenant_victima_parks_for_other_tenants(monkeypatch):
    """Four ASID-tagged tenants with short quanta: the running tenant's
    fills evict other tenants' translations, and each victim must park
    in its owner's pool, counted on its owner's scheme, while probes
    search only the running tenant's pool."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    original = columnar.run_columnar
    foreign = []
    resident = []

    def counting(sim, *args, **kwargs):
        schemes = columnar._park_routes(sim)[0]
        others = [other for other in schemes if other is not sim.scheme]
        before = sum(other.stats["parked"] for other in others)
        resident.append(sum(scheme.park_image is not None
                            for scheme in schemes))
        result = original(sim, *args, **kwargs)
        foreign.append(sum(other.stats["parked"] for other in others)
                       - before)
        return result

    monkeypatch.setattr(columnar, "run_columnar", counting)
    mt = MultiTenantSpec(tenants=4, quantum=150, switch_policy="asid")
    sims = _assert_mt_identical("victima", mt, monkeypatch, "victima",
                                workload="mix-server")
    quanta = round_robin_schedule([SCALE.trace_length // 4] * 4, 150)
    assert len(foreign) == len(quanta)
    assert sum(foreign) > 0
    assert all(sim.scheme.stats["probe_hits"] for sim in sims)
    # No Python writer touches the maps between quanta, so the first
    # call seeds all four pools and every later call reuses them.
    assert resident == [0] + [4] * (len(resident) - 1)


def test_multitenant_victima_foreign_hook_falls_back(monkeypatch):
    """A router whose hooks are not all Victima ``_park`` methods keeps
    every quantum on the scalar loop, with the same results."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    install = multitenant._install_evict_dispatcher

    def wrapping_install(tlbs, evict_hooks):
        park = evict_hooks[1]
        install(tlbs, [evict_hooks[0], lambda vpn, frame: park(vpn, frame)])

    monkeypatch.setattr(multitenant, "_install_evict_dispatcher",
                        wrapping_install)
    mt = MultiTenantSpec(tenants=2, quantum=700, switch_policy="asid")
    _assert_mt_identical("victima", mt, monkeypatch, "scalar")


def test_victima_router_needs_a_route_for_every_resident_asid(
        monkeypatch):
    """The kernel indexes its route table with each victim's ASID, so
    while the L2 S-TLB holds a translation whose ASID the router has no
    hook for, the compiled mode must not engage."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mt = MultiTenantSpec(tenants=2, quantum=700, switch_policy="asid")
    _, sims, _ = _run_mt("victima", mt, "columnar", monkeypatch)
    tlbs = sims[0].tlbs
    assert columnar.engine_mode(sims[0]) == "victima"
    tlbs.l2_evict_hook = multitenant._victim_router((sims[0].scheme._park,))
    assert max(tlbs.l2_plain.tags) >> (ASID_SHIFT + 1) == 1
    assert columnar.engine_mode(sims[0]) is None
    tlbs.flush()
    assert columnar.engine_mode(sims[0]) == "victima"


def _mixed_kernel_replay(kernel: str) -> list:
    """A Victima simulation on ``kernel`` and a scalar baseline one share
    one hierarchy/TLB/PWC set; their ``run()`` calls alternate, with
    public cache mutations in between.  Returns each call's statistics
    with the machine state it left behind."""
    machine = DEFAULT_MACHINE
    hierarchy = CacheHierarchy(machine.hierarchy)
    tlbs = TlbHierarchy(machine.tlb)
    pwc = SplitPwc(machine.pwc, top_level=4)
    shared = dict(hierarchy=hierarchy, tlbs=tlbs, pwc=pwc,
                  walker=PageWalker(hierarchy, pwc))
    buddy = BuddyAllocator(PhysicalMemory(2 << 41), seed=3)
    entry = SCHEMES["victima"]
    sims, traces = [], []
    # The plain simulation is built first: Victima's bind installs its
    # park hook on the shared TLBs, and its compiled mode needs that
    # hook to be its own.
    for index, (workload, config, scheme, sim_kernel) in enumerate((
            ("mcf", SCHEMES["baseline"].native_config, None, "scalar"),
            ("mc80", entry.native_config, entry.spec, kernel))):
        spec = get_workload(workload)
        process = spec.build_process(
            asap_levels=config.native_levels, seed=60 + index, buddy=buddy,
            data_pool=f"data{index}", pt_pool=f"pt{index}")
        sim = NativeSimulation(process, asap=config, scheme=scheme,
                               asid=index, kernel=sim_kernel, **shared)
        trace = spec.generate_trace(6_000, seed=60 + index)
        sim.populate(trace, order=spec.init_order)
        sims.append(sim)
        traces.append(trace)
    plain, victima = sims

    def install_foreign_lines():
        for line in range(1 << 30, (1 << 30) + 4096 * 3, 3):
            hierarchy.l2.install(line)

    schedule = (victima, victima, plain, victima, install_foreign_lines,
                victima, victima.scheme.on_translation_flush, victima,
                hierarchy.flush, victima, plain, victima, victima)
    cursors = [0, 0]
    results = []
    for step in schedule:
        if not isinstance(step, NativeSimulation):
            step()
            continue
        which = sims.index(step)
        start = cursors[which]
        cursors[which] = start + 600
        stats = step.run(traces[which][start:start + 600], populate=False)
        state = _machine_state(step)
        state["parked"] = list(victima.scheme._parked.items())
        state["victima"] = dict(victima.scheme.stats)
        results.append((stats, state))
    return results


def test_mixed_kernels_share_one_hierarchy(reused_images, monkeypatch):
    """Compiled and scalar ``run()`` calls interleaved on one machine,
    with ``l2.install``, ``hierarchy.flush()`` and a Victima flush in
    between, must match an all-scalar replay call for call."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scalar = _mixed_kernel_replay("scalar")
    assert reused_images == []
    compiled = _mixed_kernel_replay("columnar")
    for call, (expected, got) in enumerate(zip(scalar, compiled)):
        assert got[0] == expected[0], f"call {call}"
        assert got[1] == expected[1], f"call {call}"
    assert scalar[-1][1]["victima"]["parked"] > 0
    # All eight Victima quanta ran compiled.  Resident images were
    # reused where nothing wrote the caches in between (back-to-back
    # quanta; the L1/L3 across the L2-only mutations) and rebuilt after
    # every scalar quantum and the full flush.
    full = ("L1", "L2", "L3")
    assert reused_images == [
        (), full, (), ("L1", "L3"), ("L1", "L3"), (), (), full,
    ]


def test_multitenant_virtualized_differential(monkeypatch):
    """Two VMs on one host under both switch policies: every quantum of
    each scheme runs the compiled nested walk, and the statistics and
    the state the schedule leaves — host page tables and the shared
    host buddy included — match the scalar schedule's."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    for policy in ("flush", "asid"):
        mt = MultiTenantSpec(tenants=2, quantum=900, switch_policy=policy)
        for name, mode in COMPILED:
            _assert_mt_identical(name, mt, monkeypatch, mode,
                                 virtualized=True)


@pytest.mark.parametrize("policy", ("flush", "asid"))
def test_multitenant_virtualized_four_tenants(policy, monkeypatch):
    """Four VMs with short quanta: under ``asid`` each tenant's fills
    evict the others' translations, and Victima parks each victim in
    its owner's pool."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mt = MultiTenantSpec(tenants=4, quantum=300, switch_policy=policy)
    for name, mode in (("baseline", "plain"), ("victima", "victima")):
        sims = _assert_mt_identical(name, mt, monkeypatch, mode,
                                    workload="mix-server", virtualized=True)
    assert all(sim.scheme.stats["parked"] for sim in sims)


# ----------------------------------------------------------------------
# Revelator: the placement lottery and the wrong-path access in the kernel
# ----------------------------------------------------------------------
def _native_run(kernel: str, name: str = "baseline", *,
                scheme: SchemeSpec | None = None, scale: Scale = SCALE,
                chunk_records: int | None = None,
                collect_service: bool = True, tweak=None):
    """One native mc80 cell on ``kernel``: its statistics, its
    simulation and the kernel its ``simulate`` span names.  ``scheme``
    replaces the roster entry's spec, and ``tweak(sim)`` runs on the
    built simulation before the run."""
    entry = SCHEMES[name]
    config = entry.native_config
    scheme = entry.spec if scheme is None else scheme
    spec = get_workload("mc80")
    process = spec.build_process(asap_levels=config.native_levels,
                                 seed=scale.seed)
    sim = NativeSimulation(process, asap=config, scheme=scheme,
                           kernel=kernel)
    if tweak is not None:
        tweak(sim)
    trace = make_trace(spec, scale)
    if chunk_records is not None:
        trace = ArraySource(trace, chunk_records=chunk_records)
    with capture() as recorder:
        stats = sim.run(trace, warmup=scale.warmup,
                        collect_service=collect_service,
                        init_order=spec.init_order)
    return stats, sim, _simulate_kernels(recorder)


#: A Revelator cell by where it runs: its runner and host page level.
REVELATOR_CELLS = {
    "native": (_native_run, {}),
    "virt-4k": (_virt_run, {"name": "revelator", "host_page_level": 1}),
    "virt-2m": (_virt_run, {"name": "revelator", "host_page_level": 2}),
}


def _assert_revelator_identical(cell: str, **kwargs):
    run, fixed = REVELATOR_CELLS[cell]
    return _assert_identical(run, "revelator", **fixed, **kwargs)


@pytest.mark.parametrize("cell", tuple(REVELATOR_CELLS))
@pytest.mark.parametrize("coverage", (0.0, 0.5, 1.0))
def test_revelator_coverage_differential(coverage, cell, monkeypatch):
    """No page, half the pages, or every page hash-placed: the lottery
    takes one branch of the walk end, or both.  A misplaced page's
    wrong-path access goes through the caches and MSHRs at the
    speculation time and its penalty lands on the translation; a placed
    page's stall is cut to the speculation latency.  Half coverage also
    runs without service collection."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scheme = SchemeSpec.revelator(coverage=coverage)
    for collect in (True, False) if coverage == 0.5 else (True,):
        stats, _ = _assert_revelator_identical(
            cell, scheme=scheme, collect_service=collect)
        assert bool(stats.service._counts) == collect
        counts = stats.scheme_stats
        assert counts["speculations"] == \
            counts["correct"] + counts["mispredicts"] > stats.walks > 0
        assert (counts["correct"] > 0) == (coverage > 0)
        assert (counts["mispredicts"] > 0) == (coverage < 1)


@pytest.mark.parametrize("cell", tuple(REVELATOR_CELLS))
def test_revelator_speculation_outlasts_short_walks(cell, monkeypatch):
    """A speculation latency longer than some walks: ``min`` keeps the
    walk's own latency for those and the speculation's for the rest."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    spec_latency = 100
    scheme = SchemeSpec.revelator(coverage=1.0, spec_latency=spec_latency)
    stats, sim = _assert_revelator_identical(cell, scheme=scheme)
    # Every measured walk stalls for min(spec_latency, walk): the sum is
    # below spec_latency per walk only if some walk was shorter, and
    # below the walker's own total only if some walk was longer.
    assert stats.walk_cycles < spec_latency * stats.walks
    assert stats.walk_cycles < sim.walker.total_latency


@pytest.mark.parametrize("cell", tuple(REVELATOR_CELLS))
@pytest.mark.parametrize("chunk_records", (1, 7, 4096))
def test_revelator_chunk_seams(chunk_records, cell, monkeypatch):
    """Warmup exactly on a seam: chunked compiled == chunked scalar ==
    the monolithic scalar run."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scheme = SchemeSpec.revelator(coverage=0.5)
    run, fixed = REVELATOR_CELLS[cell]
    scale = Scale(trace_length=max(3_000, chunk_records + 2_000),
                  warmup=chunk_records, seed=23)
    stats, _ = _assert_revelator_identical(
        cell, scheme=scheme, scale=scale, chunk_records=chunk_records)
    assert stats == run("scalar", scheme=scheme, scale=scale, **fixed)[0]


@pytest.mark.parametrize("cell", tuple(REVELATOR_CELLS))
@pytest.mark.parametrize("lead", (0, 1))
def test_revelator_wrong_path_access_time(lead, cell, monkeypatch):
    """A miss of one record's wrong-path line is in flight, due ``lead``
    cycles after that record's now + spec_latency, and the record's walk
    is shorter than spec_latency (so no walk access retires the miss
    first).  Issued at now + spec_latency, the wrong-path access finds
    the miss retired (lead 0) or merges with it (lead 1); issued at the
    record's start, it would merge either way."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    spec_latency = 100
    scheme = SchemeSpec.revelator(coverage=0.0, spec_latency=spec_latency)
    run, fixed = REVELATOR_CELLS[cell]
    walk_ends = []
    walk_end = RevelatorLike._walk_end

    def spying(self, va, vpn, now, translation):
        walk_ends.append((va, vpn, now, translation))
        return walk_end(self, va, vpn, now, translation)

    with monkeypatch.context() as patch:
        patch.setattr(RevelatorLike, "_walk_end", spying)
        run("scalar", scheme=scheme, **fixed)
    va, vpn, now = next(end[:3] for end in walk_ends
                        if end[3] < spec_latency)
    wrong_frame = zlib.crc32((vpn ^ 0x5EED).to_bytes(8, "little"))
    wrong_line = (wrong_frame << 6) | ((va & 0xFFF) >> 6)

    def in_flight(sim):
        assert sim.hierarchy.mshrs.try_allocate(
            wrong_line, 0, now + spec_latency + lead)

    _, sim = _assert_revelator_identical(cell, scheme=scheme,
                                         tweak=in_flight)
    assert sim.hierarchy.mshrs.merges == lead


@pytest.mark.parametrize("policy", ("flush", "asid"))
def test_multitenant_revelator_differential(policy, monkeypatch):
    """Four native tenants and two VMs: every tenant but the first runs
    under a nonzero ASID, whose bias the lottery and the wrong-path
    line both see, and every quantum of both schedules compiles."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    for tenants, virtualized in ((4, False), (2, True)):
        mt = MultiTenantSpec(tenants=tenants, quantum=300,
                             switch_policy=policy)
        sims = _assert_mt_identical("revelator", mt, monkeypatch,
                                    "revelator", workload="mix-server",
                                    virtualized=virtualized)
        assert all(sim.scheme.stats["mispredicts"] for sim in sims)


class _RevelatorSubclass(RevelatorLike):
    pass


def _subclassed(sim) -> None:
    sim.scheme = _RevelatorSubclass(sim.scheme.spec)
    sim.scheme.bind_native(sim)


def _custom_walk_end(sim) -> None:
    walk_end = sim.scheme._walk_end
    sim.scheme.walk_end_hook = lambda: (
        lambda va, vpn, now, translation:
        walk_end(va, vpn, now, translation))


def _foreign_walk_end(sim) -> None:
    other = RevelatorLike(sim.scheme.spec)
    other.bind_native(sim)
    sim.scheme.walk_end_hook = other.walk_end_hook


def _other_hierarchy(sim) -> None:
    sim.scheme._hierarchy = CacheHierarchy(DEFAULT_MACHINE.hierarchy)


@pytest.mark.parametrize("tweak", (_subclassed, _custom_walk_end,
                                   _foreign_walk_end, _other_hierarchy),
                         ids=("subclass", "custom-hook", "foreign-hook",
                              "other-hierarchy"))
def test_revelator_lookalikes_fall_back(tweak, monkeypatch):
    """A ``RevelatorLike`` subclass, a walk-end hook that is not the
    scheme's own bound ``_walk_end``, and a scheme whose wrong-path
    accesses go to another hierarchy are not what the kernel replays:
    they keep the scalar loop, with the scalar loop's results."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scheme = SchemeSpec.revelator(coverage=0.5)
    (scalar, _, s_kernels), (col, _, c_kernels) = [
        _native_run(kernel, scheme=scheme, tweak=tweak)
        for kernel in ("scalar", "columnar")]
    assert (s_kernels, c_kernels) == (["scalar"], ["scalar"])
    assert scalar == col
    assert col.walks > 0


# ----------------------------------------------------------------------
# the SMT co-runner: every record's groups issued by the kernel
# ----------------------------------------------------------------------
def _colocate(batch: int = 65536):
    """A tweak giving the simulation the runners' co-runner, drawing
    ``batch`` groups at a time."""
    def tweak(sim) -> None:
        sim.corunner = Corunner(seed=SCALE.seed + 99,
                                intensity=CORUNNER_INTENSITY, batch=batch)
    return tweak


#: A co-runner cell by where it runs: its runner and fixed arguments.
CORUNNER_CELLS = {
    "native-baseline": (_native_run, {}),
    "native-asap": (_native_run, {"name": "asap"}),
    "native-victima": (_native_run, {"name": "victima"}),
    "native-revelator": (_native_run, {"name": "revelator"}),
    "virt-4k-baseline": (_virt_run, {"host_page_level": 1}),
    "virt-2m-baseline": (_virt_run, {"host_page_level": 2}),
    "virt-4k-asap": (_virt_run, {"name": "asap", "host_page_level": 1}),
    "virt-2m-asap": (_virt_run, {"name": "asap", "host_page_level": 2}),
}


def _assert_corunner_identical(cell: str, batch: int = 65536, **kwargs):
    """:func:`_assert_identical` over one co-runner cell (the co-runner's
    step count and next lines included); returns the compiled run's
    statistics and simulation."""
    run, fixed = CORUNNER_CELLS[cell]
    mode = dict(COMPILED)[fixed.get("name", "baseline")]
    stats, sim = _assert_identical(run, mode, **fixed, **kwargs,
                                   tweak=_colocate(batch))
    records = kwargs.get("scale", SCALE).trace_length
    assert sim.corunner.accesses == records
    return stats, sim


@pytest.mark.parametrize("cell", tuple(CORUNNER_CELLS))
def test_corunner_differential(cell, monkeypatch):
    """Each scheme's colocated cell, native and virtualized on 4KB and
    2MB host pages, runs compiled: the kernel issues every record's
    co-runner groups after its data access, at the new clock, through
    the same caches and MSHRs as the scalar ``Corunner.step``."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    stats, sim = _assert_corunner_identical(cell)
    assert stats.walks > 0
    assert sim.hierarchy.l3.stats.evictions > 0


@pytest.mark.parametrize("chunk_records", (1, 7, 4096))
def test_corunner_chunk_seams(chunk_records, monkeypatch):
    """Warmup exactly on a seam: chunked compiled == chunked scalar ==
    the monolithic scalar run, natively and nested."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scale = Scale(trace_length=max(3_000, chunk_records + 2_000),
                  warmup=chunk_records, seed=23)
    for cell in ("native-baseline", "virt-4k-baseline"):
        stats, _ = _assert_corunner_identical(
            cell, scale=scale, chunk_records=chunk_records)
        run, fixed = CORUNNER_CELLS[cell]
        monolithic, _, _ = run("scalar", scale=scale, tweak=_colocate(),
                               **fixed)
        assert stats == monolithic, cell


@pytest.mark.parametrize("batch", (5, 12))
def test_corunner_refills_inside_records(batch, monkeypatch):
    """A batch shorter than one record's groups (5) or not a multiple
    of them (12): refills land inside a record's groups and inside
    chunks, so the kernel stops before each record whose groups are not
    drawn, and the driver draws them and resumes there."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scale = Scale(trace_length=3_000, warmup=600, seed=11)
    for cell in ("native-victima", "virt-4k-baseline"):
        _assert_corunner_identical(cell, batch=batch, scale=scale,
                                   chunk_records=509)


def test_corunner_steps_at_the_record_end_clock(monkeypatch):
    """A miss in flight that completes exactly when the first record
    ends: the record's walk and data access run before that, so only
    the co-runner's step, issued at the record's end clock, retires it.
    Both kernels leave the MSHR file empty; a step issued at the
    record's start would leave the miss in flight."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scale = Scale(trace_length=1, warmup=0, seed=11)
    first, _, _ = _native_run("scalar", scale=scale, tweak=_colocate())
    assert first.walks == 1

    def tweak(sim) -> None:
        _colocate()(sim)
        assert sim.hierarchy.mshrs.try_allocate(12345, 0, first.cycles)

    _, sim = _assert_identical(_native_run, "plain", scale=scale,
                               tweak=tweak)
    assert not sim.hierarchy.mshrs._inflight


def test_corunner_subclass_falls_back(monkeypatch):
    """A ``Corunner`` subclass may step differently: it keeps the scalar
    loop, with the scalar loop's results."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")

    class Louder(Corunner):
        pass

    def tweak(sim) -> None:
        sim.corunner = Louder(seed=5, intensity=2)

    (scalar, _, s_kernels), (col, _, c_kernels) = [
        _native_run(kernel, tweak=tweak) for kernel in ("scalar", "columnar")]
    assert (s_kernels, c_kernels) == (["scalar"], ["scalar"])
    assert scalar == col


# ----------------------------------------------------------------------
# engagement: the C kernel must actually run where its preconditions hold
# ----------------------------------------------------------------------
def test_columnar_engine_engages(monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    spec = get_workload("mc80")
    trace = spec.generate_trace(4_000, seed=5)
    process = spec.build_process(seed=5)
    sim = NativeSimulation(process, kernel="columnar")
    sim.populate(trace, order=spec.init_order)
    sim.run(trace, warmup=500)
    # The path-row cache is built lazily by the C dispatch: present
    # exactly when the compiled kernel ran.
    assert sim._columnar_paths is not None


def test_scalar_kernel_never_builds_columnar_state():
    spec = get_workload("mc80")
    trace = spec.generate_trace(4_000, seed=5)
    process = spec.build_process(seed=5)
    sim = NativeSimulation(process, kernel="scalar")
    sim.populate(trace, order=spec.init_order)
    sim.run(trace, warmup=500)
    assert sim._columnar_paths is None


def test_unknown_kernel_rejected():
    spec = get_workload("mc80")
    process = spec.build_process(seed=5)
    with pytest.raises(ValueError, match="unknown simulation kernel"):
        NativeSimulation(process, kernel="simd")
    vm = build_vm(spec, cfg.BASELINE, SCALE)
    with pytest.raises(ValueError, match="unknown simulation kernel"):
        VirtualizedSimulation(vm, kernel="simd")
