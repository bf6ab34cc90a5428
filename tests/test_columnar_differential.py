"""Randomized differential tests: columnar chunk kernel vs scalar oracle.

The compiled columnar kernel (`repro.sim.columnar`) re-implements the
native simulator's scalar record loop in C; the scalar loop is the
*oracle* and every statistic, service distribution and structure image
must match it byte for byte.  These tests drive both engines through
the same cells — every scheme of the comparison roster, single- and
multi-tenant, chunk sizes down to one record with warmup boundaries
landing on and around chunk seams — and compare whole ``SimStats``
values (``ServiceDistribution`` has value equality, so ``==`` covers
the Figure 9 distributions too).  Virtualized cells have no compiled
mode; they are checked to run the scalar loop.

Where the columnar engine's preconditions hold (plain baseline, native
asap, native victima; no co-runner, standard TLBs) the suite also
asserts the C kernel actually *engaged*, with ``REPRO_REQUIRE_CCORE=1``
making a silent fallback an error; revelator/corunner cells exercise
the documented wholesale fallback instead.  The scheme-state seam tests
pin the hardest part of the compiled scheme paths: in-flight prefetch
MSHRs and the parked-victim pool must round-trip through the per-chunk
writeback/reload exactly, even when every record lands on its own seam.

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

import pytest

from repro.experiments.common import SCHEMES
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.mem.hierarchy import CacheHierarchy
from repro.obs.events import capture
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.walker import PageWalker
from repro.params import DEFAULT_MACHINE
from repro.sim import columnar, multitenant
from repro.sim.multitenant import MultiTenantSpec, round_robin_schedule, \
    run_native_mt, run_virtualized_mt
from repro.sim.runner import Scale, run_native, run_virtualized
from repro.sim.simulator import NativeSimulation
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.tlb import ASID_SHIFT
from repro.traces.source import ArraySource
from repro.workloads.suite import get as get_workload

pytestmark = pytest.mark.skipif(
    not columnar.columnar_available(),
    reason="no C compiler/cffi for the columnar backend")

SCALE = Scale(trace_length=6_000, warmup=1_200, seed=11)

SCHEME_NAMES = ("baseline", "asap", "victima", "revelator")


def _park_image_items(image) -> list:
    """A resident park image's map, walked in FIFO order."""
    pool = image.pool.reshape(-1, columnar._PARK_SLOT)
    items = []
    index = int(image.meta[columnar._PM_HEAD])
    while index >= 0:
        items.append((int(pool[index, 0]), int(pool[index, 1])))
        index = int(pool[index, 3])
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
                assert not image.meta[columnar._PM_DIRTY]
        calls.append(tuple(reused))
        return original(sim, *args, **kwargs)

    monkeypatch.setattr(columnar, "run_columnar", checked)
    yield calls


def _machine_state(sim) -> dict:
    """Everything a run leaves in the shared hardware structures."""
    hierarchy = sim.hierarchy
    state = {cache.name: (list(cache.lines), list(cache.sizes))
             for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3)}
    units = [sim.tlbs.l1, sim.tlbs.l2_plain]
    units += [unit for _, unit in sim.pwc.view]
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
    # Baseline, asap and victima cells must run the C kernel (the
    # differential point of the test); revelator exercises the
    # wholesale scalar fallback.
    if name != "revelator":
        monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    scalar, col = _native_pair(name)
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


@pytest.mark.parametrize("name", ("baseline", "asap"))
def test_virtualized_schemes_differential(name, monkeypatch):
    """The 2D walk has one engine: with the compiled backend loaded, a
    virtualized cell still runs the scalar loop."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    entry = SCHEMES[name]
    with capture() as recorder:
        stats = run_virtualized("mc80", entry.virt_config,
                                scheme=entry.spec, scale=SCALE)
    assert _simulate_kernels(recorder) == ["scalar"]
    assert stats.walks > 0


def test_native_corunner_falls_back_identically():
    scalar, col = _native_pair("baseline", colocated=True)
    assert scalar == col


def test_native_clustered_tlb_falls_back_identically():
    scalar, col = _native_pair("baseline", clustered_tlb=True)
    assert scalar == col


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
            workload: str = "mc80", scale: Scale = SCALE):
    """One native multi-tenant cell: its statistics, its tenants'
    simulations and the kernel each quantum's ``simulate`` span names."""
    drive = multitenant._drive
    tenants = []

    def capturing_drive(sims, *args, **kwargs):
        tenants.append(sims)
        return drive(sims, *args, **kwargs)

    monkeypatch.setattr(multitenant, "_drive", capturing_drive)
    entry = SCHEMES[name]
    with capture() as recorder:
        stats = run_native_mt(workload, entry.native_config, mt=mt,
                              scale=scale, scheme=entry.spec, kernel=kernel)
    return stats, tenants[-1], _simulate_kernels(recorder)


def _schedule_state(sims) -> dict:
    """The shared machine plus every tenant's scheme state: Victima's
    parked map in FIFO order (the order picks the next bound victim)."""
    state = _machine_state(sims[0])
    state["schemes"] = [
        (list(getattr(sim.scheme, "_parked", {}).items()),
         sim.scheme.scheme_stats())
        for sim in sims]
    return state


def _assert_mt_identical(name, mt, monkeypatch, compiled_mode,
                         workload="mc80", scale=SCALE):
    """Scalar and compiled runs of one cell agree on the statistics and
    on every state the schedule leaves behind; every compiled quantum
    ran ``compiled_mode``.  Returns the compiled run's tenants."""
    (scalar, s_sims, s_kernels), (col, c_sims, c_kernels) = [
        _run_mt(name, mt, kernel, monkeypatch, workload, scale)
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
    assert columnar.engine_mode(sims[0], False) == "victima"
    tlbs.l2_evict_hook = multitenant._victim_router((sims[0].scheme._park,))
    assert max(tlbs.l2_plain.tags) >> (ASID_SHIFT + 1) == 1
    assert columnar.engine_mode(sims[0], False) is None
    tlbs.flush()
    assert columnar.engine_mode(sims[0], False) == "victima"


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
    """Every virtualized quantum runs the scalar loop, as above."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    mt = MultiTenantSpec(tenants=2, quantum=900, switch_policy="asid")
    with capture() as recorder:
        run_virtualized_mt("mc80", mt=mt, scale=SCALE)
    kernels = _simulate_kernels(recorder)
    assert kernels and set(kernels) == {"scalar"}


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
