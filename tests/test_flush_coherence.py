"""Flush coherence: one entry point restores cold translation state.

The headline bug this pins: ``TlbHierarchy.flush()`` alone is *not* a
safe mid-run flush — the page-walk caches, the in-flight prefetch MSHRs
and the simulators' per-vpn flattened walk-path caches all survive it,
a stale-translation hazard for any flush-then-continue scenario (the
multi-tenant scheduler's full-flush switch policy being the first real
caller).  ``flush_translation_state()`` on either simulator must leave
every translation structure byte-identical to a freshly built one, and
a continued run must behave like a translation-cold machine (every page
re-walks).
"""

import numpy as np
import pytest

from repro.core import config as cfg
from repro.sim import columnar
from repro.sim.runner import Scale, build_vm, make_trace
from repro.sim.simulator import NativeSimulation
from repro.sim.virt import VirtualizedSimulation
from repro.workloads.suite import get

SPEC = get("mc80")
NSCALE = Scale(trace_length=4_000, warmup=0, seed=7)
VSCALE = Scale(trace_length=1_500, warmup=0, seed=7)

#: Both kernels; each caches walk paths in its own structure.
KERNELS = ("scalar", pytest.param("columnar", marks=pytest.mark.skipif(
    not columnar.columnar_available(),
    reason="no C compiler/cffi for the columnar backend")))


def _native_sim(**kwargs):
    process = SPEC.build_process(seed=7)
    return NativeSimulation(process, **kwargs)


def _cached_paths(sim) -> int:
    """How many walk paths the simulator's own kernel has cached: the
    compiled kernel's path rows (nested rows of a virtualized one), or
    the scalar loop's per-vpn paths."""
    if sim.kernel == "columnar":
        return sim._columnar_paths.count
    return len(sim._walk_paths)


def _virt_sim(**kwargs):
    vm = build_vm(SPEC, cfg.BASELINE, VSCALE)
    return VirtualizedSimulation(vm, **kwargs)


def _tlb_state(tlbs):
    state = [list(tlbs.l1.tags), list(tlbs.l1.frames), list(tlbs.l1.sizes)]
    if tlbs.l2_plain is not None:
        state += [list(tlbs.l2_plain.tags), list(tlbs.l2_plain.frames),
                  list(tlbs.l2_plain.sizes)]
    if tlbs.l2_clustered is not None:
        state += [list(tlbs.l2_clustered.vtags),
                  list(tlbs.l2_clustered.ptags),
                  list(tlbs.l2_clustered.sizes)]
    state.append(dict(tlbs._infinite_store))
    return state


def _pwc_state(pwc):
    return [(level, list(tlb.tags), list(tlb.frames), list(tlb.sizes))
            for level, tlb in pwc.view]


class TestNativeFlush:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mid_run_flush_is_byte_identical_to_cold_structures(
            self, kernel):
        trace = make_trace(SPEC, NSCALE)
        sim = _native_sim(kernel=kernel)
        sim.run(trace[:2000], warmup=0, init_order=SPEC.init_order)
        # The run left every translation structure populated...
        assert sim.tlbs.l1.occupancy > 0
        assert sum(sim.pwc.occupancy(level)
                   for level, _ in sim.pwc.view) > 0
        assert _cached_paths(sim) > 0

        sim.flush_translation_state()

        cold = _native_sim(kernel=kernel)
        assert _tlb_state(sim.tlbs) == _tlb_state(cold.tlbs)
        assert _pwc_state(sim.pwc) == _pwc_state(cold.pwc)
        assert sim.hierarchy.mshrs.occupancy == 0
        assert _cached_paths(sim) == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tlb_flush_alone_is_incoherent(self, kernel):
        """Documents the hazard the entry point fixes: the old flush
        surface leaves PWCs and the cached walk paths populated."""
        trace = make_trace(SPEC, NSCALE)
        sim = _native_sim(kernel=kernel)
        sim.run(trace[:2000], warmup=0, init_order=SPEC.init_order)
        sim.tlbs.flush()
        assert sum(sim.pwc.occupancy(level)
                   for level, _ in sim.pwc.view) > 0
        assert _cached_paths(sim) > 0

    def test_continuation_after_flush_rewalks_every_page(self):
        trace = make_trace(SPEC, NSCALE)
        sim = _native_sim()
        first = sim.run(trace, warmup=0, init_order=SPEC.init_order)

        # Control: replaying the same trace on warm structures walks
        # far less than the cold pass did.
        warm = sim.run(trace, warmup=0, populate=False)
        assert warm.walks < first.walks

        # Flush, then replay: translation-cold behaviour again — at
        # least as many walks as the warm control, and every distinct
        # page must re-walk at least once.
        sim.flush_translation_state()
        replay = sim.run(trace, warmup=0, populate=False)
        distinct_pages = len(set((trace >> 12).tolist()))
        assert replay.walks >= distinct_pages
        assert replay.walks > warm.walks

    def test_flush_preserves_statistics_and_data_caches(self):
        trace = make_trace(SPEC, NSCALE)
        sim = _native_sim()
        sim.run(trace[:2000], warmup=0, init_order=SPEC.init_order)
        walks_before = sim.walker.walks
        tlb_stats_before = (sim.tlbs.stats.hits, sim.tlbs.stats.misses)
        l1_occupancy = sim.hierarchy.l1.occupancy
        sim.flush_translation_state()
        assert sim.walker.walks == walks_before
        assert (sim.tlbs.stats.hits,
                sim.tlbs.stats.misses) == tlb_stats_before
        assert sim.hierarchy.l1.occupancy == l1_occupancy


class TestVirtualizedFlush:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mid_run_flush_is_byte_identical_to_cold_structures(
            self, kernel):
        trace = make_trace(SPEC, VSCALE)
        sim = _virt_sim(kernel=kernel)
        sim.run(trace, warmup=0, init_order=SPEC.init_order)
        assert sim.tlbs.l1.occupancy > 0
        assert _cached_paths(sim) > 0

        sim.flush_translation_state()

        cold = _virt_sim(kernel=kernel)
        assert _tlb_state(sim.tlbs) == _tlb_state(cold.tlbs)
        assert _pwc_state(sim.guest_pwc) == _pwc_state(cold.guest_pwc)
        assert _pwc_state(sim.host_pwc) == _pwc_state(cold.host_pwc)
        assert sim.hierarchy.mshrs.occupancy == 0
        assert _cached_paths(sim) == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_continuation_after_flush_rewalks(self, kernel):
        trace = make_trace(SPEC, VSCALE)
        sim = _virt_sim(kernel=kernel)
        sim.run(trace, warmup=0, init_order=SPEC.init_order)
        warm = sim.run(trace, warmup=0, populate=False)
        sim.flush_translation_state()
        replay = sim.run(trace, warmup=0, populate=False)
        distinct_pages = len(set((trace >> 12).tolist()))
        assert replay.walks >= distinct_pages
        assert replay.walks > warm.walks


def test_flush_drains_prefetch_mshrs():
    """ASAP runs leave prefetch MSHRs in flight; the coherence contract
    drains them so a restarted clock cannot merge with stale entries."""
    process = SPEC.build_process(asap_levels=(1, 2), seed=7)
    sim = NativeSimulation(process, asap=cfg.P1_P2)
    trace = make_trace(SPEC, NSCALE)
    sim.run(trace[:1500], warmup=0, init_order=SPEC.init_order)
    # Force an entry in flight, then flush.
    sim.hierarchy.mshrs.try_allocate(0xDEAD, now=0, completion=10**9)
    assert sim.hierarchy.mshrs.occupancy > 0
    sim.flush_translation_state()
    assert sim.hierarchy.mshrs.occupancy == 0


def test_trace_views_are_not_mutated():
    trace = make_trace(SPEC, NSCALE)
    snapshot = np.array(trace, copy=True)
    sim = _native_sim()
    sim.run(trace, warmup=0, init_order=SPEC.init_order)
    sim.flush_translation_state()
    sim.run(trace[2000:], warmup=0, populate=False)
    assert np.array_equal(trace, snapshot)


def test_flush_kills_victima_parked_translations():
    """Victima's cache-parked entries are cached translations: a full
    flush must drop both the bookkeeping and their L2-resident lines,
    or a flush-then-continue run keeps short-circuiting walks with
    supposedly-flushed state."""
    from repro.schemes import SchemeSpec
    from repro.schemes.victima import _PARK_TAG_BASE

    process = SPEC.build_process(seed=7)
    sim = NativeSimulation(process, scheme=SchemeSpec.victima())
    trace = make_trace(SPEC, NSCALE)
    sim.run(trace, warmup=0, init_order=SPEC.init_order)
    parked = dict(sim.scheme._parked)
    assert parked, "the run should have parked some L2-TLB victims"

    sim.flush_translation_state()
    assert not sim.scheme._parked
    assert all(not sim.hierarchy.l2.contains(_PARK_TAG_BASE | vpn)
               for vpn in parked)

    # A continued run cannot probe-hit flushed state before re-parking:
    # the very first TLB miss after the flush must walk.
    hits_before = sim.scheme.stats["probe_hits"]
    sim.run(trace[:1], warmup=0, populate=False)
    assert sim.scheme.stats["probe_hits"] == hits_before
