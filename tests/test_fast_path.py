"""Fast-path parity suite: the array-backed rewrite is byte-identical.

Golden values were captured from the dict-backed simulators as they
stood before the array/batched hot-path rewrite (PR 2 tree, commit
832752f): same workloads, scales and seeds.  Every scenario below —
all four schemes, native and virtualized, clustered/infinite TLBs,
warmup boundaries (including mid-streak), co-runner colocation and
synthetic same-page streaks — must reproduce those SimStats exactly,
whichever of the three execution paths (fully inlined sweep, batched
run loop, scalar fallback) it lands on.  Any drift here means the hot
path changed behaviour, not just speed.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import config as cfg
from repro.obs.events import capture
from repro.params import DEFAULT_MACHINE, TlbHierarchyParams, TlbParams
from repro.runtime.job import VIRTUALIZED, Job, execute_job
from repro.schemes import SchemeSpec
from repro.sim import columnar
from repro.sim.runner import (
    Scale,
    _corunner,
    build_vm,
    make_trace,
    run_native,
    run_virtualized,
)
from repro.sim.simulator import NativeSimulation
from repro.sim.virt import VirtualizedSimulation
from repro.workloads.suite import get

FIELDS = ("accesses", "cycles", "base_cycles", "data_cycles",
          "walk_cycles", "walks", "tlb_l1_hits", "tlb_l2_hits",
          "prefetches_issued", "prefetches_useful",
          "prefetches_dropped")

NSCALE = Scale(trace_length=6_000, warmup=1_000, seed=7)
VSCALE = Scale(trace_length=4_000, warmup=800, seed=7)

#: tag -> (SimStats fields tuple, sorted scheme_stats items).
GOLDEN = {
    "allsame-native": (
        (400, 2400, 800, 1600, 0, 0, 400, 0, 0, 0, 0),
        (),
    ),
    "native-5level-baseline": (
        (5000, 1172564, 10000, 576386, 586178, 3610, 168, 1222, 0, 0, 0),
        (),
    ),
    "native-asap": (
        (5000, 1075029, 10000, 576302, 488727, 3610, 168, 1222, 8752, 8752, 0),
        (('prefetches_issued', 8752), ('prefetches_useful', 8752), ('wasted_on_hole', 0)),
    ),
    "native-baseline": (
        (5000, 1172312, 10000, 576554, 585758, 3610, 168, 1222, 0, 0, 0),
        (),
    ),
    "native-bfs-asap": (
        (5000, 1008867, 10000, 513111, 485756, 2949, 686, 1365, 7172, 7172, 0),
        (('prefetches_issued', 7172), ('prefetches_useful', 7172), ('wasted_on_hole', 0)),
    ),
    "native-clustered-asap": (
        (5000, 1067543, 10000, 575978, 481565, 3158, 168, 1674, 7766, 7766, 0),
        (('prefetches_issued', 7766), ('prefetches_useful', 7766), ('wasted_on_hole', 0)),
    ),
    "native-clustered-baseline": (
        (5000, 1162374, 10000, 576278, 576096, 3151, 168, 1681, 0, 0, 0),
        (),
    ),
    "native-coloc-asap": (
        (5000, 1136855, 10000, 615594, 511261, 3610, 168, 1222, 8752, 8752, 0),
        (('prefetches_issued', 8752), ('prefetches_useful', 8752), ('wasted_on_hole', 0)),
    ),
    "native-coloc-baseline": (
        (5000, 1288560, 10000, 615398, 663162, 3610, 168, 1222, 0, 0, 0),
        (),
    ),
    "native-coloc-victima": (
        (5000, 1284894, 10000, 615762, 659132, 3457, 168, 1222, 0, 0, 0),
        (('parked', 3649), ('parked_lost_to_data', 572), ('probe_hits', 167), ('probe_misses', 4250)),
    ),
    "native-infinite-baseline": (
        (5000, 578482, 10000, 568482, 0, 0, 5000, 0, 0, 0, 0),
        (),
    ),
    "native-mcf-baseline": (
        (5000, 669379, 10000, 478966, 180413, 2649, 752, 1599, 0, 0, 0),
        (),
    ),
    "native-revelator": (
        (5000, 709062, 10000, 577578, 121484, 3610, 168, 1222, 0, 0, 0),
        (('correct', 3701), ('mispredicts', 716), ('speculations', 4417)),
    ),
    "native-victima": (
        (5000, 1176568, 10000, 579986, 586582, 3070, 168, 1222, 0, 0, 0),
        (('parked', 3649), ('parked_lost_to_data', 180), ('probe_hits', 559), ('probe_misses', 3858)),
    ),
    "native-warmup0-baseline": (
        (6000, 1525044, 12000, 728590, 784454, 4417, 212, 1371, 0, 0, 0),
        (),
    ),
    "streak-native-asap": (
        (5000, 356689, 10000, 191295, 155394, 955, 3799, 246, 2324, 2324, 0),
        (('prefetches_issued', 2324), ('prefetches_useful', 2324), ('wasted_on_hole', 0)),
    ),
    "streak-native-baseline": (
        (5000, 405745, 10000, 191315, 204430, 955, 3799, 246, 0, 0, 0),
        (),
    ),
    "streak-native-clustered": (
        (5000, 404221, 10000, 191283, 202938, 859, 3799, 342, 0, 0, 0),
        (),
    ),
    "streak-native-coloc": (
        (5000, 437501, 10000, 200123, 227378, 955, 3799, 246, 0, 0, 0),
        (),
    ),
    "streak-native-infinite": (
        (5000, 200663, 10000, 190663, 0, 0, 5000, 0, 0, 0, 0),
        (),
    ),
    "streak-native-nocollect": (
        (5000, 405745, 10000, 191315, 204430, 955, 3799, 246, 0, 0, 0),
        (),
    ),
    "streak-native-revelator": (
        (5000, 240803, 10000, 191451, 39352, 955, 3799, 246, 0, 0, 0),
        (('correct', 988), ('mispredicts', 187), ('speculations', 1175)),
    ),
    "streak-native-victima": (
        (5000, 405637, 10000, 191371, 204266, 909, 3799, 246, 0, 0, 0),
        (('parked', 440), ('parked_lost_to_data', 0), ('probe_hits', 46), ('probe_misses', 1129)),
    ),
    "streak-native-warmup-mid": (
        (4999, 405351, 9998, 191124, 204229, 954, 3799, 246, 0, 0, 0),
        (),
    ),
    "streak-native-warmup-mid2": (
        (4997, 405339, 9994, 191116, 204229, 954, 3797, 246, 0, 0, 0),
        (),
    ),
    "streak-native-warmup0": (
        (6000, 519411, 12000, 236487, 270924, 1175, 4563, 262, 0, 0, 0),
        (),
    ),
    "streak-virt-asap": (
        (3200, 285868, 6400, 125379, 154089, 615, 2427, 158, 6906, 6906, 0),
        (('prefetches_issued', 6906), ('prefetches_useful', 6906), ('wasted_on_hole', 0)),
    ),
    "streak-virt-baseline": (
        (3200, 314973, 6400, 125159, 183414, 615, 2427, 158, 0, 0, 0),
        (),
    ),
    "streak-virt-coloc": (
        (3200, 350841, 6400, 130475, 213966, 615, 2427, 158, 0, 0, 0),
        (),
    ),
    "streak-virt-revelator": (
        (3200, 168740, 6400, 125183, 37157, 615, 2427, 158, 0, 0, 0),
        (('correct', 670), ('mispredicts', 133), ('speculations', 803)),
    ),
    "streak-virt-warmup-mid": (
        (3199, 314967, 6398, 125155, 183414, 615, 2427, 157, 0, 0, 0),
        (),
    ),
    "tiny-native-1rec": (
        (1, 959, 2, 191, 766, 1, 0, 0, 0, 0, 0),
        (),
    ),
    "tiny-native-3rec-samepage": (
        (3, 971, 6, 199, 766, 1, 2, 0, 0, 0, 0),
        (),
    ),
    "tiny-native-run-to-end": (
        (5000, 35714, 10000, 21496, 4218, 8, 4992, 0, 0, 0, 0),
        (),
    ),
    "virt-asap": (
        (3200, 878143, 6400, 389464, 482279, 2328, 115, 757, 25618, 25618, 0),
        (('prefetches_issued', 25618), ('prefetches_useful', 25618), ('wasted_on_hole', 0)),
    ),
    "virt-baseline": (
        (3200, 984727, 6400, 389136, 589191, 2328, 115, 757, 0, 0, 0),
        (),
    ),
    "virt-coloc-baseline": (
        (3200, 1110007, 6400, 411680, 691927, 2328, 115, 757, 0, 0, 0),
        (),
    ),
    "virt-infinite-baseline": (
        (3200, 390564, 6400, 384164, 0, 0, 3200, 0, 0, 0, 0),
        (),
    ),
    "virt-revelator": (
        (3200, 503109, 6400, 389660, 107049, 2328, 115, 757, 0, 0, 0),
        (('correct', 2522), ('mispredicts', 466), ('speculations', 2988)),
    ),
    "virt-victima": (
        (3200, 971211, 6400, 390764, 574047, 2022, 115, 757, 0, 0, 0),
        (('parked', 2220), ('parked_lost_to_data', 58), ('probe_hits', 314), ('probe_misses', 2674)),
    ),
}
#: Figure 9 service distributions pinned for the collecting path.
SERVICE_GOLDEN = {
    "service-native-asap": {
        "1": {'L1': 3577, 'L2': 13, 'L3': 7, 'MEM': 13},
        "2": {'L1': 3070, 'L2': 35, 'L3': 12, 'MEM': 12, 'PWC': 481},
        "3": {'L1': 1469, 'L2': 32, 'L3': 2, 'PWC': 2107},
        "4": {'PWC': 3610},
    },
    "service-native-baseline": {
        "1": {'L1': 229, 'L2': 756, 'L3': 186, 'MEM': 2439},
        "2": {'L1': 1347, 'L2': 1370, 'L3': 77, 'MEM': 335, 'PWC': 481},
        "3": {'L1': 1469, 'L2': 31, 'L3': 3, 'PWC': 2107},
        "4": {'PWC': 3610},
    },
    "service-virt-asap": {
        "g1": {'L1': 2307, 'L2': 7, 'L3': 4, 'MEM': 10},
        "g2": {'L1': 2008, 'L2': 17, 'L3': 9, 'MEM': 10, 'PWC': 284},
        "g3": {'L1': 916, 'L2': 49, 'L3': 1, 'MEM': 1, 'PWC': 1361},
        "g4": {'PWC': 2328},
        "h1": {'L1': 7667},
        "h2": {'L1': 2402, 'PWC': 5265},
        "h3": {'L1': 1432, 'L2': 136, 'L3': 2, 'PWC': 6097},
        "h4": {'PWC': 7667},
    },
}

def _assert_golden(tag, stats):
    got = (tuple(int(getattr(stats, field)) for field in FIELDS),
           tuple(sorted(stats.scheme_stats.items())))
    assert got == GOLDEN[tag], (
        f"{tag}: stats drifted from the pre-rewrite simulators: "
        f"{dict(zip(FIELDS, got[0]))}, scheme_stats={dict(got[1])}")


SPEC = get("mc80")


def native_sim(*, config=cfg.BASELINE, scheme=None, clustered=False,
               infinite=False, coloc=False, kernel="scalar", machine=None):
    process = SPEC.build_process(asap_levels=config.native_levels, seed=7)
    extra = {} if machine is None else {"machine": machine}
    return NativeSimulation(
        process, asap=config, clustered_tlb=clustered, infinite_tlb=infinite,
        corunner=_corunner(NSCALE) if coloc else None, scheme=scheme,
        kernel=kernel, **extra)


def run_oracle(*args, **kwargs):
    """``run_native`` forced onto the scalar loop."""
    return run_native(*args, kernel="scalar", **kwargs)


def run_virt_oracle(*args, **kwargs):
    """``run_virtualized`` forced onto the scalar loop."""
    return run_virtualized(*args, kernel="scalar", **kwargs)


def run_native_trace(trace, warmup, *, collect=True, **sim_kwargs):
    sim = native_sim(**sim_kwargs)
    return sim.run(trace, warmup=warmup, collect_service=collect,
                   init_order=SPEC.init_order)


def virt_sim(*, config=cfg.BASELINE, scheme=None, coloc=False,
             kernel="scalar"):
    vm = build_vm(SPEC, config, VSCALE)
    return VirtualizedSimulation(
        vm, asap=config, corunner=_corunner(VSCALE) if coloc else None,
        scheme=scheme, kernel=kernel)


def run_virt_trace(trace, warmup, **sim_kwargs):
    sim = virt_sim(**sim_kwargs)
    return sim.run(trace, warmup=warmup, init_order=SPEC.init_order)


@pytest.fixture(scope="module")
def ntrace():
    return make_trace(SPEC, NSCALE)


@pytest.fixture(scope="module")
def vtrace():
    return make_trace(SPEC, VSCALE)


class TestRunnerParity:
    """Runner-level scenarios: every scheme, mode and TLB variant.
    Every cell forces the scalar loop, the oracle these goldens pin;
    ``TestColumnarGoldenParity`` runs them on the compiled kernel."""

    def test_native_baseline(self):
        _assert_golden("native-baseline",
                       run_oracle("mc80", cfg.BASELINE, scale=NSCALE))

    def test_native_asap(self):
        _assert_golden("native-asap",
                       run_oracle("mc80", cfg.P1_P2, scale=NSCALE))

    def test_native_victima(self):
        _assert_golden("native-victima",
                       run_oracle("mc80", scale=NSCALE,
                                  scheme=SchemeSpec.victima()))

    def test_native_revelator(self):
        _assert_golden("native-revelator",
                       run_oracle("mc80", scale=NSCALE,
                                  scheme=SchemeSpec.revelator()))

    def test_native_clustered_baseline(self):
        _assert_golden("native-clustered-baseline",
                       run_oracle("mc80", cfg.BASELINE, clustered_tlb=True,
                                  scale=NSCALE))

    def test_native_clustered_asap(self):
        _assert_golden("native-clustered-asap",
                       run_oracle("mc80", cfg.P1_P2, clustered_tlb=True,
                                  scale=NSCALE))

    def test_native_infinite_baseline(self):
        _assert_golden("native-infinite-baseline",
                       run_oracle("mc80", cfg.BASELINE, infinite_tlb=True,
                                  scale=NSCALE))

    def test_native_colocated_baseline(self):
        _assert_golden("native-coloc-baseline",
                       run_oracle("mc80", cfg.BASELINE, colocated=True,
                                  scale=NSCALE))

    def test_native_colocated_asap(self):
        _assert_golden("native-coloc-asap",
                       run_oracle("mc80", cfg.P1_P2, colocated=True,
                                  scale=NSCALE))

    def test_native_colocated_victima(self):
        _assert_golden("native-coloc-victima",
                       run_oracle("mc80", colocated=True, scale=NSCALE,
                                  scheme=SchemeSpec.victima()))

    def test_native_no_warmup(self):
        _assert_golden("native-warmup0-baseline",
                       run_oracle("mc80", cfg.BASELINE,
                                  scale=Scale(6_000, 0, 7)))

    def test_native_five_level(self):
        _assert_golden("native-5level-baseline",
                       run_oracle("mc80", cfg.BASELINE, pt_levels=5,
                                  scale=NSCALE))

    def test_other_workloads(self):
        _assert_golden("native-mcf-baseline",
                       run_oracle("mcf", cfg.BASELINE, scale=NSCALE))
        _assert_golden("native-bfs-asap",
                       run_oracle("bfs", cfg.P1_P2, scale=NSCALE))

    def test_virtualized_baseline(self):
        _assert_golden("virt-baseline",
                       run_virt_oracle("mc80", cfg.BASELINE, scale=VSCALE))

    def test_virtualized_asap(self):
        _assert_golden("virt-asap",
                       run_virt_oracle("mc80", cfg.FULL_2D, scale=VSCALE))

    def test_virtualized_victima(self):
        _assert_golden("virt-victima",
                       run_virt_oracle("mc80", scale=VSCALE,
                                       scheme=SchemeSpec.victima()))

    def test_virtualized_revelator(self):
        _assert_golden("virt-revelator",
                       run_virt_oracle("mc80", scale=VSCALE,
                                       scheme=SchemeSpec.revelator()))

    def test_virtualized_infinite(self):
        _assert_golden("virt-infinite-baseline",
                       run_virt_oracle("mc80", cfg.BASELINE,
                                       infinite_tlb=True, scale=VSCALE))

    def test_virtualized_colocated(self):
        _assert_golden("virt-coloc-baseline",
                       run_virt_oracle("mc80", cfg.BASELINE, colocated=True,
                                       scale=VSCALE))


class TestStreakParity:
    """Synthetic same-page streaks drive the batched/bulk path."""

    def test_baseline(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-baseline",
                       run_native_trace(streaky, 1000))

    def test_warmup_lands_mid_streak(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-warmup-mid",
                       run_native_trace(streaky, 1001))
        _assert_golden("streak-native-warmup-mid2",
                       run_native_trace(streaky, 1003))

    def test_no_warmup(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-warmup0", run_native_trace(streaky, 0))

    def test_schemes(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-asap",
                       run_native_trace(streaky, 1000, config=cfg.P1_P2))
        _assert_golden("streak-native-victima",
                       run_native_trace(streaky, 1000,
                                        scheme=SchemeSpec.victima()))
        _assert_golden("streak-native-revelator",
                       run_native_trace(streaky, 1000,
                                        scheme=SchemeSpec.revelator()))

    def test_tlb_variants(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-clustered",
                       run_native_trace(streaky, 1000, clustered=True))
        _assert_golden("streak-native-infinite",
                       run_native_trace(streaky, 1000, infinite=True))

    def test_corunner_forces_scalar(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-coloc",
                       run_native_trace(streaky, 1000, coloc=True))

    def test_without_service_collection(self, ntrace):
        streaky = np.repeat(ntrace[:1500], 4)
        _assert_golden("streak-native-nocollect",
                       run_native_trace(streaky, 1000, collect=False))

    def test_virtualized(self, vtrace):
        streaky = np.repeat(vtrace[:1000], 4)
        _assert_golden("streak-virt-baseline", run_virt_trace(streaky, 800))
        _assert_golden("streak-virt-warmup-mid",
                       run_virt_trace(streaky, 801))

    def test_virtualized_schemes(self, vtrace):
        streaky = np.repeat(vtrace[:1000], 4)
        _assert_golden("streak-virt-asap",
                       run_virt_trace(streaky, 800, config=cfg.FULL_2D))
        _assert_golden("streak-virt-revelator",
                       run_virt_trace(streaky, 800,
                                      scheme=SchemeSpec.revelator()))

    def test_virtualized_corunner(self, vtrace):
        streaky = np.repeat(vtrace[:1000], 4)
        _assert_golden("streak-virt-coloc",
                       run_virt_trace(streaky, 800, coloc=True))


class TestTinyTraces:
    """Traces shorter than (or exactly) one streak batch."""

    def test_single_record(self, ntrace):
        _assert_golden("tiny-native-1rec", run_native_trace(ntrace[:1], 0))

    def test_three_records_same_page(self, ntrace):
        _assert_golden("tiny-native-3rec-samepage",
                       run_native_trace(np.repeat(ntrace[:1], 3), 0))

    def test_run_extends_to_trace_end(self, ntrace):
        _assert_golden("tiny-native-run-to-end",
                       run_native_trace(np.repeat(ntrace[:10], 600), 1000))

    def test_whole_trace_one_page(self, ntrace):
        trace = np.full(500, int(ntrace[0]), dtype=ntrace.dtype)
        _assert_golden("allsame-native", run_native_trace(trace, 100))

    def test_empty_trace(self, ntrace):
        stats = run_native_trace(ntrace[:0], 0)
        assert stats.accesses == 0
        assert stats.cycles == 0
        assert stats.walks == 0


class TestPathDispatch:
    """The right execution path runs for the right configuration."""

    def test_plain_baseline_uses_fast_sweep(self, ntrace, monkeypatch):
        sim = native_sim()
        called = []
        original = sim._fast_native_sweep

        def spy(*args, **kwargs):
            called.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, "_fast_native_sweep", spy)
        sim.run(ntrace, warmup=1000, init_order=SPEC.init_order)
        assert called, "plain baseline run must take the inlined sweep"

    def test_corunner_disables_fast_sweep(self, ntrace, monkeypatch):
        sim = native_sim(coloc=True)

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("co-runner run must stay scalar")

        monkeypatch.setattr(sim, "_fast_native_sweep", forbidden)
        sim.run(ntrace[:2000], warmup=400, init_order=SPEC.init_order)

    def test_streaks_disable_fast_sweep(self, ntrace, monkeypatch):
        sim = native_sim()
        streaky = np.repeat(ntrace[:500], 4)

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("streaky traces go through the run loop")

        monkeypatch.setattr(sim, "_fast_native_sweep", forbidden)
        sim.run(streaky, warmup=400, init_order=SPEC.init_order)

    def test_scheme_hooks_disable_fast_sweep(self, ntrace, monkeypatch):
        sim = native_sim(scheme=SchemeSpec.victima())

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("scheme hooks must use the general loop")

        monkeypatch.setattr(sim, "_fast_native_sweep", forbidden)
        sim.run(ntrace[:2000], warmup=400, init_order=SPEC.init_order)


class TestServiceParity:
    """Per-PT-level service distributions (Figure 9) stay pinned too."""

    def _distribution(self, stats):
        return {str(level): dict(sorted(stats.service._counts[level].items()))
                for level in stats.service._counts}

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_native_baseline(self, kernel):
        stats = run_native("mc80", cfg.BASELINE, scale=NSCALE,
                           kernel=kernel)
        assert self._distribution(stats) == SERVICE_GOLDEN[
            "service-native-baseline"]

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_native_asap(self, kernel):
        stats = run_native("mc80", cfg.P1_P2, scale=NSCALE, kernel=kernel)
        assert self._distribution(stats) == SERVICE_GOLDEN[
            "service-native-asap"]

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_virtualized_asap(self, kernel):
        # A job's kernel is provenance: the virtualized executor must
        # yield the same distribution on either engine.
        job = Job(kind=VIRTUALIZED, workload="mc80", config=cfg.FULL_2D,
                  scale=VSCALE, collect_service=True, kernel=kernel)
        assert self._distribution(execute_job(job)) == SERVICE_GOLDEN[
            "service-virt-asap"]


# ----------------------------------------------------------------------
# columnar kernel parity: every golden scenario, other engine
# ----------------------------------------------------------------------
def _streaky(nt):
    return np.repeat(nt[:1500], 4)


def _vstreaky(vt):
    return np.repeat(vt[:1000], 4)


#: tag -> callable(ntrace, vtrace, kernel) reproducing the golden cell.
COLUMNAR_SCENARIOS = {
    "allsame-native": lambda nt, vt, k: run_native_trace(
        np.full(500, int(nt[0]), dtype=nt.dtype), 100, kernel=k),
    "native-5level-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, pt_levels=5, scale=NSCALE, kernel=k),
    "native-asap": lambda nt, vt, k: run_native(
        "mc80", cfg.P1_P2, scale=NSCALE, kernel=k),
    "native-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, scale=NSCALE, kernel=k),
    "native-bfs-asap": lambda nt, vt, k: run_native(
        "bfs", cfg.P1_P2, scale=NSCALE, kernel=k),
    "native-clustered-asap": lambda nt, vt, k: run_native(
        "mc80", cfg.P1_P2, clustered_tlb=True, scale=NSCALE, kernel=k),
    "native-clustered-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, clustered_tlb=True, scale=NSCALE, kernel=k),
    "native-coloc-asap": lambda nt, vt, k: run_native(
        "mc80", cfg.P1_P2, colocated=True, scale=NSCALE, kernel=k),
    "native-coloc-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, colocated=True, scale=NSCALE, kernel=k),
    "native-coloc-victima": lambda nt, vt, k: run_native(
        "mc80", colocated=True, scale=NSCALE,
        scheme=SchemeSpec.victima(), kernel=k),
    "native-infinite-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, infinite_tlb=True, scale=NSCALE, kernel=k),
    "native-mcf-baseline": lambda nt, vt, k: run_native(
        "mcf", cfg.BASELINE, scale=NSCALE, kernel=k),
    "native-revelator": lambda nt, vt, k: run_native(
        "mc80", scale=NSCALE, scheme=SchemeSpec.revelator(), kernel=k),
    "native-victima": lambda nt, vt, k: run_native(
        "mc80", scale=NSCALE, scheme=SchemeSpec.victima(), kernel=k),
    "native-warmup0-baseline": lambda nt, vt, k: run_native(
        "mc80", cfg.BASELINE, scale=Scale(6_000, 0, 7), kernel=k),
    "streak-native-asap": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, config=cfg.P1_P2, kernel=k),
    "streak-native-baseline": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, kernel=k),
    "streak-native-clustered": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, clustered=True, kernel=k),
    "streak-native-coloc": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, coloc=True, kernel=k),
    "streak-native-infinite": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, infinite=True, kernel=k),
    "streak-native-nocollect": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, collect=False, kernel=k),
    "streak-native-revelator": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, scheme=SchemeSpec.revelator(), kernel=k),
    "streak-native-victima": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1000, scheme=SchemeSpec.victima(), kernel=k),
    "streak-native-warmup-mid": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1001, kernel=k),
    "streak-native-warmup-mid2": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 1003, kernel=k),
    "streak-native-warmup0": lambda nt, vt, k: run_native_trace(
        _streaky(nt), 0, kernel=k),
    "streak-virt-asap": lambda nt, vt, k: run_virt_trace(
        _vstreaky(vt), 800, config=cfg.FULL_2D, kernel=k),
    "streak-virt-baseline": lambda nt, vt, k: run_virt_trace(
        _vstreaky(vt), 800, kernel=k),
    "streak-virt-coloc": lambda nt, vt, k: run_virt_trace(
        _vstreaky(vt), 800, coloc=True, kernel=k),
    "streak-virt-revelator": lambda nt, vt, k: run_virt_trace(
        _vstreaky(vt), 800, scheme=SchemeSpec.revelator(), kernel=k),
    "streak-virt-warmup-mid": lambda nt, vt, k: run_virt_trace(
        _vstreaky(vt), 801, kernel=k),
    "tiny-native-1rec": lambda nt, vt, k: run_native_trace(
        nt[:1], 0, kernel=k),
    "tiny-native-3rec-samepage": lambda nt, vt, k: run_native_trace(
        np.repeat(nt[:1], 3), 0, kernel=k),
    "tiny-native-run-to-end": lambda nt, vt, k: run_native_trace(
        np.repeat(nt[:10], 600), 1000, kernel=k),
    "virt-asap": lambda nt, vt, k: run_virtualized(
        "mc80", cfg.FULL_2D, scale=VSCALE, kernel=k),
    "virt-baseline": lambda nt, vt, k: run_virtualized(
        "mc80", cfg.BASELINE, scale=VSCALE, kernel=k),
    "virt-coloc-baseline": lambda nt, vt, k: run_virtualized(
        "mc80", cfg.BASELINE, colocated=True, scale=VSCALE, kernel=k),
    "virt-infinite-baseline": lambda nt, vt, k: run_virtualized(
        "mc80", cfg.BASELINE, infinite_tlb=True, scale=VSCALE, kernel=k),
    "virt-revelator": lambda nt, vt, k: run_virtualized(
        "mc80", scale=VSCALE, scheme=SchemeSpec.revelator(), kernel=k),
    "virt-victima": lambda nt, vt, k: run_virtualized(
        "mc80", scale=VSCALE, scheme=SchemeSpec.victima(), kernel=k),
}


#: The kernel mode each scenario's ``simulate`` spans name under
#: ``kernel="columnar"``: a compiled mode, or ``scalar`` for the
#: documented fallbacks (clustered and infinite TLBs, 5-level tables).
COLUMNAR_MODES = {
    "allsame-native": "plain",
    "native-5level-baseline": "scalar",
    "native-asap": "asap",
    "native-baseline": "plain",
    "native-bfs-asap": "asap",
    "native-clustered-asap": "scalar",
    "native-clustered-baseline": "scalar",
    "native-coloc-asap": "asap",
    "native-coloc-baseline": "plain",
    "native-coloc-victima": "victima",
    "native-infinite-baseline": "scalar",
    "native-mcf-baseline": "plain",
    "native-revelator": "revelator",
    "native-victima": "victima",
    "native-warmup0-baseline": "plain",
    "streak-native-asap": "asap",
    "streak-native-baseline": "plain",
    "streak-native-clustered": "scalar",
    "streak-native-coloc": "plain",
    "streak-native-infinite": "scalar",
    "streak-native-nocollect": "plain",
    "streak-native-revelator": "revelator",
    "streak-native-victima": "victima",
    "streak-native-warmup-mid": "plain",
    "streak-native-warmup-mid2": "plain",
    "streak-native-warmup0": "plain",
    "streak-virt-asap": "asap",
    "streak-virt-baseline": "plain",
    "streak-virt-coloc": "plain",
    "streak-virt-revelator": "revelator",
    "streak-virt-warmup-mid": "plain",
    "tiny-native-1rec": "plain",
    "tiny-native-3rec-samepage": "plain",
    "tiny-native-run-to-end": "plain",
    "virt-asap": "asap",
    "virt-baseline": "plain",
    "virt-coloc-baseline": "plain",
    "virt-infinite-baseline": "scalar",
    "virt-revelator": "revelator",
    "virt-victima": "victima",
}


class TestColumnarGoldenParity:
    """The columnar chunk kernel against the same pinned goldens.

    The goldens above are the scalar oracle; every scenario — engaged
    C kernel and documented scalar fallbacks alike — must land on the
    identical numbers under ``kernel="columnar"``, in the mode
    ``COLUMNAR_MODES`` pins, so a silent fallback cannot compare the
    scalar loop with itself.  Without a compiled backend a case skips
    (the scalar cells above still pin its golden); with
    ``REPRO_REQUIRE_CCORE=1`` already set, as in CI's columnar job, the
    availability check raises instead."""

    def test_covers_every_golden(self):
        assert set(COLUMNAR_SCENARIOS) == set(GOLDEN) == set(COLUMNAR_MODES)

    @pytest.mark.parametrize("tag", sorted(GOLDEN))
    def test_matches_golden(self, tag, ntrace, vtrace, monkeypatch):
        if not columnar.columnar_available():
            pytest.skip("no C compiler/cffi for the columnar backend")
        monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
        with capture() as recorder:
            stats = COLUMNAR_SCENARIOS[tag](ntrace, vtrace, "columnar")
        modes = {event["args"]["kernel"] for event in recorder.events
                 if event["type"] == "B" and event["name"] == "simulate"}
        assert modes == {COLUMNAR_MODES[tag]}, tag
        _assert_golden(tag, stats)


# ----------------------------------------------------------------------
# degenerate geometries, pinned for both kernels
# ----------------------------------------------------------------------
DEGENERATE_GOLDEN = {
    "degenerate-native-allmiss": (
        (3678, 1446170, 7356, 702498, 736316, 3678, 0, 0, 0, 0, 0),
        (),
    ),
    "degenerate-native-1set-tlb": (
        (2000, 550201, 4000, 259515, 286686, 1963, 7, 30, 0, 0, 0),
        (),
    ),
}


class TestDegenerateGoldens:
    """Length-1 traces, all-miss traces and single-set TLBs: the edge
    geometries where off-by-ones in set masking, warmup handling or LRU
    guard slots would surface first.  Pinned for both kernels."""

    def _assert_degenerate(self, tag, stats):
        got = (tuple(int(getattr(stats, field)) for field in FIELDS),
               tuple(sorted(stats.scheme_stats.items())))
        assert got == DEGENERATE_GOLDEN[tag], (
            f"{tag}: {dict(zip(FIELDS, got[0]))}")

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_length_one_trace(self, ntrace, kernel):
        _assert_golden("tiny-native-1rec",
                       run_native_trace(ntrace[:1], 0, kernel=kernel))

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_all_miss_trace(self, ntrace, kernel):
        # Every record touches a distinct page exactly once: no run
        # batching, no TLB reuse — every access walks.
        pages = np.unique(ntrace >> 12)
        trace = (pages << 12).astype(np.int64)
        self._assert_degenerate(
            "degenerate-native-allmiss",
            run_native_trace(trace, 0, kernel=kernel))

    @pytest.mark.parametrize("kernel", ("scalar", "columnar"))
    def test_single_set_tlb(self, ntrace, kernel):
        machine = dataclasses.replace(
            DEFAULT_MACHINE,
            tlb=TlbHierarchyParams(l1=TlbParams(entries=4, ways=4),
                                   l2=TlbParams(entries=16, ways=16)))
        self._assert_degenerate(
            "degenerate-native-1set-tlb",
            run_native_trace(ntrace[:2500], 500, kernel=kernel,
                             machine=machine))
