"""The translation-scheme subsystem: specs, parity, behaviour, compare.

The golden-value classes pin the refactor's central promise: routing
baseline and ASAP through the ``TranslationScheme`` interface produces
**byte-identical** ``SimStats`` to the pre-scheme simulators.  The
golden numbers below were captured from the dispatch code as it stood
before `repro.schemes` existed (same workloads, same scales, same
seeds); any drift here means the hot path changed behaviour.
"""

import pytest

from repro.core import config as cfg
from repro.experiments import compare
from repro.runtime import NATIVE, PT_INVENTORY, VIRTUALIZED, Engine, Job
from repro.schemes import (
    AsapScheme,
    BaselineRadix,
    RevelatorLike,
    SchemeSpec,
    VictimaLike,
    build_scheme,
)
from repro.sim.runner import Scale, run_native, run_virtualized

NSCALE = Scale(trace_length=6_000, warmup=1_000, seed=7)
VSCALE = Scale(trace_length=4_000, warmup=800, seed=7)

#: SimStats fields checked against the pre-refactor goldens.
FIELDS = ("accesses", "cycles", "base_cycles", "data_cycles",
          "walk_cycles", "walks", "tlb_l1_hits", "tlb_l2_hits",
          "prefetches_issued", "prefetches_useful", "prefetches_dropped")

#: Captured from the pre-scheme simulators (see module docstring).
GOLDEN = {
    "native-baseline": (5000, 1172312, 10000, 576554, 585758, 3610,
                        168, 1222, 0, 0, 0),
    "native-asap": (5000, 1075029, 10000, 576302, 488727, 3610,
                    168, 1222, 8752, 8752, 0),
    "native-coloc-asap": (5000, 1136855, 10000, 615594, 511261, 3610,
                          168, 1222, 8752, 8752, 0),
    "virt-baseline": (3200, 984727, 6400, 389136, 589191, 2328,
                      115, 757, 0, 0, 0),
    "virt-full": (3200, 878143, 6400, 389464, 482279, 2328,
                  115, 757, 25618, 25618, 0),
}


def _assert_golden(tag, stats):
    got = tuple(getattr(stats, field) for field in FIELDS)
    assert got == GOLDEN[tag], (
        f"{tag}: scheme-dispatch stats drifted from the pre-refactor "
        f"simulators: {dict(zip(FIELDS, got))}")


class TestGoldenParity:
    def test_native_baseline(self):
        _assert_golden("native-baseline",
                       run_native("mc80", cfg.BASELINE, scale=NSCALE))

    def test_native_asap(self):
        _assert_golden("native-asap",
                       run_native("mc80", cfg.P1_P2, scale=NSCALE))

    def test_native_colocated_asap(self):
        _assert_golden("native-coloc-asap",
                       run_native("mc80", cfg.P1_P2, colocated=True,
                                  scale=NSCALE))

    def test_virtualized_baseline(self):
        _assert_golden("virt-baseline",
                       run_virtualized("mc80", cfg.BASELINE, scale=VSCALE))

    def test_virtualized_full_2d(self):
        _assert_golden("virt-full",
                       run_virtualized("mc80", cfg.FULL_2D, scale=VSCALE))

    def test_explicit_spec_equals_derived(self):
        derived = run_native("mc80", cfg.P1_P2, scale=NSCALE)
        explicit = run_native("mc80", cfg.P1_P2, scale=NSCALE,
                              scheme=SchemeSpec(kind="asap"))
        assert derived.cycles == explicit.cycles
        assert derived.walk_cycles == explicit.walk_cycles


class TestSchemeSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="oracle")

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            SchemeSpec.revelator(coverage=1.5)

    def test_params_are_canonically_sorted(self):
        a = SchemeSpec(kind="revelator", params=(("b", 2), ("a", 1)))
        b = SchemeSpec(kind="revelator", params=(("a", 1), ("b", 2)))
        assert a == b
        assert a.payload() == b.payload()

    def test_for_config(self):
        assert SchemeSpec.for_config(cfg.BASELINE).kind == "baseline"
        assert SchemeSpec.for_config(cfg.P1_P2).kind == "asap"

    def test_build_scheme_dispatch(self):
        assert isinstance(build_scheme(None, cfg.P1_P2), AsapScheme)
        assert isinstance(build_scheme(None, cfg.BASELINE), BaselineRadix)
        assert isinstance(build_scheme(SchemeSpec.victima()), VictimaLike)
        assert isinstance(build_scheme(SchemeSpec.revelator()),
                          RevelatorLike)

    def test_build_scheme_rejects_config_mismatch(self):
        with pytest.raises(ValueError):
            build_scheme(SchemeSpec.victima(), cfg.P1_P2)

    def test_baseline_scheme_opts_out_of_every_hook(self):
        scheme = build_scheme(None, cfg.BASELINE)
        assert scheme.probe_hook() is None
        assert scheme.walk_start_hook() is None
        assert scheme.walk_end_hook() is None


class TestJobIntegration:
    def test_scheme_is_derived_from_config(self):
        assert Job(kind=NATIVE, workload="mcf").scheme.kind == "baseline"
        assert Job(kind=NATIVE, workload="mcf",
                   config=cfg.P1_P2).scheme.kind == "asap"

    def test_rejects_asap_scheme_without_ladder(self):
        with pytest.raises(ValueError):
            Job(kind=NATIVE, workload="mcf",
                scheme=SchemeSpec(kind="asap"))

    def test_rejects_ladder_on_non_asap_scheme(self):
        with pytest.raises(ValueError):
            Job(kind=NATIVE, workload="mcf", config=cfg.P1_P2,
                scheme=SchemeSpec.victima())

    def test_rejects_uncomposable_tlb_variants(self):
        with pytest.raises(ValueError):
            Job(kind=NATIVE, workload="mcf",
                scheme=SchemeSpec.victima(), infinite_tlb=True)
        with pytest.raises(ValueError):
            Job(kind=NATIVE, workload="mcf",
                scheme=SchemeSpec.revelator(), clustered_tlb=True)

    def test_pt_inventory_rejects_schemes(self):
        with pytest.raises(ValueError):
            Job(kind=PT_INVENTORY, workload="mcf",
                scheme=SchemeSpec.victima())

    def test_spec_hash_distinguishes_schemes(self):
        base = Job(kind=NATIVE, workload="mcf")
        vic = Job(kind=NATIVE, workload="mcf",
                  scheme=SchemeSpec.victima())
        rev = Job(kind=NATIVE, workload="mcf",
                  scheme=SchemeSpec.revelator())
        assert len({base.spec_hash(), vic.spec_hash(),
                    rev.spec_hash()}) == 3

    def test_label_shows_non_default_schemes(self):
        job = Job(kind=NATIVE, workload="mcf",
                  scheme=SchemeSpec.victima())
        assert "victima" in job.label()


SMALL = Scale(trace_length=5_000, warmup=1_000, seed=7)


class TestVictima:
    def test_parks_probes_and_avoids_walks(self):
        base = run_native("mc80", scale=SMALL)
        vic = run_native("mc80", scale=SMALL, scheme=SchemeSpec.victima())
        assert vic.scheme_stats["parked"] > 0
        assert vic.scheme_stats["probe_hits"] > 0
        assert vic.walks < base.walks  # extended translation reach

    def test_probe_hits_are_cheap(self):
        base = run_native("mc80", scale=SMALL)
        vic = run_native("mc80", scale=SMALL, scheme=SchemeSpec.victima())
        # A probe hit costs L2 latency (12cy) instead of a walk, so
        # total translation cycles must stay in the baseline's
        # neighbourhood even though parked lines pollute the caches.
        assert vic.walk_cycles < 1.05 * base.walk_cycles
        # And per *avoided walk* the translation got cheaper: the same
        # translation demand is served with materially fewer walks.
        assert vic.walks <= base.walks - 100

    def test_deterministic(self):
        a = run_native("mc80", scale=SMALL, scheme=SchemeSpec.victima())
        b = run_native("mc80", scale=SMALL, scheme=SchemeSpec.victima())
        assert a.cycles == b.cycles
        assert a.scheme_stats == b.scheme_stats

    def test_virtualized_mode(self):
        vic = run_virtualized("mcf", scale=VSCALE,
                              scheme=SchemeSpec.victima())
        assert vic.scheme_stats["parked"] > 0

    def test_rejects_clustered_tlb(self):
        with pytest.raises(ValueError):
            run_native("mcf", scale=SMALL, clustered_tlb=True,
                       scheme=SchemeSpec.victima())


class TestRevelator:
    def test_speculation_hides_translation_latency(self):
        base = run_native("mc80", scale=SMALL)
        rev = run_native("mc80", scale=SMALL,
                         scheme=SchemeSpec.revelator())
        # The verification walk always runs (same walk count)...
        assert rev.walks == base.walks
        # ...but correct speculations keep it off the critical path.
        assert rev.walk_cycles < base.walk_cycles
        stats = rev.scheme_stats
        assert stats["correct"] + stats["mispredicts"] \
            == stats["speculations"]
        assert stats["correct"] > stats["mispredicts"]

    def test_zero_coverage_only_penalises(self):
        base = run_native("mc80", scale=SMALL)
        rev = run_native("mc80", scale=SMALL,
                         scheme=SchemeSpec.revelator(coverage=0.0))
        assert rev.scheme_stats["correct"] == 0
        # Every miss now pays walk + squash penalty.
        assert rev.walk_cycles > base.walk_cycles

    def test_coverage_tracks_lottery(self):
        rev = run_native("mc80", scale=SMALL,
                         scheme=SchemeSpec.revelator(coverage=0.85))
        stats = rev.scheme_stats
        hit_rate = stats["correct"] / stats["speculations"]
        assert 0.75 < hit_rate < 0.95

    def test_virtualized_mode(self):
        base = run_virtualized("mcf", scale=VSCALE)
        rev = run_virtualized("mcf", scale=VSCALE,
                              scheme=SchemeSpec.revelator())
        assert rev.walk_cycles < base.walk_cycles


class TestCompareExperiment:
    ROSTER = ["baseline", "asap", "victima", "revelator"]
    TINY = Scale(trace_length=2_000, warmup=400, seed=13)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            compare.jobs(self.TINY, schemes=["baseline", "oracle"])

    def test_jobs_cover_roster_and_modes(self):
        jobs = compare.jobs(self.TINY)
        kinds = {job.kind for job in jobs}
        assert kinds == {NATIVE, VIRTUALIZED}
        schemes = {job.scheme.kind for job in jobs}
        assert schemes == {"baseline", "asap", "victima", "revelator"}

    def test_serial_vs_parallel_identity(self, monkeypatch):
        # The acceptance property for `repro compare`: --jobs 4 renders
        # byte-identical tables to serial.  Two workloads keep the grid
        # small; every scheme and both modes stay covered.
        monkeypatch.setattr(compare, "ALL_NAMES", ("mcf", "canneal"))
        serial = [t.render() for t in
                  compare.run(self.TINY, Engine(jobs=1),
                              schemes=self.ROSTER, seeds=1)]
        parallel = [t.render() for t in
                    compare.run(self.TINY, Engine(jobs=4),
                                schemes=self.ROSTER, seeds=1)]
        assert serial == parallel

    def test_ranking_table_shape(self, monkeypatch):
        monkeypatch.setattr(compare, "ALL_NAMES", ("mcf",))
        ranking, native, virt = compare.run(
            self.TINY, Engine(jobs=1), schemes=["baseline", "revelator"],
            seeds=1)
        assert [row["scheme"] for row in ranking.rows] \
            == sorted(("baseline", "revelator"),
                      key=lambda n: ranking.row_by("scheme", n)["mean_%"])
        assert [row["rank"] for row in ranking.rows] == [1, 2]
        for table in (native, virt):
            assert table.rows[-1]["workload"] == "Average"
