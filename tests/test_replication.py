"""The replicate axis and its compatibility contract.

Two goldens captured *before* the statistics layer existed pin the
contract that makes replication free to adopt: with ``seeds=1`` every
experiment renders byte-identically to the pre-statistics code, and
every replicate-0 job's spec hash — the cache key — is unchanged, so
years of cached results and the CI determinism corpus stay valid.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import compare, fig3, mt, scaling
from repro.experiments.common import (
    DEFAULT_SCALE,
    REPORT_SEEDS,
    replicates,
)
from repro.runtime.engine import Engine
from repro.sim.runner import Scale
from repro.stats.tables import Cell

GOLDENS = Path(__file__).parent / "goldens"

TINY = Scale(trace_length=3_000, warmup=600, seed=13)
MT_TINY = Scale(trace_length=1_500, warmup=300, seed=13)
SCALING_TINY = Scale(trace_length=1_200, warmup=240, seed=13)


class TestWithReplicate:
    def test_replicate_zero_is_identity(self):
        scale = Scale(1_000, 200, 7)
        assert scale.with_replicate(0) is scale

    def test_derived_seeds_deterministic_and_distinct(self):
        scale = Scale(1_000, 200, 7)
        reps = [scale.with_replicate(r) for r in range(1, 6)]
        seeds = [rep.seed for rep in reps]
        assert len(set(seeds)) == 5
        assert all(seed != scale.seed for seed in seeds)
        assert seeds == [scale.with_replicate(r).seed
                         for r in range(1, 6)]
        for r, rep in zip(range(1, 6), reps):
            assert rep.replicate == r
            assert (rep.trace_length, rep.warmup) == (1_000, 200)

    def test_replicates_of_different_bases_differ(self):
        a = Scale(1_000, 200, 7).with_replicate(1)
        b = Scale(1_000, 200, 8).with_replicate(1)
        assert a.seed != b.seed

    def test_non_base_scale_rejects_replication(self):
        rep = Scale(1_000, 200, 7).with_replicate(2)
        with pytest.raises(ValueError):
            rep.with_replicate(1)

    def test_smaller_preserves_replicate(self):
        rep = Scale(1_000, 200, 7).with_replicate(3)
        small = rep.smaller(2)
        assert small.replicate == 3
        assert small.seed == rep.seed

    def test_replicates_helper(self):
        scale = Scale(1_000, 200, 7)
        reps = replicates(scale, 3)
        assert reps[0] is scale
        assert [rep.replicate for rep in reps] == [0, 1, 2]
        with pytest.raises(ValueError):
            replicates(scale, 0)

    def test_report_default_supports_significance(self):
        # 5-vs-5 Mann-Whitney reaches p = 2/252 < 0.05; three seeds
        # could never mark (min p = 0.1), so the default must be >= 4.
        assert REPORT_SEEDS >= 4


class TestJobIdentity:
    def test_payload_excludes_replicate(self):
        jobs = compare.jobs(TINY, schemes=["baseline"], seeds=2)
        rep1 = next(job for job in jobs if job.scale.replicate == 1)
        assert "replicate" not in json.dumps(rep1.payload())
        assert rep1.label().endswith("rep1")

    def test_replicates_hash_distinctly_via_derived_seed(self):
        jobs = compare.jobs(TINY, schemes=["baseline"], seeds=3)
        hashes = {job.spec_hash() for job in jobs}
        assert len(hashes) == len(jobs)

    def test_job_counts_scale_with_seeds(self):
        base = len(compare.jobs(TINY, seeds=1))
        assert len(compare.jobs(TINY, seeds=3)) == 3 * base
        base_mt = len(mt.jobs(MT_TINY, seeds=1))
        assert len(mt.jobs(MT_TINY, seeds=3)) == 3 * base_mt
        # Scaling replicates only the base rung: two schemes gain one
        # job per extra seed; the 1M/10M-equivalent rungs stay single.
        base_sc = len(scaling.jobs(SCALING_TINY, seeds=1))
        assert len(scaling.jobs(SCALING_TINY, seeds=3)) == base_sc + 2 * 2

    def test_mt_isolated_refs_dedup_with_compare_per_replicate(self):
        shared = set(mt.jobs(MT_TINY, seeds=2)) \
            & set(compare.jobs(MT_TINY, seeds=2))
        assert any(job.scale.replicate == 1 for job in shared)


class TestReplicate0Goldens:
    """seeds=1 must reproduce the pre-statistics output byte-for-byte."""

    def test_spec_hashes_unchanged(self):
        """Every replicate-0 job keeps its spec hash, the cache key.

        The golden was regenerated on purpose for SPEC_VERSION 6, when
        the kernel left the payload (both kernels are byte-identical,
        so it is provenance, like the replicate index).  Its keys, the
        job labels, did not change."""
        hashes = {}
        for scale, tag in ((TINY, "tiny"), (DEFAULT_SCALE, "report")):
            for job in compare.jobs(scale, seeds=1):
                hashes[f"{tag}/compare/{job.label()}"] = job.spec_hash()
        for job in mt.jobs(MT_TINY, seeds=1):
            hashes[f"mt_tiny/mt/{job.label()}"] = job.spec_hash()
        for job in mt.jobs(DEFAULT_SCALE, seeds=1):
            hashes[f"report/mt/{job.label()}"] = job.spec_hash()
        for job in scaling.jobs(SCALING_TINY, seeds=1):
            hashes[f"scaling_tiny/scaling/{job.label()}"] = \
                job.spec_hash()
        for job in scaling.jobs(DEFAULT_SCALE, seeds=1):
            hashes[f"report/scaling/{job.label()}"] = job.spec_hash()
        golden = json.loads(
            (GOLDENS / "replicate0_spec_hashes.json").read_text())
        assert hashes == golden

    def test_tables_byte_identical(self):
        sections = []
        for tables in (compare.run(TINY, seeds=1),
                       mt.run(MT_TINY, seeds=1),
                       (scaling.run(SCALING_TINY, seeds=1),),
                       (fig3.run(TINY),)):
            sections.extend(table.render() for table in tables)
        text = "\n\n".join(sections) + "\n"
        golden = (GOLDENS / "replicate0_tables.txt").read_text()
        assert text == golden


class TestMultiSeedEndToEnd:
    def test_compare_cells_carry_replication(self, monkeypatch):
        monkeypatch.setattr(compare, "ALL_NAMES", ("mcf",))
        micro = Scale(trace_length=800, warmup=160, seed=13)
        ranking, native, virt = compare.run(
            micro, Engine(jobs=1), schemes=["baseline", "asap"],
            seeds=2)
        cell = native.rows[0]["asap"]
        assert isinstance(cell, Cell)
        assert len(cell.samples) == 2
        assert cell.ci is not None
        assert "±" in cell.render()
        # Two seeds cannot reach p < 0.05 (min exact p is 1/3): the
        # interval renders, the marker never fires.
        assert not cell.significant
        baseline_cell = native.rows[0]["baseline"]
        assert baseline_cell.p_value is None  # baseline vs itself
