"""Smoke + shape tests for the experiment modules (tiny scale).

These verify that every table/figure module runs end to end and produces
the paper's qualitative shape; the benchmarks assert the same at a larger
scale.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
    table2,
    table6,
)
from repro.experiments.common import ExperimentTable, mean, reduction
from repro.runtime.job import PT_INVENTORY, Job, execute_job
from repro.sim.runner import Scale
from repro.workloads.suite import ALL_NAMES

TINY = Scale(trace_length=3_000, warmup=600, seed=13)


class TestCommon:
    def test_reduction(self):
        assert reduction(100, 80) == pytest.approx(20.0)
        assert reduction(0, 10) == 0.0

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_table_render_and_accessors(self):
        table = ExperimentTable(title="T", columns=["a", "b"])
        table.add_row(a="x", b=1.5)
        table.add_row(a="y", b=2)
        text = table.render()
        assert "T" in text and "1.50" in text
        assert table.column("b") == [1.5, 2]
        assert table.row_by("a", "y")["b"] == 2
        with pytest.raises(KeyError):
            table.row_by("a", "zzz")


class TestTable2:
    def test_structure_and_shape(self):
        table = table2.run(TINY)
        assert len(table.rows) == 7
        for row in table.rows:
            assert row["vmas_for_99pct"] <= row["total_vmas"]
            assert row["pt_page_count"] > row["contig_phys_regions"]

    def test_inventory_matches_golden_bytes(self):
        """Every workload's inventory at seeds 42 and 7, pinned byte for
        byte: the PT frames behind it come from populate's bulk replay
        of the buddy allocator."""
        golden = Path(__file__).parent / "goldens" / "table2_inventory.json"
        inventory = {
            str(seed): {
                name: execute_job(Job(kind=PT_INVENTORY, workload=name,
                                      scale=Scale(seed=seed)))
                for name in ALL_NAMES}
            for seed in (42, 7)}
        text = json.dumps(inventory, indent=2, sort_keys=True) + "\n"
        assert text == golden.read_text()

    def test_pt_pages_track_footprint(self):
        table = table2.run(TINY)
        mc80 = table.row_by("application", "mc80")
        mc400 = table.row_by("application", "mc400")
        assert 4 < mc400["pt_page_count"] / mc80["pt_page_count"] < 6


class TestTable1:
    def test_orderings(self):
        table = table1.run(TINY)
        norm = {row["scenario"]: row["normalised"] for row in table.rows}
        assert norm["native 80GB (reference)"] == pytest.approx(1.0)
        assert norm["virtualization"] > 1.2
        assert (norm["virtualization + SMT colocation"]
                >= norm["virtualization"])


class TestFig2Fig3:
    def test_fig2_fractions_bounded(self):
        table = fig2.run(TINY)
        for row in table.rows:
            for column in table.columns[1:]:
                assert 0 <= row[column] <= 100

    def test_fig3_virtualization_dominates(self):
        table = fig3.run(TINY)
        avg = table.row_by("workload", "Average")
        assert avg["virtualized"] > avg["native"]


class TestFig8:
    def test_asap_always_helps(self):
        isolation, colocation = fig8.run(TINY)
        for table in (isolation, colocation):
            for row in table.rows:
                assert row["P1"] <= row["Baseline"]
                assert row["P1+P2"] <= row["P1"] * 1.05


class TestFig9:
    def test_four_panels_with_full_rows(self):
        panels = fig9.run(TINY)
        assert len(panels) == 4
        for panel in panels:
            for row in panel.rows:
                total = sum(row[c] for c in panel.columns[1:])
                assert total == pytest.approx(100.0, abs=0.1)


class TestFig10:
    def test_ladder_monotone_on_average(self):
        isolation, _ = fig10.run(TINY)
        avg = isolation.row_by("workload", "Average")
        assert avg["P1g+P1h+P2g+P2h"] < avg["Baseline"]
        assert avg["P1g"] < avg["Baseline"]


class TestTable6:
    def test_improvement_is_product(self):
        table = table6.run(TINY)
        for row in table.rows[:-1]:
            expected = (row["critical_path_%"]
                        * row["asap_reduction_%"] / 100.0)
            assert row["min_improvement_%"] == pytest.approx(expected)


class TestFig11:
    def test_combination_at_least_asap(self):
        fig, tab7 = fig11.run(TINY)
        avg = fig.row_by("workload", "Average")
        assert avg["Clustered+ASAP_%"] >= avg["ASAP_%"] - 2.0
        assert len(tab7.rows) == 8  # 7 workloads + average


class TestFig12:
    def test_asap_helps_with_large_host_pages(self):
        table = fig12.run(TINY)
        avg = table.row_by("workload", "Average")
        assert avg["ASAP"] < avg["Baseline"]


class TestAblations:
    def test_pwc_scaling_buys_little(self):
        table = ablations.run_pwc_scaling(TINY)
        avg = table.row_by("workload", "Average")
        assert avg["red_%"] < 15.0

    def test_five_level_recovers(self):
        table = ablations.run_five_level(TINY)
        for row in table.rows:
            assert row["5L_P1+P2+P3"] < row["5L_base"]

    def test_holes_degrade_gracefully(self):
        table = ablations.run_holes(TINY)
        useful = [row["useful_prefetch_%"] for row in table.rows]
        assert useful[0] > useful[-1]


class TestMultiTenant:
    @pytest.fixture(scope="class")
    def tables(self):
        from repro.experiments import mt
        # seeds=1: the replicate axis has its own tests
        # (test_replication); this class checks table shape cheaply.
        return mt.run(Scale(trace_length=1_500, warmup=300, seed=13),
                      seeds=1)

    def test_structure(self, tables):
        native, virt, retention = tables
        assert native.columns[0] == "scenario"
        assert [row["scenario"] for row in native.rows][0] == "isolated"
        # 1 isolated row + tenants x quanta x policies grid rows.
        assert len(native.rows) == 1 + 2 * 2 * 2
        assert len(virt.rows) == 1 + 1 * 1 * 2
        assert {row["scheme"] for row in retention.rows} \
            == {"baseline", "asap", "victima", "revelator"}

    def test_fractions_bounded(self, tables):
        native, virt, _ = tables
        for table in (native, virt):
            for row in table.rows:
                for key, value in row.items():
                    if key != "scenario":
                        assert 0.0 <= value <= 100.0

    def test_consolidation_raises_translation_pressure(self, tables):
        native, _, _ = tables
        isolated = native.row_by("scenario", "isolated")
        consolidated = [row for row in native.rows
                        if row["scenario"] != "isolated"]
        for name in ("baseline", "asap"):
            worst = max(row[name] for row in consolidated)
            assert worst > isolated[name]

    def test_retention_never_loses_badly(self, tables):
        """ASID retention's delta over flushing may be small but must
        not be a regression beyond noise."""
        _, _, retention = tables
        for row in retention.rows:
            assert row["native_mean"] > -1.0

    def test_cells_shared_with_compare(self):
        from repro.experiments import compare, mt
        scale = Scale(trace_length=1_500, warmup=300, seed=13)
        shared = set(mt.jobs(scale, seeds=1)) \
            & set(compare.jobs(scale, seeds=1))
        # Every single-tenant reference cell is value-equal to a
        # compare cell, so a sweep executes them once for both.
        assert len(shared) >= 16
