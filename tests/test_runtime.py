"""Tests for the parallel experiment runtime (repro.runtime).

Covers the acceptance-critical properties: job specs hash stably, the
cache hits/misses/invalidates correctly, parallel execution is
byte-identical to serial, and the ``repro sweep`` CLI runs end to end.
"""

import pickle

import pytest

from repro.cli import main
from repro.core.config import BASELINE, P1_P2
from repro.experiments import fig8, report, table2
from repro.runtime import (
    NATIVE,
    PT_INVENTORY,
    VIRTUALIZED,
    Engine,
    Job,
    ResultCache,
    Sweep,
    code_version,
    execute_job,
)
from repro.runtime.cache import package_sources, simulation_sources
from repro.sim.runner import Scale, run_native

TINY = Scale(trace_length=2_000, warmup=400, seed=13)

#: Package-relative paths that ``code_version()`` hashes.
SIMULATION_SOURCES = [
    "__init__.py",
    "core/__init__.py", "core/config.py", "core/prefetcher.py",
    "core/range_registers.py",
    "kernelsim/__init__.py", "kernelsim/buddy.py", "kernelsim/hypervisor.py",
    "kernelsim/phys.py", "kernelsim/process.py", "kernelsim/pt_layout.py",
    "kernelsim/vma.py",
    "mem/__init__.py", "mem/cache.py", "mem/hierarchy.py", "mem/mshr.py",
    "obs/__init__.py", "obs/events.py", "obs/probe.py",
    "pagetable/__init__.py", "pagetable/constants.py", "pagetable/nested.py",
    "pagetable/pwc.py", "pagetable/radix.py", "pagetable/walker.py",
    "params.py",
    "runtime/__init__.py", "runtime/cache.py", "runtime/engine.py",
    "runtime/job.py", "runtime/progress.py", "runtime/sweep.py",
    "schemes/__init__.py", "schemes/asap.py", "schemes/base.py",
    "schemes/baseline.py", "schemes/revelator.py", "schemes/victima.py",
    "sim/__init__.py", "sim/columnar.py", "sim/multitenant.py",
    "sim/order.py", "sim/runner.py", "sim/simulator.py", "sim/stats.py",
    "sim/virt.py",
    "stats/__init__.py", "stats/kernels.py", "stats/rng.py",
    "stats/tables.py",
    "tlb/__init__.py", "tlb/clustered.py", "tlb/hierarchy.py", "tlb/tlb.py",
    "traces/__init__.py", "traces/share.py", "traces/source.py",
    "traces/store.py", "traces/stream.py",
    "workloads/__init__.py", "workloads/base.py", "workloads/corunner.py",
    "workloads/generators.py", "workloads/graph.py", "workloads/suite.py",
]


def _job(**overrides) -> Job:
    spec = dict(kind=NATIVE, workload="mcf", config=BASELINE, scale=TINY)
    spec.update(overrides)
    return Job(**spec)


class TestJob:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Job(kind="bogus", workload="mcf")

    def test_rejects_knobs_the_executor_would_ignore(self):
        with pytest.raises(ValueError):
            Job(kind=VIRTUALIZED, workload="mcf", clustered_tlb=True)
        with pytest.raises(ValueError):
            Job(kind=VIRTUALIZED, workload="mcf", pt_levels=5)
        with pytest.raises(ValueError):
            Job(kind=NATIVE, workload="mcf", host_page_level=2)
        with pytest.raises(ValueError):  # holes need an ASAP layout
            Job(kind=NATIVE, workload="mcf", config=BASELINE,
                hole_rate=0.2)
        with pytest.raises(ValueError):
            Job(kind=PT_INVENTORY, workload="mcf", colocated=True)
        with pytest.raises(ValueError):
            Job(kind=PT_INVENTORY, workload="mcf", config=P1_P2)

    def test_spec_hash_stable_and_sensitive(self):
        assert _job().spec_hash() == _job().spec_hash()
        assert _job().spec_hash() != _job(colocated=True).spec_hash()
        assert _job().spec_hash() != _job(config=P1_P2).spec_hash()
        assert (_job().spec_hash()
                != _job(scale=Scale(2_000, 400, 14)).spec_hash())

    def test_equal_specs_dedupe(self):
        sweep = Sweep.build("s", [_job(), _job(colocated=True)], [_job()])
        assert len(sweep) == 3
        assert len(sweep.unique_jobs()) == 2
        assert sweep.duplicates == 1

    def test_label_mentions_knobs(self):
        label = _job(clustered_tlb=True, pt_levels=5).label()
        assert "mcf" in label and "ctlb" in label and "5L" in label

    def test_execute_matches_direct_runner(self):
        via_job = execute_job(_job(config=P1_P2))
        direct = run_native("mcf", P1_P2, scale=TINY,
                            collect_service=False)
        assert via_job.walk_cycles == direct.walk_cycles
        assert via_job.prefetches_issued == direct.prefetches_issued

    def test_pt_inventory_kind(self):
        inventory = execute_job(Job(kind=PT_INVENTORY, workload="mcf",
                                    scale=TINY))
        assert inventory["vmas_for_99pct"] <= inventory["total_vmas"]
        assert inventory["pt_page_count"] > 0

    def test_stats_pickle_roundtrip(self):
        stats = execute_job(_job(collect_service=True))
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.walk_cycles == stats.walk_cycles
        assert clone.service.fractions(1) == stats.service.fractions(1)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        engine = Engine(jobs=1, cache=ResultCache(tmp_path))
        first = engine.run_jobs([_job()])
        assert engine.last_report.executed == 1
        assert engine.last_report.cache_hits == 0
        second = engine.run_jobs([_job()])
        assert engine.last_report.executed == 0
        assert engine.last_report.cache_hits == 1
        assert second[_job()].walk_cycles == first[_job()].walk_cycles

    def test_code_version_invalidates(self, tmp_path):
        warm = Engine(jobs=1, cache=ResultCache(tmp_path, version="v1"))
        warm.run_jobs([_job()])
        other = Engine(jobs=1, cache=ResultCache(tmp_path, version="v2"))
        other.run_jobs([_job()])
        assert other.last_report.executed == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = Engine(jobs=1, cache=cache)
        engine.run_jobs([_job()])
        cache._path(_job()).write_bytes(b"not a pickle")
        engine.run_jobs([_job()])
        assert engine.last_report.executed == 1

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)

    def test_code_version_hashes_the_job_import_closure(self):
        # Pinned on purpose: a new import edge into (or out of) the
        # closure of repro.runtime.job changes which edits invalidate
        # every cached result, so it should be a reviewed change.
        sources = simulation_sources()
        assert sources == SIMULATION_SOURCES
        for inside in ("sim/simulator.py", "sim/columnar.py",
                       "runtime/job.py"):
            assert inside in sources
        for outside in ("cli.py", "validation.py", "experiments/report.py"):
            assert outside not in sources

    def test_package_version_hashes_every_source(self):
        # The incremental reporter's section signatures hash these: the
        # code that turns cached cells into tables lies outside the
        # simulation closure.
        sources = package_sources()
        assert set(simulation_sources()) < set(sources)
        for path in ("experiments/table6.py", "experiments/common.py",
                     "experiments/incremental.py", "stats/tables.py"):
            assert path in sources


class TestEngine:
    def test_map_preserves_order(self):
        jobs = [_job(), _job(config=P1_P2)]
        base, asap = Engine(jobs=1).map(jobs)
        assert asap.avg_walk_latency < base.avg_walk_latency

    def test_dedup_executes_once(self):
        engine = Engine(jobs=1)
        engine.run_jobs([_job(), _job(), _job()])
        assert engine.last_report.executed == 1
        assert engine.last_report.deduplicated == 2

    def test_parallel_identical_to_serial(self):
        jobs = [
            _job(),
            _job(config=P1_P2),
            _job(kind=VIRTUALIZED),
            Job(kind=PT_INVENTORY, workload="mcf", scale=TINY),
        ]
        serial = Engine(jobs=1).run_jobs(jobs)
        parallel = Engine(jobs=4).run_jobs(jobs)
        for job in jobs[:3]:
            assert parallel[job].walk_cycles == serial[job].walk_cycles
            assert parallel[job].cycles == serial[job].cycles
        assert parallel[jobs[3]] == serial[jobs[3]]

    def test_experiment_tables_identical_serial_vs_parallel(self):
        serial = [t.render() for t in fig8.run(TINY, Engine(jobs=1))]
        parallel = [t.render() for t in fig8.run(TINY, Engine(jobs=4))]
        assert serial == parallel

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)


class TestSweepReport:
    def test_counters_and_summary(self, tmp_path):
        engine = Engine(jobs=1, cache=ResultCache(tmp_path))
        engine.run_jobs([_job()])
        engine.run_jobs([_job(), _job(), _job(config=P1_P2)])
        rep = engine.last_report
        assert rep.cache_hits == 1
        assert rep.executed == 1
        assert rep.deduplicated == 1
        assert "1 cached" in rep.summary()
        assert rep.slowest()[0].job == _job(config=P1_P2)


class TestReportSweep:
    def test_sweep_jobs_deduplicates_across_experiments(self):
        sweep = report.sweep_jobs(TINY)
        assert len(sweep) > len(sweep.unique_jobs())

    def test_select_unknown_raises(self):
        with pytest.raises(ValueError):
            report.sweep_jobs(TINY, only=["fig99"])

    def test_table2_via_sweep_matches_run(self):
        engine = Engine(jobs=1)
        results = engine.run_jobs(table2.jobs(TINY))
        assert (table2.tables(results, TINY).render()
                == table2.run(TINY).render())


class TestSweepCli:
    def test_sweep_smoke(self, tmp_path, capsys):
        code = main(["sweep", "--only", "table2", "--trace-length", "2000",
                     "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "[sweep]" in out

    def test_sweep_cached_rerun(self, tmp_path, capsys):
        argv = ["sweep", "--only", "table2", "--trace-length", "2000",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "7 cached" in second
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "--only", "fig99", "--no-cache"]) == 2
