"""Tests for the run-telemetry subsystem (repro.obs).

Three contracts matter:

* **schema** — a written log round-trips through the reader, and the
  validator actually catches malformed logs (unknown types, broken
  nesting, time travel);
* **determinism** — SimStats are identical with observation off, on,
  and on-with-sampling, for both kernels, both virtualization modes and
  the multi-tenant mix (the sampler only acts at chunk boundaries, and
  every chunking of a trace is pinned byte-identical);
* **integration** — the engine writes a valid log for a sweep (worker
  batches rebased onto one timeline, cache hits recorded), worker
  crashes are attributed to a job, and the ``repro obs`` commands run
  against a real log.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro.cli import main
from repro.experiments.common import SCHEMES
from repro.obs import events as obs_events
from repro.obs import reader, summary
from repro.obs.events import Recorder, capture
from repro.obs.export import to_chrome_trace
from repro.obs.probe import SimProbe
from repro.obs.timeline import render_timeline
from repro.runtime.engine import Engine, JobExecutionError
from repro.runtime.job import Job, execute_job
from repro.sim import columnar
from repro.sim.multitenant import MultiTenantSpec, run_native_mt, \
    run_virtualized_mt
from repro.sim.runner import Scale, run_native, run_virtualized
from repro.traces.store import materialize_trace, read_ref
from repro.workloads.suite import get as get_workload

TINY = Scale(trace_length=4_000, warmup=800, seed=13)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with observation off."""
    obs_events.deactivate()
    yield
    obs_events.deactivate()


def _write_log(tmp_path, emit) -> str:
    path = tmp_path / "log.jsonl"
    recorder = Recorder(path=path, meta={"origin": "test"})
    emit(recorder)
    recorder.close()
    return str(path)


# ----------------------------------------------------------------------
# schema round-trip and validation
# ----------------------------------------------------------------------
class TestSchema:
    def test_round_trip(self, tmp_path):
        def emit(r):
            with r.span("sweep", "engine", jobs=2):
                r.instant("cache_hit", "engine", job="a")
                r.counter("chunk", "sim", records=100, walks=7)
        path = _write_log(tmp_path, emit)
        header, events = reader.read_log(path)
        assert header["schema"] == obs_events.SCHEMA_VERSION
        assert header["meta"] == {"origin": "test"}
        assert [e["type"] for e in events] == ["B", "I", "C", "E"]
        assert reader.validate(header, events) == []

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"B","ts":0,"name":"x"}\n')
        with pytest.raises(reader.ObsLogError):
            reader.read_log(str(path))

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(
            {"type": "header", "schema": 999, "pid": 1}) + "\n")
        with pytest.raises(reader.ObsLogError):
            reader.read_log(str(path))

    def test_validate_catches_unknown_type(self, tmp_path):
        path = _write_log(tmp_path, lambda r: r._emit("Z", "x", "c", None))
        problems = reader.validate(*reader.read_log(path))
        assert any("type" in p for p in problems)

    def test_validate_catches_broken_nesting(self, tmp_path):
        def emit(r):
            r.begin("outer", "t")
            r.begin("inner", "t")
            r.end("outer")
            r.end("inner")
        problems = reader.validate(
            *reader.read_log(_write_log(tmp_path, emit)))
        assert problems

    def test_validate_catches_unclosed_span(self, tmp_path):
        problems = reader.validate(
            *reader.read_log(_write_log(
                tmp_path, lambda r: r.begin("open", "t"))))
        assert any("unclosed" in p for p in problems)

    def test_validate_catches_time_travel(self, tmp_path):
        def emit(r):
            r.begin("a", "t")
            r.end("a")
        path = _write_log(tmp_path, emit)
        header, events = reader.read_log(path)
        events[1]["ts"] = events[0]["ts"] - 1.0
        assert any("< previous" in p
                   for p in reader.validate(header, events))

    def test_spans_pair_and_nest(self, tmp_path):
        def emit(r):
            with r.span("outer", "t"):
                with r.span("inner", "t", detail=1):
                    pass
        header, events = reader.read_log(_write_log(tmp_path, emit))
        spans = reader.spans(header, events)
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["args"] == {"detail": 1}
        assert by_name["outer"]["t0"] <= by_name["inner"]["t0"]
        assert by_name["inner"]["t1"] <= by_name["outer"]["t1"]

    def test_merge_batch_rebases_timestamps(self, tmp_path):
        parent = Recorder(path=tmp_path / "parent.jsonl")
        with capture() as worker:
            worker.begin("job", "engine")
            worker.end("job")
            batch = worker.export_batch()
        # Simulate a worker whose wall origin is 10s after the parent's.
        batch = dict(batch, t0_wall=parent.t0_wall + 10.0)
        parent.merge_batch(batch)
        parent.close()
        _, events = reader.read_log(str(tmp_path / "parent.jsonl"))
        assert all(e["ts"] >= 10.0 for e in events)

    def test_capture_restores_previous_recorder(self):
        outer = Recorder()
        obs_events.activate(outer)
        with capture() as inner:
            assert obs_events.active() is inner
        assert obs_events.active() is outer


# ----------------------------------------------------------------------
# the sampling probe
# ----------------------------------------------------------------------
class TestSimProbe:
    def test_inactive_probe_is_none(self):
        assert SimProbe.create("native", warmup=10) is None

    def test_chunks_cut_at_warmup_and_interval(self):
        import numpy as np

        with capture(sample_records=1000) as recorder:
            probe = SimProbe.create("native", warmup=1200)
            data = np.arange(3500)
            cuts = list(probe.chunks(iter([data])))
            # Boundaries: 1000 (interval), 1200 (warmup), 2000, 3000.
            assert [len(c) for c in cuts] == [1000, 200, 800, 1000, 500]
            joined = np.concatenate(cuts)
            assert np.array_equal(joined, data)
            # Views, not copies: the cuts alias the source buffer.
            assert all(c.base is not None for c in cuts)
        assert recorder is not None

    def test_sample_flips_warmup_to_measure(self):
        with capture() as recorder:
            probe = SimProbe.create("native", warmup=100)
            probe.run_begin(kernel="scalar")
            probe.sample(100, walks=1)
            probe.sample(200, walks=2)
            probe.run_end()
        names = [(e["type"], e["name"]) for e in recorder.events]
        assert ("E", "warmup") in names and ("B", "measure") in names
        assert names.index(("E", "warmup")) < names.index(("B", "measure"))


# ----------------------------------------------------------------------
# determinism: stats identical with observation off / on / sampled
# ----------------------------------------------------------------------
def _observed(run, sample_records=None):
    with capture(sample_records=sample_records) as recorder:
        stats = run()
    assert recorder.events, "observation recorded nothing"
    return stats


class TestDeterminism:
    @pytest.mark.parametrize("virtualized", [False, True])
    def test_scalar_stats_identical(self, virtualized):
        entry = SCHEMES["asap"]
        if virtualized:
            config = entry.virt_config
            runner = functools.partial(run_virtualized, kernel="scalar")
        else:
            config = entry.native_config
            runner = functools.partial(run_native, kernel="scalar")

        def run():
            return runner("mc80", config, scale=TINY, scheme=entry.spec)

        baseline = run()
        assert _observed(run) == baseline
        assert _observed(run, sample_records=700) == baseline

    @pytest.mark.skipif(not columnar.columnar_available(),
                        reason="no C compiler/cffi for the columnar "
                               "backend")
    def test_columnar_stats_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
        for runner in (run_native, run_virtualized):
            def run():
                return runner("mc80", scale=TINY, kernel="columnar",
                              collect_service=False)

            baseline = run()
            assert _observed(run) == baseline
            assert _observed(run, sample_records=700) == baseline

    def test_mt_stats_identical(self):
        mt = MultiTenantSpec(tenants=2, quantum=500, switch_policy="flush")

        def run():
            return run_native_mt("mc80", mt=mt, scale=TINY,
                                 collect_service=False)

        baseline = run()
        assert _observed(run) == baseline
        assert _observed(run, sample_records=300) == baseline


@pytest.mark.parametrize("runner", [run_native_mt, run_virtualized_mt])
def test_mt_logs_setup_and_populate_phases(runner):
    # Tenant construction and pre-faulting are phases of a multi-tenant
    # cell too, so the bench's phase columns cover its whole time.
    mt = MultiTenantSpec(tenants=2, quantum=1_000, switch_policy="flush")
    with capture() as recorder:
        runner("mc80", mt=mt, scale=TINY, collect_service=False)
    begun = [event["name"] for event in recorder.events
             if event["type"] == "B"]
    assert begun.count("setup") == 1 and begun.count("populate") == 1
    assert begun.index("setup") < begun.index("populate") < \
        begun.index("simulate")


# ----------------------------------------------------------------------
# the logged kernel is the one that ran
# ----------------------------------------------------------------------
def _logged_kernels(recorder) -> list[str]:
    return [event["args"]["kernel"] for event in recorder.events
            if event["type"] == "B" and event["name"] == "simulate"]


@pytest.mark.skipif(not columnar.columnar_available(),
                    reason="no C compiler/cffi for the columnar backend")
@pytest.mark.parametrize("name, expected, virtualized", [
    pytest.param("victima", "victima", False, id="victima-victima"),
    pytest.param("baseline", "plain", False, id="baseline-plain"),
    pytest.param("revelator", "revelator", False, id="revelator-revelator"),
    pytest.param("victima", "victima", True, id="virt-victima-victima"),
    pytest.param("baseline", "plain", True, id="virt-baseline-plain"),
    pytest.param("asap", "asap", True, id="virt-asap-asap"),
    pytest.param("revelator", "revelator", True,
                 id="virt-revelator-revelator"),
])
def test_simulate_span_logs_effective_kernel(name, expected, virtualized,
                                             monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    entry = SCHEMES[name]
    runner, config = ((run_virtualized_mt, entry.virt_config) if virtualized
                      else (run_native_mt, entry.native_config))
    mt = MultiTenantSpec(tenants=2, quantum=700, switch_policy="asid")
    with capture() as recorder:
        runner("mc80", config, mt=mt, scale=TINY, scheme=entry.spec,
               kernel="columnar")
    kernels = _logged_kernels(recorder)
    assert len(kernels) == 6  # 2 tenants x 2000 records / quantum 700
    assert set(kernels) == {expected}


@pytest.mark.skipif(not columnar.columnar_available(),
                    reason="no C compiler/cffi for the columnar backend")
@pytest.mark.parametrize("name, expected, kind", [
    pytest.param("baseline", "plain", "native", id="baseline-plain"),
    pytest.param("asap", "asap", "native", id="asap-asap"),
    pytest.param("victima", "victima", "native", id="victima-victima"),
    pytest.param("revelator", "revelator", "native",
                 id="revelator-revelator"),
    pytest.param("baseline", "plain", "virtualized", id="virt-baseline-plain"),
    pytest.param("asap", "asap", "virtualized", id="virt-asap-asap"),
    pytest.param("victima", "victima", "virtualized",
                 id="virt-victima-victima"),
    pytest.param("revelator", "revelator", "virtualized",
                 id="virt-revelator-revelator"),
])
def test_default_kernel_is_compiled(name, expected, kind, monkeypatch):
    # No kernel argument anywhere: a direct runner call and a default
    # Job both take the compiled kernel.
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    entry = SCHEMES[name]
    runner, config = ((run_native, entry.native_config) if kind == "native"
                      else (run_virtualized, entry.virt_config))
    with capture() as recorder:
        runner("mc80", config, scale=TINY, scheme=entry.spec)
        execute_job(Job(kind=kind, workload="mc80", scale=TINY,
                        config=config, scheme=entry.spec))
    assert _logged_kernels(recorder) == [expected, expected]


@pytest.mark.skipif(not columnar.columnar_available(),
                    reason="no C compiler/cffi for the columnar backend")
def test_virtualized_fallbacks_log_scalar(monkeypatch):
    """Infinite-TLB cells have no compiled nested walk, and a Job that
    asks for the scalar kernel gets it: each simulate span of those runs
    says ``scalar``.  A co-runner cell compiles, and says so."""
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    with capture() as recorder:
        run_virtualized("mc80", scale=TINY, infinite_tlb=True)
        execute_job(Job(kind="virtualized", workload="mc80", scale=TINY,
                        kernel="scalar"))
        run_virtualized("mc80", scale=TINY, colocated=True)
    assert _logged_kernels(recorder) == ["scalar", "scalar", "plain"]


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def _jobs(n=3):
    return [Job(kind="native", workload=w, scale=TINY)
            for w in ("mcf", "bfs", "mc80")[:n]]


class TestEngineObs:
    def test_sweep_writes_valid_log(self, tmp_path):
        engine = Engine(jobs=2, cache=None, obs=True,
                        obs_dir=str(tmp_path / "obs"))
        engine.run_jobs(_jobs())
        assert engine.last_obs_path is not None
        header, events = reader.read_log(str(engine.last_obs_path))
        assert reader.validate(header, events) == []
        digest = summary.summarize(header, events)
        assert digest["cache"]["executed"] == 3
        jobs = {j["job"] for j in digest["jobs"]}
        assert any("mcf" in j for j in jobs)
        # Worker events were rebased onto the engine's timeline: every
        # job span sits inside the sweep span.
        sweep = next(s for s in reader.spans(header, events)
                     if s["name"] == "sweep")
        for span in reader.spans(header, events):
            if span["name"] == "job":
                assert sweep["t0"] <= span["t0"] <= sweep["t1"]

    def test_cache_hits_recorded(self, tmp_path):
        from repro.runtime.cache import ResultCache

        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            engine = Engine(jobs=1, cache=ResultCache(cache_dir),
                            obs=True, obs_dir=str(tmp_path / "obs"))
            engine.run_jobs(_jobs(2))
        header, events = reader.read_log(str(engine.last_obs_path))
        assert len(reader.instants(header, events, "cache_hit")) == 2
        assert summary.summarize(header, events)["cache"]["hit_rate"] == 1.0

    def test_results_identical_with_obs(self, tmp_path):
        jobs = _jobs(2)
        plain = Engine(jobs=1, cache=None).run_jobs(jobs)
        observed = Engine(jobs=1, cache=None, obs=True,
                          obs_dir=str(tmp_path / "obs")).run_jobs(jobs)
        assert plain == observed

    def test_pool_crash_names_the_job(self, tmp_path):
        trace_dir = tmp_path / "trace"
        ref = materialize_trace(get_workload("mcf"), TINY.trace_length,
                                TINY.seed, trace_dir)
        bad_ref = dataclasses.replace(ref, digest="0" * 64)
        bad = Job(kind="native", workload="mcf", scale=TINY, trace=bad_ref)
        good = Job(kind="native", workload="bfs", scale=TINY)
        engine = Engine(jobs=2, cache=None)
        with pytest.raises(JobExecutionError) as exc_info:
            engine.run_jobs([bad, good])
        message = str(exc_info.value)
        assert bad.label() in message
        assert bad.spec_hash()[:12] in message

    def test_read_ref_round_trip_still_works(self, tmp_path):
        # Guard for the crash fixture: an untampered ref executes fine.
        trace_dir = tmp_path / "trace"
        materialize_trace(get_workload("mcf"), TINY.trace_length,
                          TINY.seed, trace_dir)
        ref = read_ref(trace_dir)
        job = Job(kind="native", workload="mcf", scale=TINY, trace=ref)
        results = Engine(jobs=1, cache=None).run_jobs([job])
        assert results[job].accesses > 0


# ----------------------------------------------------------------------
# aggregation + CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_log(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs")
    engine = Engine(jobs=2, cache=None, obs=True, obs_dir=str(tmp_path))
    engine.run_jobs(_jobs())
    return str(engine.last_obs_path)


class TestAggregation:
    def test_summary_table(self, engine_log):
        digest = summary.summarize(*reader.read_log(engine_log))
        text = summary.render_summary(digest)
        assert "hit rate" in text and "worker pid" in text
        for job in digest["jobs"]:
            accounted = sum(job["phases"].values())
            assert accounted == pytest.approx(job["seconds"], abs=1e-3)

    def test_timeline_renders(self, engine_log):
        text = render_timeline(*reader.read_log(engine_log))
        assert "wall" in text and "pid" in text
        assert "A = " in text

    def test_chrome_trace_export(self, engine_log):
        header, events = reader.read_log(engine_log)
        trace = to_chrome_trace(header, events)
        assert trace["otherData"]["run_id"] == header["run_id"]
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"B", "E", "M"} <= phases
        # Perfetto wants microseconds.
        sweep_b = next(e for e in trace["traceEvents"]
                       if e["name"] == "sweep" and e["ph"] == "B")
        original = next(e for e in events if e["name"] == "sweep")
        assert sweep_b["ts"] == pytest.approx(original["ts"] * 1e6, abs=1)

    def test_dashboard_builds(self, engine_log, tmp_path):
        from repro.obs.dashboard import build_dashboard

        bench = {"workload": "mc80", "entries": [
            {"kernel": "columnar", "results": [
                {"scheme": "asap", "records": 15000, "seconds": 0.2}]}]}
        html = build_dashboard([reader.read_log(engine_log)], bench=bench)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "Worker utilization" in html
        assert "BENCH trajectory (mc80, 1 entries)" in html
        assert "columnar kernel, 15k records" in html


class TestCli:
    def test_obs_summary_and_timeline(self, engine_log, capsys):
        assert main(["obs", "summary", engine_log]) == 0
        assert "hit rate" in capsys.readouterr().out
        assert main(["obs", "timeline", engine_log]) == 0
        assert "pid" in capsys.readouterr().out

    def test_obs_validate(self, engine_log, capsys):
        assert main(["obs", "validate", engine_log, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["problems"] == []

    def test_obs_export_and_dashboard(self, engine_log, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["obs", "export", engine_log, "--out", out]) == 0
        assert json.load(open(out))["traceEvents"]
        page = str(tmp_path / "d.html")
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"entries": []}))
        assert main(["obs", "dashboard", engine_log, "--out", page,
                     "--bench", str(bench)]) == 0
        assert "<svg" in open(page).read()
        assert "BENCH trajectory" in open(page).read()
        capsys.readouterr()

    def test_obs_missing_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "summary", "--cache-dir",
                     str(tmp_path / "empty")]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_obs_flag(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(["sweep", "--only", "table2", "--trace-length", "2000",
                     "--no-cache", "--obs",
                     "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        logs = list(obs_dir.glob("sweep-*.jsonl"))
        assert len(logs) == 1
        header, events = reader.read_log(str(logs[0]))
        assert reader.validate(header, events) == []
