"""The bench tool (tools/bench.py) and its trajectory.

The perf gate's arithmetic, its refusal to run when it would check
nothing, the gate's reference snapshot when the reference and the
output are one file, the refusal to label a scalar run ``columnar``,
the converted history in BENCH_trajectory.json, the ladder's cells
against ``repro scaling``'s, the traces generated before the timer,
and (with a compiled backend) the mode a real child run records.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import scaling
from repro.experiments.common import DEFAULT_SCALE
from repro.runtime.cache import code_version
from repro.runtime.job import execute_job
from repro.sim import columnar, runner
from repro.workloads.base import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench", REPO_ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(kernel: str, cells: dict, generated: str = "2026-01-01",
           warmup: int = 3000, tool: str = "tools/bench.py") -> dict:
    return {"generated": generated, "kernel": kernel, "tool": tool,
            "results": [{"scheme": scheme, "records": records,
                         "warmup": warmup, "seconds": seconds}
                        for (scheme, records), seconds in cells.items()]}


def _write(path: Path, *entries: dict) -> Path:
    path.write_text(json.dumps({"entries": list(entries)}))
    return path


def _run(seconds: float, modes=("plain",)) -> dict:
    return {"seconds": seconds, "modes": list(modes), "peak_rss_mb": 50.0,
            "phases": {"populate": seconds / 4}, "walks": 10,
            "walk_cycles": 300, "translation_fraction": 0.5,
            "avg_walk_latency": 30.0}


def _row(scheme: str, records: int, seconds: float,
         warmup: int = 3000) -> dict:
    return {"scheme": scheme, "records": records, "warmup": warmup,
            "seconds": seconds}


class TestGate:
    def test_median_of_the_latest_entries_with_the_same_kernel(
            self, bench, tmp_path, capsys):
        path = _write(
            tmp_path / "ref.json",
            _entry("scalar", {("baseline", 15000): 0.50}, "d0"),
            _entry("scalar", {("baseline", 15000): 0.12,
                              ("baseline", 60000): 0.20}, "d1"),
            _entry("columnar", {("baseline", 15000): 0.01}, "c"),
            _entry("scalar", {("baseline", 15000): 0.01}, "old",
                   tool="tools/older_tool.py"),
            _entry("scalar", {("baseline", 15000): 0.01}, "w",
                   warmup=12000),
            _entry("scalar", {("baseline", 15000): 0.10,
                              ("asap", 15000): 0.30}, "d2"),
            _entry("scalar", {("baseline", 15000): 0.13}, "d3"))
        reference = bench.reference_cells(path, "scalar")
        # The oldest of four entries drops out; the columnar entry, the
        # other tool's entry and the other warmup's cell are ignored.
        assert reference[("baseline", 15000, 3000)] == {
            "seconds": 0.12, "generated": ["d1", "d2", "d3"]}
        assert reference[("asap", 15000, 3000)] == {
            "seconds": 0.30, "generated": ["d2"]}
        assert reference[("baseline", 15000, 12000)]["generated"] == ["w"]
        rows = [_row("baseline", 15000, 0.144), _row("asap", 15000, 0.30)]
        # Against any ignored entry, or per record against the 60k
        # cell, baseline would fail.
        assert bench.check_against(rows, reference, 1.25) == 0
        assert "1.20x, median of 3 entries, latest d3" in (
            capsys.readouterr().out)

    def test_missing_cell_is_reported_not_failed(self, bench, capsys):
        reference = {("baseline", 15000, 3000): {"seconds": 1.0,
                                                 "generated": ["d"]}}
        rows = [_row("baseline", 15000, 1.0), _row("victima", 15000, 9.0)]
        assert bench.check_against(rows, reference, 1.25) == 0
        assert "no reference cell" in capsys.readouterr().out

    def test_decided_on_medians_of_unrounded_seconds(self, bench):
        row = bench.summarize("baseline", 15000, 3000, "scalar",
                              [_run(0.124), _run(0.5), _run(0.123)])
        assert row["seconds"] == 0.124
        assert row["per_seed_seconds"] == [0.124, 0.5, 0.123]
        # 0.124 / 0.096 = 1.29x fails; rounded to 0.01 s it would read
        # 0.12 / 0.10 = 1.20x and pass.
        reference = {("baseline", 15000, 3000): {"seconds": 0.096,
                                                 "generated": ["d"]}}
        assert bench.check_against([row], reference, 1.25) == 1
        reference[("baseline", 15000, 3000)]["seconds"] = 0.0993
        assert bench.check_against([row], reference, 1.25) == 0


def _never(spec):
    raise AssertionError("a cell was timed")


class TestGateThatWouldCheckNothing:
    """Both exit non-zero before any cell is timed."""

    def test_no_entry_of_this_tool_with_the_kernel(
            self, bench, tmp_path, monkeypatch):
        path = _write(tmp_path / "ref.json",
                      _entry("columnar", {("baseline", 15000): 0.1}),
                      _entry("scalar", {("baseline", 15000): 0.1},
                             tool="tools/older_tool.py"))
        monkeypatch.setattr(bench, "run_child", _never)
        with pytest.raises(SystemExit) as exc:
            bench.main(["--records", "15000", "--schemes", "baseline",
                        "--output", str(tmp_path / "out.json"),
                        "--check-against", str(path)])
        assert "no tools/bench.py entry" in str(exc.value.code)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("records", [
        "20000",           # an edited record count
        "1000000",         # the ladder's 1M rung, but with its own warmup
    ])
    def test_no_cell_of_the_run_has_a_reference(
            self, bench, tmp_path, monkeypatch, records):
        path = _write(tmp_path / "ref.json",
                      _entry("scalar", {("baseline", 15000): 0.1}),
                      _entry("scalar", {("baseline", 60000): 0.1,
                                        ("baseline", 1000000): 1.0},
                             warmup=12000))
        monkeypatch.setattr(bench, "run_child", _never)
        with pytest.raises(SystemExit) as exc:
            bench.main(["--records", records, "--schemes", "baseline",
                        "--output", str(tmp_path / "out.json"),
                        "--check-against", str(path)])
        assert "would check nothing" in str(exc.value.code)
        assert not (tmp_path / "out.json").exists()


def test_same_file_gate_uses_the_entry_before_the_append(
        bench, tmp_path, monkeypatch, capsys):
    path = _write(tmp_path / "trajectory.json",
                  _entry("scalar", {("baseline", 2000): 0.1}, "before",
                         warmup=400))
    monkeypatch.setattr(bench, "run_child", lambda spec: _run(1.0))
    code = bench.main(["--records", "2000", "--schemes", "baseline",
                       "--output", str(path), "--check-against", str(path)])
    assert code == 1  # 1.0 s vs the old 0.1 s, not vs itself
    assert "median of 1 entries, latest before" in capsys.readouterr().out
    entries = json.loads(path.read_text())["entries"]
    assert len(entries) == 2
    appended = entries[-1]
    assert appended["results"][0]["seconds"] == 1.0
    assert appended["env"]["code_version"] == code_version()
    assert "dirty" in appended["env"] and "git_sha" in appended["env"]


@pytest.mark.parametrize("backend", ["missing", "required"])
def test_columnar_without_backend_exits_before_timing(
        bench, tmp_path, monkeypatch, backend):
    def unavailable():
        if backend == "required":
            raise RuntimeError("REPRO_REQUIRE_CCORE is set but ...")
        return False

    monkeypatch.setattr(bench.columnar, "columnar_available", unavailable)
    monkeypatch.setattr(bench, "run_child", _never)
    output = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--records", "2000", "--kernel", "columnar",
                    "--output", str(output)])
    assert exc.value.code not in (0, None)
    assert not output.exists()


#: The entries of the two trajectories BENCH_trajectory.json replaced,
#: as (generated, kernel, {(scheme, records): seconds}).
LEGACY = [
    ("2026-07-30", "scalar", {
        ("baseline", 60000): 1.736, ("asap", 60000): 2.365,
        ("victima", 60000): 1.74, ("revelator", 60000): 1.785}),
    ("2026-07-30", "scalar", {
        ("baseline", 60000): 0.937, ("asap", 60000): 1.817,
        ("victima", 60000): 1.305, ("revelator", 60000): 1.227}),
    ("2026-07-30", "scalar", {
        ("baseline", 60000): 0.928, ("asap", 60000): 1.781,
        ("victima", 60000): 1.218, ("revelator", 60000): 1.307,
        ("baseline-mt2", 60000): 1.042}),
    ("2026-07-30", "scalar", {
        ("baseline", 60000): 0.957, ("asap", 60000): 1.815,
        ("victima", 60000): 1.285, ("revelator", 60000): 1.237,
        ("baseline-mt2", 60000): 0.991}),
    ("2026-08-08", "columnar", {
        ("baseline", 60000): 0.32, ("asap", 60000): 0.571,
        ("victima", 60000): 0.285, ("revelator", 60000): 3.086,
        ("baseline-mt2", 60000): 0.701}),
    ("2026-08-08", "scalar", {
        ("baseline", 60000): 0.851, ("asap", 60000): 1.725,
        ("victima", 60000): 1.192, ("revelator", 60000): 1.176,
        ("baseline-mt2", 60000): 1.1}),
    ("2026-07-30T15:11:34+00:00", "scalar", {
        ("baseline", 60000): 1.63, ("asap", 60000): 2.37,
        ("baseline", 1000000): 22.85, ("asap", 1000000): 38.38,
        ("baseline", 10000000): 232.65, ("asap", 10000000): 358.13}),
    ("2026-08-08T11:22:34+00:00", "columnar", {
        ("baseline", 60000): 0.23, ("asap", 60000): 2.19,
        ("baseline", 1000000): 1.98, ("asap", 1000000): 33.39,
        ("baseline", 10000000): 21.06, ("asap", 10000000): 359.85}),
    ("2026-08-08T13:49:09+00:00", "columnar", {
        ("baseline", 60000): 0.25, ("asap", 60000): 0.31,
        ("victima", 60000): 0.21, ("baseline", 1000000): 2.18,
        ("asap", 1000000): 3.84, ("victima", 1000000): 2.8,
        ("baseline", 10000000): 34.01, ("asap", 10000000): 28.64,
        ("victima", 10000000): 23.16}),
    ("2026-08-08T13:54:56+00:00", "scalar", {
        ("victima", 60000): 1.61, ("victima", 1000000): 24.65,
        ("victima", 10000000): 319.53}),
]


def test_converted_history_keeps_every_entry_and_its_seconds():
    document = json.loads((REPO_ROOT / "BENCH_trajectory.json").read_text())
    legacy = [entry for entry in document["entries"]
              if entry["tool"] != "tools/bench.py"]
    converted = [(entry["generated"], entry["kernel"],
                  {(row["scheme"], row["records"]): row["seconds"]
                   for row in entry["results"]})
                 for entry in legacy]
    assert sorted(converted, key=repr) == sorted(LEGACY, key=repr)
    for entry in legacy:
        assert entry["tool"] and entry["env"]
        # Both old tools warmed up every cell for a fifth of 60k.
        assert all(row["kernel"] == entry["kernel"]
                   and row["warmup"] == 12000
                   for row in entry["results"])


def test_ladder_cells_are_the_scaling_experiments_jobs(
        bench, tmp_path, monkeypatch):
    """The same jobs, so the same walk statistics at every rung: the
    bench's 1M/10M rows and ``repro scaling``'s cells are one cell."""
    specs = []
    monkeypatch.setattr(bench.columnar, "columnar_available", lambda: True)
    monkeypatch.setattr(bench, "run_child",
                        lambda spec: specs.append(spec) or _run(1.0))
    bench.main(["--kernel", "columnar", "--seeds", "3",
                "--output", str(tmp_path / "out.json")])
    ours = {bench.make_job(**spec) for spec in specs}
    base = {bench.make_job(**spec) for spec in specs
            if spec["replicate"] == 0}
    assert base == set(scaling.jobs(DEFAULT_SCALE, seeds=1))
    # The requested kernel rides on every job, the oracle's too.
    assert {bench.make_job(**dict(spec, kernel="scalar")).kernel
            for spec in specs} == {"scalar"}
    # The experiment replicates only the base rung, the bench every one.
    assert set(scaling.jobs(DEFAULT_SCALE, seeds=3)) <= ours


@pytest.mark.parametrize("scheme", ["asap", "baseline-mt2"])
def test_child_generates_the_traces_before_the_timer(
        bench, monkeypatch, scheme):
    job = bench.make_job(scheme, 2000, 400, "scalar", seed=4242)
    monkeypatch.setattr(runner, "_TRACE_CACHE", {})
    bench.generate_traces(job)

    def generate_trace(self, *args, **kwargs):
        raise AssertionError(f"{self.name} trace generated in the run")

    monkeypatch.setattr(WorkloadSpec, "generate_trace", generate_trace)
    assert execute_job(job).walks > 0


@pytest.mark.skipif(not columnar.columnar_available(),
                    reason="no C compiler/cffi for the columnar backend")
@pytest.mark.parametrize("scheme, mode, kernel", [
    pytest.param("revelator", "revelator", "columnar",
                 id="revelator-revelator"),
    pytest.param("baseline", "plain", "columnar", id="baseline-plain"),
    pytest.param("baseline-mt2", "plain", "columnar",
                 id="baseline-mt2-plain"),
    # a forced scalar run: the record loop ran
    pytest.param("revelator", "scalar", "scalar", id="revelator-scalar"),
])
def test_child_run_records_the_mode_that_ran(bench, scheme, mode, kernel):
    row = bench.measure_cell(scheme, 2000, 400, kernel, seed=42, seeds=1)
    assert row["kernel"] == kernel and row["warmup"] == 400
    assert row["mode"] == mode
    assert row["walks"] > 0 and row["peak_rss_mb"] > 0
    assert {"populate", "measure"} <= set(row["phases"])
