"""Tests for ``repro report``: the incremental reporter and assembler.

Covers incremental report regeneration rebuilding only changed tables
while staying byte-identical to a full rebuild, the ``repro report``
command, the EXPERIMENTS.md assembler, and the concurrent-writer safety
of the cache pruner and the bench trajectory appends.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import assemble, incremental, table1, table2
from repro.experiments.incremental import (
    IncrementalReporter,
    _render_section,
    _slug,
)
from repro.runtime import Engine, ResultCache
from repro.runtime.cache import OBS_SUBDIR, PRUNE_GRACE_SECONDS
from repro.sim.runner import Scale

TINY = Scale(trace_length=2_000, warmup=400, seed=13)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A pid that cannot be alive (kernel pid space is way below this).
DEAD_PID = 2 ** 22 + 12345


# ----------------------------------------------------------------------
class TestIncrementalReporter:
    @pytest.fixture()
    def warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = Engine(jobs=1, cache=cache)
        reporter = IncrementalReporter(cache)
        update = reporter.update(TINY, engine, only=["table1", "table2"])
        return cache, engine, reporter, update

    def test_cold_pass_builds_everything(self, warm):
        _, _, _, update = warm
        assert update.rebuilt == ["Table 1", "Table 2"]
        assert not update.reused
        assert update.executed > 0

    def test_warm_pass_reuses_everything(self, warm):
        cache, engine, reporter, _ = warm
        update = reporter.update(TINY, engine, only=["table1", "table2"])
        assert not update.rebuilt
        assert update.reused == ["Table 1", "Table 2"]
        assert update.executed == 0

    def test_changed_cell_rebuilds_only_its_table(self, warm):
        cache, engine, reporter, cold = warm
        # same value, different pickle bytes: a changed cell digest
        job = list(dict.fromkeys(table2.jobs(TINY)))[0]
        value = cache.get(job)
        cache._path(job).write_bytes(pickle.dumps(value, protocol=2))
        update = reporter.update(TINY, engine, only=["table1", "table2"])
        assert update.rebuilt == ["Table 2"]
        assert update.reused == ["Table 1"]
        assert update.executed == 0
        # ...and the assembled document is byte-identical to what a
        # full (non-incremental) rebuild of the same cells produces
        full = reporter.full_raw_equivalent(
            TINY, only=["table1", "table2"])
        assert assemble.build(update.raw) == assemble.build(full)

    def test_source_edit_rebuilds_from_the_same_cells(self, warm,
                                                       monkeypatch):
        # A stored section is what an experiment's tables() made of its
        # cells.  Editing that code leaves every cached result
        # byte-identical, so only the package's source hash can tell
        # the stored model is stale.
        cache, engine, _, _ = warm
        original = table2.tables

        def edited(results, scale):
            table = original(results, scale)
            table.title += " (edited)"
            return table

        monkeypatch.setattr(table2, "tables", edited)
        monkeypatch.setattr(incremental, "package_version",
                            lambda: "0" * 64)
        reporter = IncrementalReporter(cache)
        update = reporter.update(TINY, engine, only=["table1", "table2"])
        assert update.rebuilt == ["Table 1", "Table 2"]
        assert update.executed == 0
        assert "(edited)" in update.sections["Table 2"]
        again = reporter.update(TINY, engine, only=["table1", "table2"])
        assert again.reused == ["Table 1", "Table 2"]
        assert "(edited)" in again.sections["Table 2"]

    def test_write_outputs_assembles_document(self, warm, tmp_path):
        _, _, reporter, update = warm
        target = reporter.write_outputs(update)
        text = target.read_text()
        assert text.startswith("# EXPERIMENTS — paper vs. measured")
        assert "## Table 2" in text or "Table 2 —" in text

    def test_missing_cell_reexecutes(self, warm):
        cache, engine, reporter, _ = warm
        job = list(dict.fromkeys(table1.jobs(TINY)))[0]
        cache._path(job).unlink()
        update = reporter.update(TINY, engine, only=["table1", "table2"])
        assert update.executed >= 1
        # deterministic jobs rewrite byte-identical pickles, so the
        # signature may match again and legitimately reuse the section;
        # either way the section must be accounted for and the cell back
        assert sorted(update.rebuilt + update.reused) == \
            ["Table 1", "Table 2"]
        assert cache._path(job).exists()

    def test_unknown_only_name_rejected(self, warm):
        _, engine, reporter, _ = warm
        with pytest.raises(ValueError, match="unknown experiment"):
            reporter.update(TINY, engine, only=["tableX"])

    def test_only_pass_merges_stored_sections(self, warm):
        # A pass restricted to table2 must still publish table1's
        # stored model — a partial refresh never degrades the document
        # to placeholders for sections built earlier.
        cache, engine, reporter, _ = warm
        update = reporter.update(TINY, engine, only=["table2"])
        assert "Table 1:" not in update.raw  # parity contract: raw
        # covers only the selected sections...
        merged = reporter.document_raw(update)
        assert "Table 1:" in merged and "Table 2:" in merged
        target = reporter.write_outputs(update)
        text = target.read_text()
        assert "Table 1:" in text
        raw_file = (reporter.root / "experiments_raw.txt").read_text()
        assert "Table 1:" in raw_file

    def test_stored_model_reserialization_is_render_stable(self, warm):
        # The stored cell model re-renders byte-identically to the text
        # the section was first built from.
        _, _, reporter, update = warm
        for name in update.sections:
            payloads = reporter._load_section(_slug(name))
            assert payloads is not None
            assert _render_section(payloads) == update.sections[name]


class TestReportCli:
    ARGV = ["report", "--only", "table1", "--only", "table2",
            "--trace-length", "2000", "--seed", "13"]

    def test_cold_then_warm_pass(self, tmp_path, capsys):
        argv = [*self.ARGV, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "2 section(s) rebuilt, 0 reused" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 section(s) rebuilt, 2 reused, 0 cold cell(s) executed" \
            in capsys.readouterr().out
        document = tmp_path / "report" / "EXPERIMENTS.md"
        assert "Table 2:" in document.read_text()

    def test_needs_the_cache(self, tmp_path, capsys):
        assert main([*self.ARGV, "--cache-dir", str(tmp_path),
                     "--no-cache"]) == 2
        assert "needs the result cache" in capsys.readouterr().err


class TestAssemblySplit:
    def test_tool_and_module_agree(self):
        raw = (REPO_ROOT / "docs" / "experiments_raw.txt").read_text()
        built = assemble.build(raw)
        assert built == (REPO_ROOT / "EXPERIMENTS.md").read_text()


# ----------------------------------------------------------------------
class TestPruneSafety:
    def test_grace_window_spares_recent_version_dirs(self, tmp_path):
        stale = tmp_path / "0123456789abcdef"
        stale.mkdir(parents=True)
        (stale / "x.pkl").write_bytes(b"data")
        ResultCache(tmp_path)
        assert stale.exists()  # too young to prune

    def test_old_version_dirs_are_pruned(self, tmp_path):
        stale = tmp_path / "0123456789abcdef"
        stale.mkdir(parents=True)
        old = time.time() - 2 * PRUNE_GRACE_SECONDS
        os.utime(stale, (old, old))
        ResultCache(tmp_path)
        assert not stale.exists()

    def test_report_and_obs_dirs_survive(self, tmp_path):
        old = time.time() - 2 * PRUNE_GRACE_SECONDS
        report_dir = IncrementalReporter(ResultCache(tmp_path)).root
        for sub in (report_dir, tmp_path / OBS_SUBDIR):
            sub.mkdir(parents=True)
            (sub / "keep.txt").write_text("x")
        for path in tmp_path.rglob("*"):
            os.utime(path, (old, old))
        ResultCache(tmp_path)
        assert (report_dir / "keep.txt").exists()
        assert (tmp_path / OBS_SUBDIR / "keep.txt").exists()

    def test_live_pid_tmp_file_survives(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = cache._dir
        live.mkdir(parents=True, exist_ok=True)
        mine = live / f"aaaa.tmp.{os.getpid()}"
        mine.write_bytes(b"half-written")
        old = time.time() - 2 * PRUNE_GRACE_SECONDS
        os.utime(mine, (old, old))
        cache._prune_stale_versions()
        assert mine.exists()

    def test_dead_pid_old_tmp_file_is_pruned(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = cache._dir
        live.mkdir(parents=True, exist_ok=True)
        orphan = live / f"bbbb.tmp.{DEAD_PID}"
        orphan.write_bytes(b"orphaned")
        old = time.time() - 2 * PRUNE_GRACE_SECONDS
        os.utime(orphan, (old, old))
        cache._prune_stale_versions()
        assert not orphan.exists()

    def test_recent_tmp_file_survives_even_if_dead(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = cache._dir
        live.mkdir(parents=True, exist_ok=True)
        recent = live / f"cccc.tmp.{DEAD_PID}"
        recent.write_bytes(b"just-crashed")
        cache._prune_stale_versions()
        assert recent.exists()


class TestAtomicBenchAppend:
    def test_concurrent_appends_all_survive(self, tmp_path):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from bench_schemes import atomic_append_entry
        finally:
            sys.path.pop(0)
        path = tmp_path / "BENCH_test.json"

        def merged() -> dict:
            if path.exists():
                return json.loads(path.read_text())
            return {"benchmark": "test", "entries": []}

        def appender(worker: int) -> None:
            for i in range(10):
                atomic_append_entry(
                    path, {"worker": worker, "i": i}, merged)

        threads = [threading.Thread(target=appender, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        document = json.loads(path.read_text())
        assert len(document["entries"]) == 40
        seen = {(e["worker"], e["i"]) for e in document["entries"]}
        assert len(seen) == 40
