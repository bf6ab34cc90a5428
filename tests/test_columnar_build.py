"""Building the compiled backend while other processes build it too.

Each process that finds no cached library compiles one.  A cold
``repro sweep --jobs N`` starts N of them at once in the same cache
directory, so no process may compile a file another one is writing.
"""

import subprocess
import tempfile

import pytest

from repro.sim import columnar

pytest.importorskip("cffi", exc_type=ImportError)
pytestmark = pytest.mark.skipif(columnar._find_compiler() is None,
                                reason="no C compiler on PATH")


def test_source_rewritten_by_another_build_cannot_break_the_library(
        tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    compile_ = subprocess.run

    def racing_compile(args, **kwargs):
        # Another process's build truncates the shared source file just
        # as this process's compiler starts.
        cache_dir, = tmp_path.iterdir()
        (cache_dir / "columnar.c").write_text("")
        return compile_(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", racing_compile)
    _, lib = columnar._build_library()
    assert hasattr(lib, "col_run_chunk")
