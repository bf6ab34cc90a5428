"""Building the compiled backend: its cache key, and building while
other processes build it too.

Each process that finds no cached library compiles one.  A cold
``repro sweep --jobs N`` starts N of them at once in the same cache
directory, so no process may compile a file another one is writing.
"""

import hashlib
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


def test_declarations_read_by_cffi_are_part_of_the_hashed_source(
        tmp_path, monkeypatch):
    # The build directory is named after the compiled text.  If the
    # declarations cffi reads were not inside that text, an edit to them
    # alone would reuse a library built from the old layout and read the
    # wrong fields.
    import cffi

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    read = []
    cdef = cffi.FFI.cdef

    def recording_cdef(self, text, *args, **kwargs):
        read.append(text)
        return cdef(self, text, *args, **kwargs)

    monkeypatch.setattr(cffi.FFI, "cdef", recording_cdef)
    columnar._build_library()
    text, = read
    assert text in columnar._C_SOURCE
    digest = hashlib.sha256(columnar._C_SOURCE.encode()).hexdigest()[:16]
    assert [path.name for path in tmp_path.iterdir()] == [
        f"repro-columnar-{digest}"]
