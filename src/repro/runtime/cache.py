"""On-disk result cache keyed by (job-spec hash, code version).

The cache makes re-rendering a figure free when nothing that could change
its numbers has changed.  The key has two components:

* the job's :meth:`~repro.runtime.job.Job.spec_hash` — the full canonical
  spec of the simulation;
* the **code version** — a content hash over every source file a job
  can execute: the import closure of :mod:`repro.runtime.job`, which
  defines :func:`~repro.runtime.job.execute_job`.  Editing any module
  in that closure invalidates every entry at once, which can never
  serve stale statistics.  Editing code outside it — the CLI, the
  experiments' table assembly, the validation checklist, the obs
  renderers, documentation, tests or tools — leaves the cache warm.

Entries are pickled simulation results, written atomically so a killed
worker never leaves a truncated entry behind.  Corrupt or unreadable
entries are treated as misses.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
import sys
import time
from functools import lru_cache
from importlib.util import resolve_name
from pathlib import Path
from typing import Any

from repro.runtime.job import Job

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cache-root subdirectory for ``repro.obs`` event logs.  Telemetry
#: lives beside the result entries but is not keyed by code version —
#: the pruner must leave it alone.
OBS_SUBDIR = "obs"

#: Cache-root subdirectory for the incremental reporter's state
#: (``repro.experiments.incremental``: manifest, section models, the
#: assembled document).  Like ``obs/`` it is not keyed by code version
#: and must survive the pruner.
REPORT_SUBDIR = "report"

#: How recently a stale version directory (or an orphaned ``*.tmp.*``
#: file) must have been touched for the pruner to leave it alone.  A
#: second engine sharing the cache dir may still be running an older
#: code version — its directory is hot, not garbage.
PRUNE_GRACE_SECONDS = 300.0

_MISS = object()


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _tmp_writer_pid(path: Path) -> int | None:
    """The pid encoded in a ``<spec>.tmp.<pid>`` temp-file name."""
    suffix = path.name.rsplit(".", 1)[-1]
    try:
        return int(suffix)
    except ValueError:
        return None


#: The module whose import closure decides what a cached result means.
_CLOSURE_ROOT = "repro.runtime.job"

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _module_file(name: str) -> Path | None:
    """The source file of ``repro`` module ``name``, or ``None`` when
    ``name`` is not a module of the package (a third-party module, or
    a class or function imported with ``from ... import``)."""
    parts = name.split(".")
    if parts[0] != "repro":
        return None
    base = _PACKAGE_ROOT.joinpath(*parts[1:])
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _imported_names(path: Path, module: str) -> list[str]:
    """Every module name ``path`` imports, at module level or inside a
    function.  ``from a import b`` yields both ``a`` and ``a.b``, since
    ``b`` may be a submodule."""
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    names = []
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""),
                                package)
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def simulation_sources() -> list[str]:
    """Package-relative paths of the modules a job can execute.

    The import closure of :mod:`repro.runtime.job`, following
    module-level and function-level imports (the simulators load the
    compiled kernel lazily, inside functions), plus every parent
    package's ``__init__.py``, which importing a submodule runs.
    """
    found: dict[str, Path] = {}
    seen: set[str] = set()
    pending = [_CLOSURE_ROOT]
    while pending:
        parts = pending.pop().split(".")
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in seen:
                continue
            seen.add(name)
            path = _module_file(name)
            if path is not None:
                found[name] = path
                pending.extend(_imported_names(path, name))
    return sorted(path.relative_to(_PACKAGE_ROOT).as_posix()
                  for path in found.values())


def package_sources() -> list[str]:
    """Package-relative paths of every source file in the package."""
    return sorted(path.relative_to(_PACKAGE_ROOT).as_posix()
                  for path in _PACKAGE_ROOT.rglob("*.py"))


def _sources_digest(relatives: list[str]) -> str:
    digest = hashlib.sha256()
    for relative in relatives:
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update((_PACKAGE_ROOT / relative).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Content hash of :func:`simulation_sources`."""
    return _sources_digest(simulation_sources())


@lru_cache(maxsize=1)
def package_version() -> str:
    """Content hash of :func:`package_sources`.

    The incremental reporter folds it into every section signature: a
    stored section is what an experiment's ``tables()`` made of its
    cells, and editing that code (or ``Table.payload``) changes the
    section while every cached result stays byte-identical.
    """
    return _sources_digest(package_sources())


class ResultCache:
    """Pickle-per-job cache under ``root/<code-version>/<spec-hash>.pkl``."""

    def __init__(self, root: str | os.PathLike[str],
                 version: str | None = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version()
        self._dir = self.root / self.version[:16]
        self._disabled = False
        self._prune_stale_versions()

    def _prune_stale_versions(self, now: float | None = None) -> None:
        """Drop entries from superseded code versions.

        Any source edit changes the version directory, so without pruning
        the cache root accumulates unreachable pickles forever.  Entries
        for the *current* version are never touched, and neither are the
        ``obs/`` event-log and ``report/`` reporter directories — both
        outlive the code version that wrote them.

        The pruner must be safe against *concurrent* engines on the same
        cache root:

        * a stale version directory is removed only once it has been
          quiet for :data:`PRUNE_GRACE_SECONDS` — a sweep still running
          the previous code version may be writing into it right now;
        * a ``*.tmp.*`` file is never unlinked while the pid encoded in
          its name is alive (it is mid-``os.replace``), and even a dead
          writer's temp gets the grace window against pid reuse.
        """
        import shutil

        now = time.time() if now is None else now
        keep = (self.version[:16], OBS_SUBDIR, REPORT_SUBDIR)
        try:
            for entry in self.root.iterdir():
                if not entry.is_dir() or entry.name in keep:
                    continue
                try:
                    if now - entry.stat().st_mtime < PRUNE_GRACE_SECONDS:
                        continue
                except OSError:
                    continue  # vanished under us: another pruner won
                shutil.rmtree(entry, ignore_errors=True)
            # Orphaned temp files from interrupted writes in the live dir.
            for leftover in self._dir.glob("*.tmp.*"):
                writer = _tmp_writer_pid(leftover)
                if writer is not None and pid_alive(writer):
                    continue
                try:
                    if now - leftover.stat().st_mtime < PRUNE_GRACE_SECONDS:
                        continue
                except OSError:
                    continue
                leftover.unlink(missing_ok=True)
        except OSError:
            pass  # no cache root yet, or unreadable — nothing to prune

    # ------------------------------------------------------------------
    def _path(self, job: Job) -> Path:
        return self._dir / f"{job.spec_hash()}.pkl"

    def get(self, job: Job) -> Any:
        """Return the cached result or :data:`MISS`."""
        path = self._path(job)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Any unreadable entry — missing, truncated, corrupt bytes,
            # stale class layout — is a miss; the job simply re-runs.
            return _MISS

    def put(self, job: Job, value: Any) -> None:
        if self._disabled:
            return
        path = self._path(job)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception as error:
            # An unwritable cache or unpicklable result must never take
            # the run down; degrade to cacheless execution and say so once.
            self._disabled = True
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            print(f"warning: result cache disabled ({error})",
                  file=sys.stderr)

    def digest(self, job: Job) -> str | None:
        """sha256 of the raw cached entry bytes, or ``None`` when absent.

        The incremental reporter's change detector: hashing the pickle
        bytes on disk identifies a changed result without unpickling it
        (reused report sections never materialise their results at all).
        """
        try:
            return hashlib.sha256(self._path(job).read_bytes()).hexdigest()
        except OSError:
            return None

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS


#: Sentinel returned by :meth:`ResultCache.get` on a miss.
MISS = _MISS
