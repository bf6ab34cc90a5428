"""The structured event log: schema, recorder, cross-process merging.

One *run* (an engine sweep, a bench cell, a ``repro run --obs``
invocation) produces one JSONL file.  The first line is a header; every
other line is one event:

* ``B`` / ``E`` — span begin/end.  Spans nest strictly (LIFO per
  process): the engine's ``sweep`` span contains ``job`` spans, a job
  contains the simulator's ``setup`` / ``populate`` / ``simulate``
  spans, ``simulate`` contains ``warmup`` then ``measure``.
* ``C`` — a counter sample (numeric ``args``), e.g. the per-chunk
  ``chunk`` snapshot of records/s and TLB/walk/cache counter deltas.
* ``I`` — an instant (``cache_hit``, ``switch``, ``flush``,
  ``job_error``).

Timestamps are **monotonic** seconds relative to the recording
process's start (``time.monotonic()`` deltas — immune to wall-clock
jumps), and every recorder also notes the wall time of that origin, so
events captured in a worker process can be rebased onto the parent
run's timeline with one wall-clock subtraction (:meth:`Recorder.
merge_batch`).  The schema is versioned; readers reject files written
under a different :data:`SCHEMA_VERSION` instead of misreading them.

Cost contract: with no recorder active (:func:`active` returns
``None``) the instrumentation seams in the simulators and the engine
reduce to one ``is None`` test per *chunk* / per *job* — never per
record — and simulation statistics are byte-identical with observation
on or off (the sampler only ever acts at chunk boundaries, where every
chunking of a trace is pinned byte-identical by tests/test_traces.py).
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

#: Bump when an event field changes meaning; readers check it.
SCHEMA_VERSION = 1

#: Event types (Chrome-trace-aligned: begin, end, counter, instant).
EVENT_TYPES = ("B", "E", "C", "I")

#: Environment switch: setting ``REPRO_OBS=1`` enables observation
#: wherever the CLI would accept ``--obs``.
OBS_ENV = "REPRO_OBS"

#: Environment knob: sample interval in records for the simulators'
#: chunk sampler (splits execution chunks so long runs snapshot more
#: often than once per generation chunk).
OBS_SAMPLE_ENV = "REPRO_OBS_SAMPLE"


def env_enabled() -> bool:
    """True when ``REPRO_OBS`` asks for observation."""
    return os.environ.get(OBS_ENV, "") not in ("", "0")


def env_sample_records() -> int | None:
    """The ``REPRO_OBS_SAMPLE`` interval, or ``None`` when unset."""
    raw = os.environ.get(OBS_SAMPLE_ENV, "")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def host_metadata() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


_RUN_SEQ = 0


def _run_id() -> str:
    global _RUN_SEQ
    _RUN_SEQ += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.getpid()}-{_RUN_SEQ}"


class Recorder:
    """Collects events in memory or appends them to a JSONL file.

    ``path=None`` records in memory (worker processes; exported with
    :meth:`export_batch` and folded into the parent's file recorder).
    ``sample_records`` is the simulators' chunk-split interval; it is a
    recorder property so one knob configures every probe of the run.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 sample_records: int | None = None,
                 meta: dict[str, Any] | None = None,
                 run_id: str | None = None) -> None:
        self.t0_wall = time.time()
        self._t0 = time.monotonic()
        self.pid = os.getpid()
        self.sample_records = (sample_records if sample_records is not None
                               else env_sample_records())
        self.run_id = run_id if run_id is not None else _run_id()
        self.events: list[dict[str, Any]] = []
        self._fh = None
        self.path: Path | None = None
        if path is not None:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
            self._write(self.header(meta))

    def header(self, meta: dict[str, Any] | None = None) -> dict[str, Any]:
        return {
            "type": "header",
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "t0_wall": self.t0_wall,
            "pid": self.pid,
            "host": host_metadata(),
            "meta": meta or {},
        }

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since this recorder's origin."""
        return time.monotonic() - self._t0

    def _write(self, obj: dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        else:
            self.events.append(obj)

    def _emit(self, type_: str, name: str, cat: str,
              args: dict[str, Any] | None) -> None:
        event: dict[str, Any] = {
            "type": type_,
            "ts": round(self.now(), 6),
            "pid": self.pid,
            "name": name,
            "cat": cat,
        }
        if args:
            event["args"] = args
        self._write(event)

    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str, **args: Any) -> None:
        self._emit("B", name, cat, args)

    def end(self, name: str, cat: str = "", **args: Any) -> None:
        self._emit("E", name, cat, args)

    def instant(self, name: str, cat: str, **args: Any) -> None:
        self._emit("I", name, cat, args)

    def counter(self, name: str, cat: str, **args: Any) -> None:
        self._emit("C", name, cat, args)

    @contextmanager
    def span(self, name: str, cat: str, **args: Any) -> Iterator[None]:
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end(name)

    # ------------------------------------------------------------------
    def export_batch(self) -> dict[str, Any]:
        """This recorder's events as one transferable batch (workers)."""
        return {"t0_wall": self.t0_wall, "pid": self.pid,
                "sample_records": self.sample_records,
                "events": self.events}

    def merge_batch(self, batch: dict[str, Any]) -> None:
        """Fold a worker batch into this log, rebasing its timestamps.

        The worker's monotonic origin and ours are unrelated clocks;
        the wall time each recorder noted at its origin aligns them.
        """
        offset = batch["t0_wall"] - self.t0_wall
        for event in batch["events"]:
            rebased = dict(event)
            rebased["ts"] = round(event["ts"] + offset, 6)
            self._write(rebased)
        self.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


def open_run_log(directory: str | os.PathLike[str], prefix: str = "run",
                 meta: dict[str, Any] | None = None,
                 sample_records: int | None = None) -> Recorder:
    """A file recorder at ``<directory>/<prefix>-<run id>.jsonl``.

    The run id carries timestamp, pid and a per-process sequence number,
    so concurrent runs sharing one obs directory never collide.
    """
    run_id = _run_id()
    path = Path(directory) / f"{prefix}-{run_id}.jsonl"
    return Recorder(path=path, sample_records=sample_records, meta=meta,
                    run_id=run_id)


# ----------------------------------------------------------------------
# the process-wide active recorder
# ----------------------------------------------------------------------
_ACTIVE: Recorder | None = None


def active() -> Recorder | None:
    """The recorder instrumentation seams emit into, or ``None`` (off)."""
    return _ACTIVE


def activate(recorder: Recorder) -> None:
    global _ACTIVE
    _ACTIVE = recorder


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def capture(sample_records: int | None = None) -> Iterator[Recorder]:
    """Route events into a fresh in-memory recorder for the duration.

    The worker entry point (`repro.runtime.engine`) and the bench tool
    use this to collect one job's events and ship them back as a batch;
    any previously active recorder is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    recorder = Recorder(sample_records=sample_records)
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
        recorder.close()
