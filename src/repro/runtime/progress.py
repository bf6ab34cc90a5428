"""Structured progress and timing reporting for sweep execution.

The engine records one :class:`JobRecord` per job — how it was satisfied
(executed or cache hit) and how long it took — and aggregates them into a
:class:`SweepReport`.  The report is both machine-readable (records,
counters) and renderable: the CLI prints its :meth:`~SweepReport.summary`
after every sweep, and ``--progress`` streams one line per completed job
through :class:`ProgressPrinter`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import IO

from repro.runtime.job import Job


@dataclass(frozen=True)
class JobRecord:
    """Outcome of scheduling one job."""

    job: Job
    seconds: float
    cached: bool


@dataclass
class SweepReport:
    """Aggregated timing of one engine invocation."""

    records: list[JobRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    deduplicated: int = 0

    @property
    def executed(self) -> int:
        return sum(1 for record in self.records if not record.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def compute_seconds(self) -> float:
        """Total in-worker compute time (>= wall time when fanned out)."""
        return sum(record.seconds for record in self.records
                   if not record.cached)

    def summary(self) -> str:
        return (
            f"{len(self.records)} jobs: {self.executed} executed, "
            f"{self.cache_hits} cached, {self.deduplicated} deduplicated; "
            f"wall {self.wall_seconds:.1f}s, "
            f"compute {self.compute_seconds:.1f}s "
            f"(workers={self.workers})"
        )

    def slowest(self, count: int = 5) -> list[JobRecord]:
        executed = [r for r in self.records if not r.cached]
        executed.sort(key=lambda record: record.seconds, reverse=True)
        return executed[:count]


class ProgressPrinter:
    """Streams one status line per completed job to ``stream``.

    Each line carries the running cache-hit/recompute split and an ETA.
    The engine satisfies every cache hit before the first execution
    starts, so once jobs are executing, everything remaining is an
    execution — the ETA is simply ``remaining x mean execution time /
    workers`` and sharpens as the mean accumulates.
    """

    def __init__(self, total: int, stream: IO[str] | None = None,
                 workers: int = 1) -> None:
        self.total = total
        self.done = 0
        self.workers = max(workers, 1)
        self.hits = 0
        self.ran = 0
        self.exec_seconds = 0.0
        self.stream = stream if stream is not None else sys.stderr

    def _eta(self) -> str:
        remaining = self.total - self.done
        if not remaining or not self.ran:
            return ""
        per_job = self.exec_seconds / self.ran
        return f" eta {remaining * per_job / self.workers:5.1f}s"

    def job_done(self, record: JobRecord) -> None:
        self.done += 1
        if record.cached:
            self.hits += 1
            how = "cache"
        else:
            self.ran += 1
            self.exec_seconds += record.seconds
            how = f"{record.seconds:6.1f}s"
        print(f"[runtime] {self.done:4d}/{self.total} {how:>8s}  "
              f"[hit {self.hits} run {self.ran}{self._eta()}]  "
              f"{record.job.label()}", file=self.stream)
        self.stream.flush()


class NullProgress:
    """No-op progress sink (the default)."""

    def job_done(self, record: JobRecord) -> None:  # pragma: no cover
        pass
