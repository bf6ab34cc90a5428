"""The sweep engine: dedup, cache, fan out, report.

Execution pipeline for a batch of jobs:

1. **dedup** — identical specs collapse to one execution (experiments
   share many cells: every ladder includes the baseline, Table 1 re-runs
   Figure 3 scenarios, ...);
2. **cache** — each unique job is looked up in the on-disk
   :class:`~repro.runtime.cache.ResultCache` (spec hash x code version);
3. **execute** — misses run through
   :func:`~repro.runtime.job.execute_job`, either inline (``jobs=1``) or
   on a ``ProcessPoolExecutor`` with ``jobs`` workers.  Every job is a
   pure function of its spec with all randomness seeded from
   ``scale.seed``, so results are identical regardless of worker count or
   completion order;
4. **report** — per-job timings and cache/dedup counters aggregate into a
   :class:`~repro.runtime.progress.SweepReport` kept on
   :attr:`Engine.last_report`.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.runtime.cache import DEFAULT_CACHE_DIR, OBS_SUBDIR, ResultCache
from repro.runtime.job import Job, execute_job
from repro.runtime.progress import (
    JobRecord,
    NullProgress,
    ProgressPrinter,
    SweepReport,
)
from repro.runtime.sweep import Sweep


def _timed_execute(job: Job) -> tuple[Any, float]:
    """Worker entry point: run one job, measure its compute time."""
    started = time.perf_counter()
    value = execute_job(job)
    return value, time.perf_counter() - started


def _timed_execute_obs(job: Job) -> tuple[Any, float, dict]:
    """Worker entry point under observation.

    The job runs inside :func:`repro.obs.events.capture` — a fresh
    in-memory recorder becomes the process-wide active one, so every
    instrumentation seam the job crosses (simulator phases, chunk
    samples, mt quanta) records into it; the batch rides home with the
    result and the parent folds it into the run's file, rebased onto
    the sweep timeline.  Swapping the recorder first also shields the
    parent's file handle from fork-inherited writes.
    """
    from repro.obs.events import capture

    started = time.perf_counter()
    with capture() as recorder:
        with recorder.span("job", "engine", job=job.label(),
                           spec=job.spec_hash()[:12]):
            value = execute_job(job)
        seconds = time.perf_counter() - started
    return value, seconds, recorder.export_batch()


class JobExecutionError(RuntimeError):
    """A job failed in a worker; carries which one (label + spec hash).

    Raised in the parent in place of the bare exception that would
    otherwise surface from the pool with no indication of which of the
    N in-flight jobs died.
    """

    def __init__(self, job: Job, cause: BaseException) -> None:
        self.job = job
        self.cause = cause
        super().__init__(
            f"job {job.label()!r} (spec {job.spec_hash()[:12]}) failed: "
            f"{cause.__class__.__name__}: {cause}")


class Engine:
    """Runs job batches with deduplication, caching and fan-out.

    ``jobs``      worker processes; ``1`` executes inline (no pool).
    ``cache``     a :class:`ResultCache`, or ``None`` to disable caching.
    ``progress``  stream one line per completed job to stderr.
    ``obs``       record a structured event log for each batch
                  (``repro.obs``); ``obs_dir`` is where the JSONL run
                  files land (default ``<cache dir>/obs``).
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 progress: bool = False, obs: bool = False,
                 obs_dir: str | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.obs = obs
        self.obs_dir = obs_dir or str(Path(DEFAULT_CACHE_DIR) / OBS_SUBDIR)
        self.last_report: SweepReport = SweepReport()
        #: Path of the most recent batch's event log (``None`` until an
        #: observed batch completes).
        self.last_obs_path: Path | None = None

    @classmethod
    def from_options(cls, jobs: int = 1,
                     cache_dir: str | None = DEFAULT_CACHE_DIR,
                     no_cache: bool = False,
                     progress: bool = False,
                     obs: bool = False,
                     obs_dir: str | None = None) -> "Engine":
        """Build an engine from CLI-style options.

        ``REPRO_OBS=1`` in the environment enables observation even
        without ``--obs`` (so CI and wrappers can switch it on without
        plumbing flags).  Event logs default to ``<cache_dir>/obs`` —
        kept even under ``--no-cache``, which disables result reuse,
        not telemetry.
        """
        cache = None if (no_cache or not cache_dir) else ResultCache(cache_dir)
        if not obs:
            from repro.obs.events import env_enabled

            obs = env_enabled()
        if obs_dir is None and cache_dir:
            obs_dir = str(Path(cache_dir) / OBS_SUBDIR)
        return cls(jobs=jobs, cache=cache, progress=progress,
                   obs=obs, obs_dir=obs_dir)

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Iterable[Job] | Sweep) -> dict[Job, Any]:
        """Execute a batch; return results keyed by job spec."""
        if isinstance(jobs, Sweep):
            ordered = list(jobs.jobs)
        else:
            ordered = list(jobs)
        unique = list(dict.fromkeys(ordered))
        report = SweepReport(workers=self.jobs,
                             deduplicated=len(ordered) - len(unique))
        printer = (ProgressPrinter(len(unique), workers=self.jobs)
                   if self.progress else NullProgress())
        recorder = self._open_recorder(len(ordered), len(unique))
        started = time.perf_counter()

        results: dict[Job, Any] = {}
        pending: list[Job] = []
        try:
            for job in unique:
                value = (self.cache.get(job) if self.cache is not None
                         else None)
                if self.cache is not None and not ResultCache.is_miss(value):
                    results[job] = value
                    record = JobRecord(job=job, seconds=0.0, cached=True)
                    report.records.append(record)
                    printer.job_done(record)
                    if recorder is not None:
                        recorder.instant("cache_hit", "engine",
                                         job=job.label(),
                                         spec=job.spec_hash()[:12])
                else:
                    pending.append(job)

            # Misses run inline with one worker (or one miss), else
            # fanned out over the pool.
            if self.jobs == 1 or len(pending) == 1:
                for job in pending:
                    self._finish(job, *self._execute_inline(job, recorder),
                                 results=results, report=report,
                                 printer=printer)
            elif pending:
                self._execute_pool(pending, recorder, results=results,
                                   report=report, printer=printer)
        finally:
            report.wall_seconds = time.perf_counter() - started
            self.last_report = report
            self._close_recorder(recorder, report)
        return results

    def map(self, jobs: Iterable[Job]) -> list[Any]:
        """Like :meth:`run_jobs` but returns results in input order."""
        ordered = list(jobs)
        results = self.run_jobs(ordered)
        return [results[job] for job in ordered]

    def run(self, sweep: Sweep) -> dict[Job, Any]:
        """Execute a :class:`Sweep` (alias of :meth:`run_jobs`)."""
        return self.run_jobs(sweep)

    # ------------------------------------------------------------------
    def _execute_inline(self, job: Job, recorder) -> tuple[Any, float]:
        """Run one job in-process, under a ``job`` span when observed.

        The file recorder is already active process-wide, so the job's
        simulator probes stream straight into the run log — no batch
        hop needed.
        """
        if recorder is None:
            return _timed_execute(job)
        recorder.begin("job", "engine", job=job.label(),
                       spec=job.spec_hash()[:12])
        try:
            value, seconds = _timed_execute(job)
        except Exception as exc:
            recorder.instant("job_error", "engine", job=job.label(),
                             spec=job.spec_hash()[:12], error=repr(exc))
            recorder.end("job", error=True)
            raise
        recorder.end("job", seconds=round(seconds, 3))
        return value, seconds

    def _execute_pool(self, pending: list[Job], recorder, *,
                      results: dict[Job, Any], report: SweepReport,
                      printer) -> None:
        """Fan ``pending`` out over worker processes.

        A worker failure is re-raised as :class:`JobExecutionError`
        naming the job and spec hash — a pool traceback alone cannot
        say which of the in-flight jobs died.

        Streamed generated-trace axes shared by the batch are
        materialised once up front (``repro.traces.share``) and opened
        zero-copy (mmap) inside each worker, instead of every worker
        regenerating its own in-memory copy of the same records.
        """
        from repro.traces import share

        workers = min(self.jobs, len(pending))
        entry = _timed_execute if recorder is None else _timed_execute_obs
        overlay = share.prepare(
            pending, self.cache.root if self.cache is not None else None)
        pool_kwargs = ({"initializer": share.activate,
                        "initargs": (overlay,)} if overlay else {})
        with ProcessPoolExecutor(max_workers=workers, **pool_kwargs) as pool:
            futures = {pool.submit(entry, job): job for job in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    job = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        if recorder is not None:
                            recorder.instant(
                                "job_error", "engine", job=job.label(),
                                spec=job.spec_hash()[:12], error=repr(exc))
                        raise JobExecutionError(job, exc) from exc
                    if recorder is None:
                        value, seconds = outcome
                    else:
                        value, seconds, batch = outcome
                        recorder.merge_batch(batch)
                    self._finish(job, value, seconds, results=results,
                                 report=report, printer=printer)

    def _open_recorder(self, total: int, unique: int):
        if not self.obs:
            return None
        from repro.obs import events as obs_events

        recorder = obs_events.open_run_log(
            self.obs_dir, prefix="sweep",
            meta={"jobs": total, "unique": unique, "workers": self.jobs})
        obs_events.activate(recorder)
        recorder.begin("sweep", "engine", jobs=unique, workers=self.jobs)
        # stderr on purpose: sweep stdout is byte-compared by the
        # determinism CI job, and obs must not perturb it.
        print(f"[obs] recording to {recorder.path}", file=sys.stderr)
        return recorder

    def _close_recorder(self, recorder, report: SweepReport) -> None:
        if recorder is None:
            return
        from repro.obs import events as obs_events

        recorder.end("sweep", executed=report.executed,
                     cached=report.cache_hits,
                     deduplicated=report.deduplicated,
                     wall_seconds=round(report.wall_seconds, 3))
        obs_events.deactivate()
        recorder.close()
        self.last_obs_path = recorder.path

    # ------------------------------------------------------------------
    def _finish(self, job: Job, value: Any, seconds: float, *,
                results: dict[Job, Any], report: SweepReport,
                printer) -> None:
        results[job] = value
        if self.cache is not None:
            self.cache.put(job, value)
        record = JobRecord(job=job, seconds=seconds, cached=False)
        report.records.append(record)
        printer.job_done(record)


# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """Process-wide serial engine (no cache) for library/test callers.

    Experiment modules fall back to this when no engine is passed, which
    preserves the pre-runtime behaviour exactly: inline execution, no
    on-disk state.  The CLI always builds an explicit engine from its
    ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine(jobs=1, cache=None)
    return _DEFAULT_ENGINE


def execute(jobs: Iterable[Job] | Sweep,
            engine: Engine | None = None) -> Mapping[Job, Any]:
    """Run ``jobs`` on ``engine`` (or the default serial engine)."""
    return (engine or default_engine()).run_jobs(jobs)
