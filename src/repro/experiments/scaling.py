"""Trace-scale convergence sweep (`repro scaling`).

Not a figure from the source paper — it is the experiment that
justifies trusting all the others.  The paper's evaluation replays
billions of instructions; this repro's default cells replay 60k
records, where translation-cycle fractions are still warmup-dominated
(cold page-table fetches weigh more, TLB/PWC reach never hits steady
state — calibration effect C1 of EXPERIMENTS.md).  This module sweeps
the record count across more than two orders of magnitude — at the
default report scale exactly {60k, 1M, 10M} — for the baseline and
ASAP pipelines and reports how the translation-cycle fraction
converges; the drift columns quantify how far each smaller scale sits
from the largest run.

Anything past one generation chunk streams through `repro.traces`
(bounded memory, identical statistics to a monolithic run); the
companion tool ``tools/bench.py`` measures the wall-clock/RSS of the
same record ladder into the BENCH trajectory.

``jobs_for_trace`` builds the same pair of cells around a materialised
``repro trace`` file (``repro scaling --trace``), which is how CI
streams an on-disk trace through the full job/engine/cache pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.experiments.common import (
    DEFAULT_SCALE,
    REPORT_SEEDS,
    SCHEMES,
    Engine,
    SchemeEntry,
    Table,
    aggregate,
    execute,
    mean,
    reduction,
    replicates,
    sample_key,
)
from repro.runtime.job import NATIVE, Job
from repro.sim.runner import Scale
from repro.traces.store import TraceRef

#: The convergence workload: memcached-80GB, the Table 1 anchor — a
#: big-footprint service whose 60k-record fraction is visibly far from
#: its steady state.
WORKLOAD = "mc80"

#: The two pipelines whose gap the other experiments measure.
SCHEME_NAMES = ("baseline", "asap")

#: Record-count multipliers, as fractions of the driving scale: x1,
#: x50/3 and x500/3, so the default 60k report scale lands exactly on
#: the issue's {60k, 1M, 10M} ladder and smoke scales shrink
#: proportionally.
_MULTIPLIERS = ((1, 1), (50, 3), (500, 3))


def record_counts(scale: Scale) -> tuple[int, ...]:
    return tuple(scale.trace_length * num // den
                 for num, den in _MULTIPLIERS)


def _entry(name: str) -> SchemeEntry:
    return SCHEMES[name]


def _job(records: int, entry: SchemeEntry, scale: Scale,
         trace: TraceRef | None = None) -> Job:
    # Warmup stays at the driving scale's absolute count: the sweep
    # shows the *measured window* converging as it dwarfs the warmup.
    return Job(
        kind=NATIVE,
        workload=trace.workload if trace else WORKLOAD,
        config=entry.native_config,
        scale=dataclasses.replace(scale, trace_length=records),
        scheme=entry.spec,
        trace=trace,
    )


def _cell_scales(records: int, scale: Scale, seeds: int) -> list[Scale]:
    """Replicate only the base rung: the larger rungs exist to measure
    convergence against a single long run, and replicating a 10M-record
    cell would multiply the sweep's dominant cost for a column whose
    variance the base rung already characterizes."""
    if records == scale.trace_length:
        return replicates(scale, seeds)
    return [scale]


def jobs(scale: Scale | None = None,
         seeds: int = REPORT_SEEDS) -> list[Job]:
    scale = scale or DEFAULT_SCALE
    return [_job(records, _entry(name), rep)
            for records in record_counts(scale)
            for name in SCHEME_NAMES
            for rep in _cell_scales(records, scale, seeds)]


def jobs_for_trace(ref: TraceRef, seed: int | None = None) -> list[Job]:
    """The baseline/ASAP pair replaying one materialised trace."""
    scale = Scale(trace_length=ref.records,
                  warmup=min(DEFAULT_SCALE.warmup, ref.records // 5),
                  seed=ref.seed if seed is None else seed)
    return [_job(ref.records, _entry(name), scale, trace=ref)
            for name in SCHEME_NAMES]


# ----------------------------------------------------------------------
def _table_for(job_list: list[Job], results: Mapping[Job, Any],
               title: str) -> Table:
    # Group each (records, scheme) cell's replicate jobs in list order;
    # single-replicate cells degenerate to the historical one-job cell.
    cells: dict[tuple[int, str], list[Job]] = {}
    for job in job_list:
        cells.setdefault(
            (job.scale.trace_length, job.scheme.kind), []).append(job)
    counts = sorted({records for records, _ in cells})
    samples = {
        key: [100.0 * results[job].walk_fraction for job in jobs_]
        for key, jobs_ in cells.items()
    }
    largest = counts[-1]
    table = Table(
        title=title,
        columns=["records", "baseline_pct", "asap_pct", "asap_reduction",
                 "baseline_drift_pp", "asap_drift_pp"],
        notes=("Translation-cycle fraction (% of execution cycles; lower "
               "is better).  drift_pp: percentage-point distance from "
               "the largest run — how far a small-trace measurement "
               "sits from converged steady state."),
        baseline="baseline_pct",
    )
    # The largest rung is the single convergence anchor every drift
    # column measures against.
    anchor = {name: mean(samples[(largest, name)])
              for name in SCHEME_NAMES}
    for records in counts:
        base = samples[(records, "baseline")]
        asap = samples[(records, "asap")]
        base_key = sample_key(cells[(records, "baseline")])
        asap_key = sample_key(cells[(records, "asap")])
        table.add_row(
            records=records,
            baseline_pct=aggregate(base, key=base_key),
            asap_pct=aggregate(asap, key=asap_key, baseline=base),
            asap_reduction=aggregate(
                [reduction(b, a) for b, a in zip(base, asap)],
                key="reduction:" + base_key + ";" + asap_key),
            baseline_drift_pp=aggregate(
                [b - anchor["baseline"] for b in base],
                key="drift:" + base_key),
            asap_drift_pp=aggregate(
                [a - anchor["asap"] for a in asap],
                key="drift:" + asap_key),
        )
    return table


def tables(results: Mapping[Job, Any],
           scale: Scale | None = None,
           seeds: int = REPORT_SEEDS) -> Table:
    scale = scale or DEFAULT_SCALE
    job_list = jobs(scale, seeds=seeds)
    return _table_for(
        job_list, results,
        title=(f"Scaling: translation-cycle fraction convergence "
               f"({WORKLOAD}, native, warmup {scale.warmup})"),
    )


def run(scale: Scale | None = None,
        engine: Engine | None = None,
        seeds: int = REPORT_SEEDS) -> Table:
    scale = scale or DEFAULT_SCALE
    return tables(execute(jobs(scale, seeds=seeds), engine), scale,
                  seeds=seeds)


def run_for_trace(ref: TraceRef, engine: Engine | None = None,
                  seed: int | None = None) -> Table:
    """``repro scaling --trace``: the pair of cells over one file."""
    job_list = jobs_for_trace(ref, seed=seed)
    results = execute(job_list, engine)
    return _table_for(
        job_list, results,
        title=(f"Scaling (trace {ref.digest[:12]}...): {ref.workload}, "
               f"{ref.records} records, native"),
    )
