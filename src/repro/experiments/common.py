"""Shared infrastructure for the per-figure/table experiment modules.

Every experiment module exposes three functions:

* ``jobs(scale) -> list[Job]`` — the experiment's grid as declarative
  :class:`~repro.runtime.job.Job` specs;
* ``tables(results, scale)`` — assemble the module's
  :class:`ExperimentTable` objects from an executed results mapping;
* ``run(scale=None, engine=None)`` — the historical one-call entry point,
  now ``tables(engine.run_jobs(jobs(scale)), scale)``.

Splitting grid construction from table assembly is what lets ``repro
sweep`` batch every experiment's jobs into one engine invocation: shared
cells (every ladder's baseline, Table 1's reuse of Figure 3 scenarios, …)
execute once, and the whole batch fans out over ``--jobs`` processes.

Tables are :class:`repro.stats.tables.Table` objects — the structured
cell model shared with the incremental reporter — and render in the
paper's layout so experiment output reads side by side with the
original.  ``ExperimentTable`` remains as an alias for the many
historical call sites.

The replication axis (multi-seed cells with confidence intervals and
significance markers) lives here too: :func:`replicates` expands a base
scale into :data:`REPORT_SEEDS` seed-perturbed copies via
``Scale.with_replicate``; replicate 0 is the base scale itself, so
adding replication never invalidates a cached cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core import config as cfg
from repro.core.config import (
    BASELINE,
    NATIVE_LADDER,
    VIRT_LADDER,
    AsapConfig,
)
from repro.runtime.engine import Engine, execute
from repro.runtime.job import NATIVE, VIRTUALIZED, Job
from repro.schemes import SchemeSpec
from repro.sim.runner import Scale
from repro.stats.tables import Cell, Table, aggregate

__all__ = [
    "CONFIGS",
    "Cell",
    "DEFAULT_SCALE",
    "DEPLOYMENT_SCENARIOS",
    "Engine",
    "ExperimentTable",
    "NATIVE_LADDER",
    "REPORT_SEEDS",
    "SCHEMES",
    "SchemeEntry",
    "Table",
    "VIRT_LADDER",
    "aggregate",
    "deployment_job",
    "execute",
    "mean",
    "reduction",
    "replicates",
    "sample_key",
    "scheme_job",
]

#: Default scale for experiment modules when none is given.
DEFAULT_SCALE = Scale(trace_length=60_000, warmup=12_000, seed=42)

#: Default replicate count for the comparative experiments
#: (compare/mt/scaling): every report-scale cell is measured over this
#: many seeds and rendered as ``mean ±95% CI``.
REPORT_SEEDS = 5


def replicates(scale: Scale, seeds: int) -> list[Scale]:
    """``seeds`` replicate scales of ``scale`` (replicate 0 = itself)."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    return [scale.with_replicate(r) for r in range(seeds)]


def sample_key(jobs: Iterable[Job]) -> str:
    """The deterministic seeding key for a cell's resampling streams:
    the joined spec hashes of the jobs whose samples it summarizes."""
    return ",".join(job.spec_hash() for job in jobs)

#: Canonical name -> AsapConfig registry: the one source of truth for
#: the CLI's ``--config`` choices and any module that needs a ladder by
#: name.  The ladders themselves (:data:`NATIVE_LADDER`,
#: :data:`VIRT_LADDER`) are re-exported above so figure modules stop
#: re-listing configs locally.
CONFIGS: dict[str, AsapConfig] = {
    "baseline": cfg.BASELINE,
    "p1": cfg.P1,
    "p1+p2": cfg.P1_P2,
    "p1g": cfg.P1G,
    "p1g+p2g": cfg.P1G_P2G,
    "p1g+p1h": cfg.P1G_P1H,
    "full": cfg.FULL_2D,
    "large-host": cfg.LARGE_HOST,
}


@dataclass(frozen=True)
class SchemeEntry:
    """One competitor in the head-to-head comparison: the scheme spec
    plus the ASAP ladder config it rides in each mode (non-ASAP schemes
    carry the baseline config in both)."""

    name: str
    spec: SchemeSpec
    native_config: AsapConfig = BASELINE
    virt_config: AsapConfig = BASELINE


#: The ``repro compare`` roster, strongest config per scheme and mode.
SCHEMES: dict[str, SchemeEntry] = {
    "baseline": SchemeEntry("baseline", SchemeSpec(kind="baseline")),
    "asap": SchemeEntry("asap", SchemeSpec(kind="asap"),
                        native_config=cfg.P1_P2, virt_config=cfg.FULL_2D),
    "victima": SchemeEntry("victima", SchemeSpec.victima()),
    "revelator": SchemeEntry("revelator", SchemeSpec.revelator()),
}


def scheme_job(kind: str, workload: str, entry: SchemeEntry,
               scale: Scale, kernel: str = "scalar") -> Job:
    """One comparison cell: ``entry``'s scheme in ``kind`` mode.

    At the default (scalar) kernel the baseline and ASAP cells are
    value-equal to the jobs the figure modules emit (same config, same
    derived scheme), so the engine deduplicates them across ``repro
    compare`` and the ladders.
    """
    config = (entry.native_config if kind == NATIVE
              else entry.virt_config)
    return Job(kind=kind, workload=workload, config=config, scale=scale,
               scheme=entry.spec, kernel=kernel)

#: The four deployment scenarios of Figures 2/3 as (column label, job
#: kind, colocated).  Shared so both figures — and anything else sweeping
#: the deployment dimension — emit value-equal jobs that the engine can
#: deduplicate across experiments.
DEPLOYMENT_SCENARIOS = (
    ("native", NATIVE, False),
    ("native+coloc", NATIVE, True),
    ("virtualized", VIRTUALIZED, False),
    ("virt+coloc", VIRTUALIZED, True),
)


def deployment_job(name: str, kind: str, colocated: bool,
                   scale: Scale) -> Job:
    """One baseline deployment-scenario cell (Figures 2/3, Table 1)."""
    return Job(kind=kind, workload=name, config=BASELINE, scale=scale,
               colocated=colocated)


#: Back-compat alias: the table model lives in :mod:`repro.stats.tables`
#: so code outside the experiments can use it without importing them.
ExperimentTable = Table


def reduction(baseline: float, improved: float) -> float:
    """Relative reduction (%), the paper's headline arithmetic."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (1.0 - improved / baseline)


def mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
