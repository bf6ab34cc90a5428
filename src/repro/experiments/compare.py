"""Head-to-head comparison of translation schemes (`repro compare`).

Not a figure from the source paper: this races the paper's design (ASAP)
against the related-work schemes modelled in `repro.schemes` — Victima's
cache-parked TLB entries and Revelator's hash-based speculation — on the
identical workload suite, machine model and trace streams, in both
native and virtualized modes.

The ranking metric is the **translation-cycle fraction**: the share of
execution cycles the core spends stalled on address translation (probe
latencies, page walks, speculation penalties — everything the scheme is
responsible for).  Lower is better; an infinite TLB would score 0.

Every cell is replicated over ``seeds`` trace seeds (default
:data:`~repro.experiments.common.REPORT_SEEDS`) and rendered as
``mean ±95% CI``; a ``*`` marks cells whose difference from the
``baseline`` column is Mann-Whitney significant at p < 0.05.  With
``seeds=1`` the tables are byte-identical to the pre-statistics output.

The replicate-0 baseline and ASAP cells are value-equal to the figure
modules' jobs, so a ``repro sweep`` executes them once for both; the
runtime engine deduplicates and caches like every other experiment.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.experiments.common import (
    DEFAULT_SCALE,
    REPORT_SEEDS,
    SCHEMES,
    Engine,
    Table,
    aggregate,
    execute,
    mean,
    replicates,
    sample_key,
    scheme_job,
)
from repro.runtime.job import NATIVE, VIRTUALIZED, Job
from repro.sim.runner import Scale
from repro.workloads.suite import ALL_NAMES

MODES = (NATIVE, VIRTUALIZED)

#: The column every significance marker compares against.
BASELINE_SCHEME = "baseline"


def _roster(schemes: list[str] | None) -> list[str]:
    if schemes is None:
        return list(SCHEMES)
    unknown = [name for name in schemes if name not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme(s) {unknown}; "
                         f"one of {sorted(SCHEMES)}")
    return list(schemes)


def jobs(scale: Scale,
         schemes: list[str] | None = None,
         seeds: int = REPORT_SEEDS) -> list[Job]:
    return [scheme_job(kind, workload, SCHEMES[name], rep)
            for kind in MODES
            for name in _roster(schemes)
            for workload in ALL_NAMES
            for rep in replicates(scale, seeds)]


def _cell_jobs(kind: str, name: str, workload: str, scale: Scale,
               seeds: int) -> list[Job]:
    return [scheme_job(kind, workload, SCHEMES[name], rep)
            for rep in replicates(scale, seeds)]


def _samples(results: Mapping[Job, Any], cell: list[Job]) -> list[float]:
    return [100.0 * results[job].walk_fraction for job in cell]


def _detail(results: Mapping[Job, Any], kind: str, roster: list[str],
            scale: Scale, seeds: int) -> Table:
    table = Table(
        title=f"Compare ({kind}): translation-cycle fraction per "
              "workload (%; lower is better)",
        columns=["workload"] + roster,
        baseline=BASELINE_SCHEME if BASELINE_SCHEME in roster else None,
    )
    samples = {
        (workload, name): _samples(
            results, _cell_jobs(kind, name, workload, scale, seeds))
        for workload in ALL_NAMES for name in roster
    }
    keys = {
        (workload, name): sample_key(
            _cell_jobs(kind, name, workload, scale, seeds))
        for workload in ALL_NAMES for name in roster
    }
    for workload in ALL_NAMES:
        base = (samples[(workload, BASELINE_SCHEME)]
                if table.baseline else None)
        table.add_row(workload=workload, **{
            name: aggregate(
                samples[(workload, name)], key=keys[(workload, name)],
                baseline=None if name == BASELINE_SCHEME else base)
            for name in roster
        })
    # Average row: sample r is the cross-workload mean at seed r, so the
    # interval and marker describe the suite average itself.
    avg = {
        name: [mean([samples[(workload, name)][r]
                     for workload in ALL_NAMES])
               for r in range(seeds)]
        for name in roster
    }
    base_avg = avg[BASELINE_SCHEME] if table.baseline else None
    table.add_row(workload="Average", **{
        name: aggregate(
            avg[name],
            key="average:" + ",".join(keys[(workload, name)]
                                      for workload in ALL_NAMES),
            baseline=None if name == BASELINE_SCHEME else base_avg)
        for name in roster
    })
    return table


def _ranking(native: Table, virtualized: Table,
             roster: list[str]) -> Table:
    table = Table(
        title="Compare: schemes ranked by translation-cycle fraction "
              "(%; lower is better)",
        columns=["rank", "scheme", "native_%", "virtualized_%", "mean_%"],
        notes="asap = P1+P2 native / P1g+P1h+P2g+P2h virtualized; "
              "victima parks L2-TLB victims in the L2 data cache; "
              "revelator speculates on hash-placed pages (85% coverage).",
    )
    native_avg = native.row_by("workload", "Average")
    virt_avg = virtualized.row_by("workload", "Average")
    scored = sorted(
        ((native_avg[name] + virt_avg[name]) / 2.0, name)
        for name in roster
    )
    for rank, (score, name) in enumerate(scored, start=1):
        table.add_row(rank=rank, scheme=name,
                      **{"native_%": native_avg[name],
                         "virtualized_%": virt_avg[name],
                         "mean_%": score})
    return table


def tables(results: Mapping[Job, Any], scale: Scale,
           schemes: list[str] | None = None,
           seeds: int = REPORT_SEEDS,
           ) -> tuple[Table, Table, Table]:
    roster = _roster(schemes)
    native = _detail(results, NATIVE, roster, scale, seeds)
    virtualized = _detail(results, VIRTUALIZED, roster, scale, seeds)
    return (_ranking(native, virtualized, roster), native, virtualized)


def run(scale: Scale | None = None,
        engine: Engine | None = None,
        schemes: list[str] | None = None,
        seeds: int = REPORT_SEEDS,
        ) -> tuple[Table, Table, Table]:
    scale = scale or DEFAULT_SCALE
    return tables(execute(jobs(scale, schemes, seeds), engine),
                  scale, schemes, seeds)


if __name__ == "__main__":  # pragma: no cover
    for table in run():
        print(table.render())
        print()
