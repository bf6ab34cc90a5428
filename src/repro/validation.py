"""Executable checklist of the paper's qualitative claims.

Each check re-runs the relevant scenarios at a configurable scale and
verifies one *shape* the paper reports — an ordering, a monotonicity, a
sign.  ``python -m repro validate`` runs them all; the test suite runs
them at a tiny scale.  This is the repository's continuously verified
statement of what "reproduced" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import config as cfg
from repro.experiments import ablations, fig9, fig11, table6
from repro.sim.runner import Scale, run_native, run_virtualized


@dataclass(frozen=True)
class ShapeCheck:
    claim: str
    where: str  # paper section / figure
    check: Callable[[Scale], bool]


def _walk_latency(workload, config, scale, **kwargs) -> float:
    runner = (run_virtualized if kwargs.pop("virtualized", False)
              else run_native)
    return runner(workload, config, scale=scale, collect_service=False,
                  **kwargs).avg_walk_latency


def _check_pressure_ladder(scale: Scale) -> bool:
    native = _walk_latency("mc80", cfg.BASELINE, scale)
    coloc = _walk_latency("mc80", cfg.BASELINE, scale, colocated=True)
    virt = _walk_latency("mc80", cfg.BASELINE, scale, virtualized=True)
    virt_coloc = _walk_latency("mc80", cfg.BASELINE, scale,
                               virtualized=True, colocated=True)
    return native < coloc < virt < virt_coloc


def _check_bigger_dataset_slower(scale: Scale) -> bool:
    return (_walk_latency("mc400", cfg.BASELINE, scale)
            > _walk_latency("mc80", cfg.BASELINE, scale))


def _check_native_asap_ladder(scale: Scale) -> bool:
    base = _walk_latency("mc400", cfg.BASELINE, scale)
    p1 = _walk_latency("mc400", cfg.P1, scale)
    p12 = _walk_latency("mc400", cfg.P1_P2, scale)
    return p12 <= p1 * 1.01 and p1 < base


def _check_coloc_grows_asap_win(scale: Scale) -> bool:
    base_iso = _walk_latency("mc80", cfg.BASELINE, scale)
    asap_iso = _walk_latency("mc80", cfg.P1_P2, scale)
    base_col = _walk_latency("mc80", cfg.BASELINE, scale, colocated=True)
    asap_col = _walk_latency("mc80", cfg.P1_P2, scale, colocated=True)
    return (1 - asap_col / base_col) > (1 - asap_iso / base_iso)


def _check_host_dimension_dominates(scale: Scale) -> bool:
    # mc400: the large-footprint case where host walks dominate (§5.2).
    # The effect needs the host PT to outgrow the caches, which takes a
    # minimum trace length — below it, this check runs at a scale floor.
    if scale.trace_length < 30_000:
        scale = Scale(trace_length=30_000, warmup=6_000, seed=scale.seed)
    guest_only = _walk_latency("mc400", cfg.P1G_P2G, scale,
                               virtualized=True)
    with_host = _walk_latency("mc400", cfg.P1G_P1H, scale,
                              virtualized=True)
    return with_host < guest_only


def _check_full_2d_best(scale: Scale) -> bool:
    latencies = [
        _walk_latency("mc80", config, scale, virtualized=True)
        for config in cfg.VIRT_LADDER
    ]
    return latencies[-1] == min(latencies) and latencies[-1] < latencies[0]


def _check_large_host_pages(scale: Scale) -> bool:
    base_4k = _walk_latency("mc80", cfg.BASELINE, scale, virtualized=True)
    base_2m = _walk_latency("mc80", cfg.BASELINE, scale, virtualized=True,
                            host_page_level=2)
    asap_2m = _walk_latency("mc80", cfg.LARGE_HOST, scale, virtualized=True,
                            host_page_level=2)
    return base_2m < base_4k and asap_2m < base_2m


def _check_pwc_doubling_marginal(scale: Scale) -> bool:
    from repro.params import DEFAULT_MACHINE

    base = _walk_latency("redis", cfg.BASELINE, scale)
    doubled = run_native("redis", cfg.BASELINE,
                         machine=DEFAULT_MACHINE.with_pwc_scale(2),
                         scale=scale, collect_service=False)
    return doubled.avg_walk_latency > base * 0.85  # buys < 15%


def _check_service_structure(scale: Scale) -> bool:
    mcf_iso, redis_iso, mcf_coloc, _redis_coloc = fig9.run(scale)
    mcf = {level: mcf_iso.row_by("pt_level", level)
           for level in ("PL4", "PL3", "PL2", "PL1")}
    return (mcf["PL4"]["PWC"] > 90 and mcf["PL3"]["PWC"] > 60
            and mcf["PL1"]["L1"] > 40
            and redis_iso.row_by("pt_level", "PL2")["PWC"]
            < mcf["PL2"]["PWC"]
            and mcf_coloc.row_by("pt_level", "PL1")["L1"]
            < mcf["PL1"]["L1"])


def _check_projection(scale: Scale) -> bool:
    table = table6.run(scale)
    average = table.row_by("workload", "Average")
    gain = {row["workload"]: row["min_improvement_%"] for row in table.rows}
    return (average["critical_path_%"] > 10
            and average["asap_reduction_%"] > 15
            and average["min_improvement_%"] > 3
            and gain["bfs"] > gain["mcf"]
            and gain["pagerank"] > gain["mcf"] * 0.9)


def _check_clustered_vs_asap(scale: Scale) -> bool:
    fig, tab7 = fig11.run(scale)
    average = fig.row_by("workload", "Average")
    mpki_cut = {row["workload"]: row["reduction_%"] for row in tab7.rows}
    return (average["ASAP_%"] > average["ClusteredTLB_%"]
            and average["Clustered+ASAP_%"] >= average["ASAP_%"]
            and fig.row_by("workload", "mcf")["Clustered+ASAP_%"] > 0
            and mpki_cut["mcf"] > 30 and mpki_cut["canneal"] > 20
            and mpki_cut["mc400"] < 20)


def _check_five_level(scale: Scale) -> bool:
    return all(row["5L_P1+P2+P3"] <= row["5L_P1+P2"] * 1.01
               and row["5L_red_%"] > 0
               for row in ablations.run_five_level(scale).rows)


def _check_holes_degrade_gracefully(scale: Scale) -> bool:
    rows = ablations.run_holes(scale).rows
    useful = [row["useful_prefetch_%"] for row in rows]
    return (useful == sorted(useful, reverse=True)
            and rows[-1]["avg_walk"] >= rows[0]["avg_walk"])


CHECKS: tuple[ShapeCheck, ...] = (
    ShapeCheck("walk latency: native < +SMT < virtualized < virt+SMT",
               "Table 1 / Figure 3", _check_pressure_ladder),
    ShapeCheck("5x dataset -> longer walks", "Table 1",
               _check_bigger_dataset_slower),
    ShapeCheck("native ladder: Baseline > P1 >= P1+P2", "Figure 8",
               _check_native_asap_ladder),
    ShapeCheck("ASAP's reduction grows under colocation", "Figure 8b",
               _check_coloc_grows_asap_win),
    ShapeCheck("host-dimension prefetching beats guest-only", "Figure 10",
               _check_host_dimension_dominates),
    ShapeCheck("P1g+P1h+P2g+P2h is the best virtualized config",
               "Figure 10", _check_full_2d_best),
    ShapeCheck("2MB host pages shorten walks; ASAP still helps",
               "Figure 12", _check_large_host_pages),
    ShapeCheck("doubling PWC capacity buys little", "§5.1.1",
               _check_pwc_doubling_marginal),
    ShapeCheck("mcf's upper PT levels hit the PWC, redis misses it at "
               "PL2, colocation drains the L1-D share", "Figure 9",
               _check_service_structure),
    ShapeCheck("walks are a large critical-path share; graph workloads "
               "project the largest improvement", "Table 6",
               _check_projection),
    ShapeCheck("ASAP cuts more walk cycles than Clustered TLB and they "
               "compose; coalescing helps mcf/canneal, not mc400",
               "Figure 11 / Table 7", _check_clustered_vs_asap),
    ShapeCheck("five-level PT: the PL3 prefetch never hurts and ASAP "
               "beats the five-level baseline", "§3.5", _check_five_level),
    ShapeCheck("more PT-region holes: fewer useful prefetches, no "
               "faster walks", "§3.7.2", _check_holes_degrade_gracefully),
)


def validate_shapes(scale: Scale, verbose: bool = False) -> list[str]:
    """Run every shape check; returns the claims that failed."""
    failures = []
    for check in CHECKS:
        ok = check.check(scale)
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {check.claim} "
                  f"({check.where})")
        if not ok:
            failures.append(check.claim)
    if verbose:
        print(f"\n{len(CHECKS) - len(failures)}/{len(CHECKS)} shapes hold.")
    return failures
