"""Aggregation: event log -> phase/component tables.

Turns one run's events into the questions the log exists to answer:
where did the wall-clock go (per job, per phase), how busy was each
worker, and how much did the cache save.  The same :func:`phase_totals`
helper feeds the bench tool's per-cell phase breakdowns.
"""

from __future__ import annotations

from typing import Any

from repro.obs.reader import counters, instants, spans

#: Simulator phases in presentation order.  ``simulate`` is the parent
#: of ``warmup``/``measure`` and is reported separately.
PHASES = ("setup", "populate", "warmup", "measure")


def phase_totals(header: dict[str, Any],
                 events: list[dict[str, Any]],
                 pid: int | None = None,
                 t0: float | None = None,
                 t1: float | None = None) -> dict[str, float]:
    """Total seconds per phase name, optionally windowed to one job.

    Multi-tenant runs emit one ``warmup``/``measure`` pair per quantum;
    the totals sum them, which is exactly the per-phase attribution the
    table wants.
    """
    totals: dict[str, float] = {}
    for span in spans(header, events):
        if span["name"] not in PHASES:
            continue
        if pid is not None and span["pid"] != pid:
            continue
        if t0 is not None and (span["t0"] < t0 or span["t1"] > t1):
            continue
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + span["dur"])
    return {name: round(value, 6) for name, value in totals.items()}


def summarize(header: dict[str, Any],
              events: list[dict[str, Any]]) -> dict[str, Any]:
    """The run digest: sweep totals, per-job phases, worker utilization,
    cache hit rate.  Everything ``render_summary`` and the dashboard
    show comes from this one structure."""
    all_spans = spans(header, events)
    sweep = next((s for s in all_spans if s["name"] == "sweep"), None)
    job_spans = [s for s in all_spans if s["name"] == "job"]
    hits = instants(header, events, "cache_hit")
    errors = instants(header, events, "job_error")

    jobs = []
    for job in sorted(job_spans, key=lambda s: s["t0"]):
        phases = phase_totals(header, events, pid=job["pid"],
                              t0=job["t0"], t1=job["t1"])
        accounted = sum(phases.values())
        phases["other"] = round(max(job["dur"] - accounted, 0.0), 6)
        jobs.append({
            "job": job["args"].get("job", "?"),
            "spec": job["args"].get("spec", ""),
            "pid": job["pid"],
            "t0": job["t0"],
            "seconds": job["dur"],
            "phases": phases,
        })

    wall = sweep["dur"] if sweep else (
        max((j["t0"] + j["seconds"] for j in jobs), default=0.0)
        - min((j["t0"] for j in jobs), default=0.0))
    workers = []
    by_pid: dict[int, list[dict[str, Any]]] = {}
    for job in jobs:
        by_pid.setdefault(job["pid"], []).append(job)
    for pid in sorted(by_pid):
        busy = sum(job["seconds"] for job in by_pid[pid])
        workers.append({
            "pid": pid,
            "jobs": len(by_pid[pid]),
            "busy_seconds": round(busy, 6),
            "utilization": round(busy / wall, 4) if wall else 0.0,
        })

    executed = len(jobs)
    total = executed + len(hits)
    chunk_samples = counters(header, events, "chunk")
    return {
        "run_id": header.get("run_id"),
        "meta": header.get("meta", {}),
        "wall_seconds": round(wall, 6),
        "jobs": jobs,
        "workers": workers,
        "cache": {
            "hits": len(hits),
            "executed": executed,
            "total": total,
            "hit_rate": round(len(hits) / total, 4) if total else 0.0,
        },
        "errors": [e.get("args", {}) for e in errors],
        "samples": len(chunk_samples),
    }


def _fmt_seconds(value: float) -> str:
    return f"{value:8.3f}s"


def render_summary(summary: dict[str, Any]) -> str:
    """The ``repro obs summary`` table."""
    lines = []
    cache = summary["cache"]
    lines.append(f"run {summary['run_id']}  wall "
                 f"{summary['wall_seconds']:.3f}s  "
                 f"jobs {cache['total']} "
                 f"({cache['executed']} executed, {cache['hits']} cached, "
                 f"hit rate {100 * cache['hit_rate']:.0f}%)  "
                 f"chunk samples {summary['samples']}")
    lines.append("")
    header = (f"{'job':<44} {'pid':>7} {'total':>9} "
              + " ".join(f"{phase:>9}" for phase in PHASES)
              + f" {'other':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    totals = {phase: 0.0 for phase in (*PHASES, "other")}
    total_seconds = 0.0
    for job in summary["jobs"]:
        row = f"{job['job']:<44.44} {job['pid']:>7} "
        row += _fmt_seconds(job["seconds"])
        total_seconds += job["seconds"]
        for phase in (*PHASES, "other"):
            value = job["phases"].get(phase, 0.0)
            totals[phase] += value
            row += " " + _fmt_seconds(value)
        lines.append(row)
    if summary["jobs"]:
        lines.append("-" * len(header))
        row = f"{'all jobs':<44} {'':>7} " + _fmt_seconds(total_seconds)
        for phase in (*PHASES, "other"):
            row += " " + _fmt_seconds(totals[phase])
        lines.append(row)
    lines.append("")
    lines.append(f"{'worker pid':>12} {'jobs':>6} {'busy':>9} "
                 f"{'utilization':>12}")
    for worker in summary["workers"]:
        lines.append(f"{worker['pid']:>12} {worker['jobs']:>6} "
                     + _fmt_seconds(worker["busy_seconds"])
                     + f" {100 * worker['utilization']:>11.1f}%")
    for error in summary["errors"]:
        lines.append(f"ERROR job {error.get('job')} "
                     f"(spec {error.get('spec')}): {error.get('error')}")
    return "\n".join(lines)
