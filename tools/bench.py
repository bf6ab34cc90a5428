#!/usr/bin/env python3
"""Wall-clock trajectory of the simulator's cells: the repo's perf gate.

Usage::

    python tools/bench.py [--records 60000,1000000,10000000]
        [--schemes baseline,asap] [--kernel scalar|columnar]
        [--seed 42] [--seeds 1] [--output BENCH_trajectory.json]
        [--label TEXT]
        [--check-against BENCH_trajectory.json [--threshold 1.25]]

Every cell is one runtime ``Job`` on the mc80 convergence workload: a
scheme from ``--schemes`` (any entry of
``repro.experiments.common.SCHEMES``, built by ``repro scaling``'s own
``_job``, or ``baseline-mt2``, two baseline tenants switching with a
full flush every records/8) at each record count in ``--records``.
Every cell of a run has the same warmup, a fifth of the smallest count,
so the default ladder's cells are exactly ``repro scaling``'s.  Each
cell runs ``--seeds`` times, on the replicate seeds of
``Scale.with_replicate``, and every run executes in a fresh child
interpreter under ``repro.obs.capture()``.  The child generates the
cell's traces and loads the compiled backend before the timer, so the
timer covers the simulation (setup, populate, warmup, measure; past
one generation chunk a trace streams, and its generation runs inside
the simulation), and ``ru_maxrss`` is that run's own high-water mark.

The run appends one entry to the JSON trajectory ``--output``.  Every
row has one schema: ``scheme``, ``records``, ``warmup``, the requested
``kernel``, the ``mode`` the runs' ``simulate`` spans name (``plain``,
``asap``, ``victima``, ``revelator``, or ``scalar`` when a cell ran the
record loop), the unrounded ``per_seed_seconds`` and their median
``seconds``, the highest ``peak_rss_mb``, the median ``phases`` and the
base seed's walk statistics.  Each entry records the interpreter, machine, git commit,
whether ``src/`` or ``tools/`` had uncommitted changes (``dirty``) and
``runtime.cache.code_version()``, so a number names the code that made
it.

``--check-against FILE`` is the perf gate.  It reads the entries of
FILE that this tool measured with the same kernel (the converted
history of the two older tools timed other regions and is never a
reference) and exits non-zero, before timing anything, if there are
none.  Each cell's reference is the median of the same ``(scheme,
records, warmup)`` cell over the latest three of those entries that
have it, so one entry taken in a fast or a slow minute of a shared
host does not set the bar alone.  Both sides are medians over seeds of
unrounded seconds, and a ratio above ``--threshold`` fails.  A cell
with no reference is reported and does not fail, but a run none of
whose cells has a reference exits non-zero before timing anything: it
would check nothing.  The reference is read before anything is
appended, so FILE may be the output itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import scaling  # noqa: E402
from repro.experiments.common import SCHEMES  # noqa: E402
from repro.runtime.cache import code_version  # noqa: E402
from repro.runtime.job import NATIVE, Job  # noqa: E402
from repro.sim import columnar  # noqa: E402
from repro.sim.multitenant import (  # noqa: E402
    MultiTenantSpec,
    _per_tenant_length,
    tenant_seed,
)
from repro.sim.runner import Scale, make_trace  # noqa: E402
from repro.stats.kernels import median  # noqa: E402
from repro.workloads.suite import get, tenant_names  # noqa: E402

WORKLOAD = scaling.WORKLOAD
TOOL = "tools/bench.py"
#: The multi-tenant cell: two baseline tenants, full-flush switching,
#: a quantum of records/8 so every record count sees the same
#: switches-per-record density.
MT_CELL = "baseline-mt2"
CELLS = (*SCHEMES, MT_CELL)
LADDER = "60000,1000000,10000000"
WALK_STATS = ("walks", "walk_cycles", "translation_fraction",
              "avg_walk_latency")
#: The gate's reference for a cell is its median over this many of the
#: latest entries that have it.
REFERENCE_ENTRIES = 3
_CHILD_FLAG = "--run-cell"


def make_job(scheme: str, records: int, warmup: int, kernel: str,
             seed: int, replicate: int = 0) -> Job:
    """The ``Job`` one run of a cell executes."""
    scale = Scale(trace_length=records, warmup=warmup,
                  seed=seed).with_replicate(replicate)
    if scheme == MT_CELL:
        mt = MultiTenantSpec(tenants=2, quantum=max(1, records // 8),
                             switch_policy="flush")
        return Job(kind=NATIVE, workload=WORKLOAD, scale=scale,
                   multi_tenant=mt, kernel=kernel)
    return dataclasses.replace(scaling._job(records, SCHEMES[scheme], scale),
                               kernel=kernel)


def generate_traces(job: Job) -> None:
    """Put the job's traces in the in-process trace cache, where its
    run finds them (a trace past one generation chunk streams and is
    generated during the run whatever is cached)."""
    if job.multi_tenant is None:
        make_trace(get(job.workload), job.scale)
        return
    tenants = job.multi_tenant.tenants
    length = _per_tenant_length(job.scale, tenants)
    for index, name in enumerate(tenant_names(job.workload, tenants)):
        make_trace(get(name),
                   Scale(length, 0, tenant_seed(job.scale.seed, index)))


def _child_main(spec_json: str) -> int:
    from repro.obs.events import capture
    from repro.obs.summary import phase_totals
    from repro.runtime.job import execute_job

    job = make_job(**json.loads(spec_json))
    # Neither trace generation nor loading (perhaps compiling) the
    # kernel is the cell's cost.
    generate_traces(job)
    if job.kernel == "columnar":
        columnar.columnar_available()
    with capture() as recorder:
        started = time.perf_counter()
        stats = execute_job(job)
        seconds = time.perf_counter() - started
    events = recorder.export_batch()["events"]
    print(json.dumps({
        "seconds": seconds,
        "modes": sorted({event["args"]["kernel"] for event in events
                         if event["type"] == "B"
                         and event["name"] == "simulate"}),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phases": phase_totals({"pid": os.getpid()}, events),
        "walks": stats.walks,
        "walk_cycles": stats.walk_cycles,
        "translation_fraction": stats.walk_fraction,
        "avg_walk_latency": stats.avg_walk_latency,
    }))
    return 0


def run_child(spec: dict) -> dict:
    """One run of one cell, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), _CHILD_FLAG,
         json.dumps(spec)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"cell {spec['scheme']}@{spec['records']} "
                         f"failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(scheme: str, records: int, warmup: int, kernel: str,
              runs: list[dict]) -> dict:
    """One row from a cell's per-seed runs (``runs[0]`` is the base
    seed, whose walk statistics the row keeps)."""
    per_seed = [run["seconds"] for run in runs]
    return {
        "scheme": scheme,
        "records": records,
        "warmup": warmup,
        "kernel": kernel,
        "mode": "+".join(sorted({mode for run in runs
                                 for mode in run["modes"]})),
        "seconds": median(per_seed),
        "per_seed_seconds": per_seed,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "phases": {name: median([run["phases"].get(name, 0.0)
                                 for run in runs])
                   for name in runs[0]["phases"]},
        **{name: runs[0][name] for name in WALK_STATS},
    }


def measure_cell(scheme: str, records: int, warmup: int, kernel: str,
                 seed: int, seeds: int) -> dict:
    runs = [run_child({"scheme": scheme, "records": records,
                       "warmup": warmup, "kernel": kernel, "seed": seed,
                       "replicate": rep})
            for rep in range(seeds)]
    return summarize(scheme, records, warmup, kernel, runs)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_metadata() -> dict:
    """What makes an entry interpretable on a noisy box: the same cell
    on another interpreter, machine or code is a different number."""
    status = _git("status", "--porcelain", "--", "src", "tools")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "code_version": code_version(),
    }


def atomic_append_entry(path: Path, entry: dict,
                        merged_document) -> dict:
    """Append ``entry`` to a trajectory file without losing concurrent
    writers' entries.

    The read-merge-write runs under an ``fcntl`` lock on a sidecar file
    (``<name>.lock``), so two benches appending to one trajectory
    serialise instead of clobbering each other.  ``merged_document()``
    is called *inside* the lock to (re-)read the current file; the
    result is written to a temp file and ``os.replace``d into place, so
    readers never observe a torn JSON.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a+", encoding="utf-8") as lock_fh:
        try:
            import fcntl

            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
        except ImportError:  # non-POSIX: best effort, still atomic
            pass
        document = merged_document()
        document["entries"].append(entry)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2) + "\n")
        os.replace(tmp, path)
    return document


def _cell(row: dict) -> tuple[str, int, int]:
    return row["scheme"], row["records"], row["warmup"]


def reference_cells(path: Path,
                    kernel: str) -> dict[tuple[str, int, int], dict]:
    """Every cell of ``path`` this tool measured with ``kernel``: its
    median seconds over the latest ``REFERENCE_ENTRIES`` entries that
    have it, and those entries' dates."""
    if not path.exists():
        raise SystemExit(f"reference file {path} does not exist")
    entries = [entry for entry in json.loads(path.read_text())["entries"]
               if entry.get("tool") == TOOL and entry["kernel"] == kernel]
    if not entries:
        raise SystemExit(f"reference file {path} has no {TOOL} entry "
                         f"measured with --kernel {kernel}")
    found: dict[tuple[str, int, int], list[tuple[str, float]]] = {}
    for entry in entries:
        for row in entry["results"]:
            found.setdefault(_cell(row), []).append(
                (entry["generated"], row["seconds"]))
    return {cell: {"seconds": median([sec for _, sec in latest]),
                   "generated": [date for date, _ in latest]}
            for cell, hits in found.items()
            for latest in [hits[-REFERENCE_ENTRIES:]]}


def check_against(rows: list[dict], reference: dict, threshold: float,
                  name: str = "reference") -> int:
    """The perf gate; returns the exit code."""
    failures = []
    print(f"\nperf check vs {name} (threshold {threshold:.2f}x)")
    for row in rows:
        label = f"{row['scheme']:12s} {row['records']:>10,d}"
        ref = reference.get(_cell(row))
        if ref is None:
            print(f"  {label}  no reference cell: not gated")
            continue
        ratio = row["seconds"] / ref["seconds"]
        verdict = "ok" if ratio <= threshold else "FAIL"
        print(f"  {label}  {row['seconds']:9.4f}s vs {ref['seconds']:9.4f}s"
              f" ({ratio:5.2f}x, median of {len(ref['generated'])} "
              f"entries, latest {ref['generated'][-1]}) {verdict}")
        if verdict == "FAIL":
            failures.append(f"{row['scheme']}@{row['records']}")
    if failures:
        print(f"perf check FAILED for: {', '.join(failures)}")
        return 1
    print("perf check passed")
    return 0


def _records(text: str) -> list[int]:
    counts = [int(part) for part in text.split(",") if part.strip()]
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected positive comma-separated record counts")
    return counts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [_CHILD_FLAG]:
        return _child_main(argv[1])
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", type=_records, default=LADDER,
                        help=f"comma-separated record counts "
                             f"(default {LADDER})")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", type=int, default=1,
                        help="runs per cell, on replicate seeds; a row's "
                             "seconds is their median")
    parser.add_argument("--kernel", choices=columnar.KERNELS,
                        default="scalar")
    parser.add_argument("--schemes", default="baseline,asap",
                        help=f"comma-separated cells, from "
                             f"{','.join(CELLS)} (default baseline,asap)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_trajectory.json"))
    parser.add_argument("--label", default=None)
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="gate every cell against FILE and exit "
                             "non-zero on a regression")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed slowdown factor for --check-against")
    args = parser.parse_args(argv)

    schemes = [name.strip() for name in args.schemes.split(",")
               if name.strip()]
    unknown = sorted(set(schemes) - set(CELLS))
    if unknown or not schemes:
        parser.error(f"--schemes: unknown cell(s) {', '.join(unknown)}; "
                     f"valid: {', '.join(CELLS)}")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.kernel == "columnar":
        # A scalar run must never be written down as a columnar one.
        try:
            available = columnar.columnar_available()
        except RuntimeError as exc:
            raise SystemExit(f"--kernel columnar: {exc}")
        if not available:
            raise SystemExit("--kernel columnar: the compiled backend is "
                             "unavailable (needs cffi and a C compiler)")
    warmup = min(args.records) // 5
    cells = [(scheme, records, warmup) for records in args.records
             for scheme in schemes]
    reference = None
    if args.check_against:
        reference = reference_cells(Path(args.check_against), args.kernel)
        if not reference.keys() & set(cells):
            raise SystemExit(f"--check-against: no cell of this run has a "
                             f"reference in {args.check_against}, so it "
                             f"would check nothing")

    rows = []
    for scheme, records, _ in cells:
        row = measure_cell(scheme, records, warmup, args.kernel, args.seed,
                           args.seeds)
        rows.append(row)
        print(f"  {scheme:12s} {records:>10,d}  {row['seconds']:9.4f}s"
              f"  {row['mode']:8s} {row['peak_rss_mb']:8.1f}MB  "
              f"walk%={100 * row['translation_fraction']:.2f}")

    entry = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "label": args.label,
        "tool": TOOL,
        "kernel": args.kernel,
        "seed": args.seed,
        "seeds": args.seeds,
        "env": environment_metadata(),
        "results": rows,
    }
    output = Path(args.output)

    def merged_document() -> dict:
        if output.exists():
            return json.loads(output.read_text())
        return {"benchmark": "simulator cell wall-clock",
                "workload": WORKLOAD, "entries": []}

    atomic_append_entry(output, entry, merged_document)
    print(f"appended entry to {output}")
    if reference is not None:
        return check_against(rows, reference, args.threshold,
                             args.check_against)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
