#!/usr/bin/env python3
"""Wall-clock / peak-RSS trajectory for the scaling experiment's cells.

Usage::

    python tools/bench_scaling.py [--trace-length 60000]
        [--seeds 1] [--kernel scalar|columnar]
        [--output BENCH_scaling.json] [--label TEXT]
        [--check-against BENCH_scaling.json [--threshold 1.25]]

Runs every cell of the `repro scaling` grid (records x {baseline, asap}
on the convergence workload) and appends one entry to a JSON trajectory
(same shape as ``BENCH_schemes.json``): per-cell wall seconds, peak RSS,
an observability phase breakdown (setup/populate/warmup/measure seconds,
captured via ``repro.obs``) and the headline statistics.  Each cell
executes in a fresh child interpreter so ``ru_maxrss`` is a true
per-cell high-water mark — the number that demonstrates the streaming
front end keeps a 10M-record run bounded by the execution chunk, not the
trace length.

``--kernel`` selects the simulation engine (the scalar record loop or
the compiled columnar chunk kernel); it is recorded per entry and per
row, so the trajectory can hold both engines' histories side by side.
``--check-against`` mirrors ``bench_schemes.py``'s CI perf gate: rerun
(CI uses a reduced ``--trace-length``), normalise both sides to seconds
per record, and fail if any cell of the ladder is slower than the
reference entry's matching cell by more than ``--threshold``.

``--seeds N`` replays the *base rung* on N replicate trace seeds
(``Scale.with_replicate`` — the same replicate axis the experiment
tables aggregate over; the 1M/10M rungs stay single-seed, matching
``repro scaling``'s own replication policy).  A replicated cell's row
keeps one (scheme, records) entry whose ``seconds``/``wall_seconds``
are medians over the replicates, with the per-seed times and spread
recorded alongside, so the ``--check-against`` gate compares
median-of-replicates instead of trusting a single trace seed.

This is deliberately a *tool*, not part of the experiment: the
experiment's tables must stay deterministic (the sweep-determinism CI
gate byte-compares them), while wall-clock and RSS are machine facts
that belong in the BENCH trajectory next to ``bench_schemes``.
"""

from __future__ import annotations

import argparse
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

from bench_schemes import atomic_append_entry  # noqa: E402
from bench_schemes import environment_metadata  # noqa: E402
from repro.experiments import scaling  # noqa: E402
from repro.sim.runner import Scale  # noqa: E402
from repro.stats.kernels import median  # noqa: E402

_CHILD_FLAG = "--run-cell"


def _run_cell_in_child(records: int, scheme: str, scale: Scale,
                       kernel: str) -> dict:
    """Execute one cell in a fresh interpreter; returns its measurement."""
    spec = json.dumps({
        "records": records, "scheme": scheme,
        "warmup": scale.warmup, "seed": scale.seed, "kernel": kernel,
    })
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), _CHILD_FLAG, spec],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(
            f"cell {scheme}@{records} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_seconds"] = round(elapsed, 2)
    return result


def _child_main(spec_json: str) -> int:
    spec = json.loads(spec_json)
    job = scaling._job(
        spec["records"], scaling._entry(spec["scheme"]),
        Scale(trace_length=spec["records"], warmup=spec["warmup"],
              seed=spec["seed"]),
        kernel=spec.get("kernel", "scalar"))
    from repro.obs.events import capture
    from repro.obs.summary import phase_totals
    from repro.runtime.job import execute_job
    from repro.sim import columnar

    # Load the compiled backend before the timer starts: in a cold build
    # directory loading it compiles the kernel, which is not the cell's
    # cost.  Honours REPRO_REQUIRE_CCORE like the run itself would.
    if job.kernel == "columnar":
        columnar.columnar_available()
    # The cell runs under an in-memory obs capture: the simulator's
    # phase spans (setup/populate/warmup/measure) become the per-cell
    # breakdown next to peak RSS.  Sampling happens only at chunk
    # boundaries, so its cost is noise at these scales and the timing
    # stays an honest cell measurement.
    started = time.perf_counter()
    with capture() as recorder:
        stats = execute_job(job)
    seconds = time.perf_counter() - started
    batch = recorder.export_batch()
    phases = phase_totals({"pid": batch["pid"]}, batch["events"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "scheme": spec["scheme"],
        "records": spec["records"],
        "kernel": job.kernel,
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(rss_kb / 1024, 1),
        "phases": {name: round(value, 3)
                   for name, value in phases.items()},
        "walks": stats.walks,
        "translation_fraction": round(stats.walk_fraction, 4),
        "avg_walk_latency": round(stats.avg_walk_latency, 1),
    }))
    return 0


def _bench_cell(records: int, scheme: str, scale: Scale, kernel: str,
                seeds: int) -> dict:
    """One (records, scheme) row, replicated across trace seeds on the
    base rung only (the larger rungs mirror ``repro scaling``'s
    single-seed policy — replicating a 10M-record cell would multiply
    the bench's dominant cost).

    The row keeps the replicate-0 child's behaviour statistics, phases
    and RSS; ``seconds``/``wall_seconds`` become medians over the
    replicates so the perf gate compares median-of-replicates.
    """
    replicated = records == scale.trace_length and seeds > 1
    scales = ([scale.with_replicate(rep) for rep in range(seeds)]
              if replicated else [scale])
    results = [_run_cell_in_child(records, scheme, rep_scale, kernel)
               for rep_scale in scales]
    row = results[0]
    row["seed"] = scale.seed
    if len(results) > 1:
        per_seed = [r["seconds"] for r in results]
        row["seconds"] = round(median(per_seed), 2)
        row["wall_seconds"] = round(
            median([r["wall_seconds"] for r in results]), 2)
        row["per_seed_seconds"] = per_seed
        row["seed_spread"] = round(max(per_seed) - min(per_seed), 2)
    return row


def _rung_index(rows: list[dict]) -> dict[tuple[str, int], dict]:
    """Rows keyed by (scheme, ladder position).

    Record counts scale with ``--trace-length``, so cells from runs at
    different base lengths are matched by their *rung* — the rank of the
    row's record count within its own entry — which is what makes CI's
    reduced ladder comparable against the checked-in full-scale one.
    """
    counts = sorted({row["records"] for row in rows})
    return {(row["scheme"], counts.index(row["records"])): row
            for row in rows}


def _reference_entry(path: Path, kernel: str) -> dict:
    """Latest entry measured with the *same kernel* as this run.

    Blindly taking ``entries[-1]`` could gate a columnar run against a
    scalar baseline (or vice versa) — a ~10x ratio either trivially
    passes or meaninglessly fails.  Entries predating the ``kernel``
    field are scalar by construction.
    """
    if not path.exists():
        raise SystemExit(f"reference file {path} does not exist")
    document = json.loads(path.read_text())
    entries = document.get("entries")
    if not entries:
        raise SystemExit(f"reference file {path} has no entries")
    for entry in reversed(entries):
        if entry.get("kernel", "scalar") == kernel:
            return entry
    raise SystemExit(
        f"reference file {path} has no entry for kernel {kernel!r} "
        f"({len(entries)} entries for other kernels)")


def check_against(rows: list[dict], reference: Path, threshold: float,
                  entry: dict) -> int:
    """Per-record perf gate against the reference entry's latest ladder.

    ``entry`` was snapshotted *before* this run appended anything (the
    reference and the output may be the same file).  A cell missing from
    the reference is reported, not failed — new rungs/schemes start
    their own history.
    """
    ref_index = _rung_index(entry["results"])
    run_index = _rung_index(rows)
    failures = []
    print(f"\nperf check vs {reference} "
          f"(entry {entry.get('generated')}, threshold {threshold:.2f}x)")
    for (scheme, rung), row in sorted(run_index.items()):
        ref = ref_index.get((scheme, rung))
        if ref is None:
            print(f"  {scheme:8s} rung {rung}  no reference cell — "
                  "skipped")
            continue
        measured = row["seconds"] / row["records"]
        baseline = ref["seconds"] / ref["records"]
        ratio = measured / baseline if baseline else float("inf")
        verdict = "ok" if measured <= threshold * baseline else "FAIL"
        print(f"  {scheme:8s} rung {rung}  {1e6 * measured:8.3f} us/rec "
              f"(ref {1e6 * baseline:8.3f}, {ratio:5.2f}x) {verdict}")
        if measured > threshold * baseline:
            failures.append(f"{scheme}@rung{rung}")
    if failures:
        print(f"perf check FAILED for: {', '.join(failures)}")
        return 1
    print("perf check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) >= 2 and argv[0] == _CHILD_FLAG:
        return _child_main(argv[1])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-length", type=int, default=60_000,
                        help="base of the record ladder (default 60000 "
                             "-> 60k/1M/10M)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicate trace seeds for the base rung's "
                             "cells (Scale.with_replicate); recorded "
                             "seconds become the median over replicates")
    parser.add_argument("--kernel", choices=("scalar", "columnar"),
                        default="scalar",
                        help="simulation engine for every cell")
    parser.add_argument("--schemes", default=",".join(scaling.SCHEME_NAMES),
                        help="comma-separated scheme cells to run "
                             f"(default {','.join(scaling.SCHEME_NAMES)}; "
                             "any scheme the experiments define, e.g. "
                             "victima)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_scaling.json"))
    parser.add_argument("--label", default=None)
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="compare against FILE's latest entry and "
                             "exit non-zero on regression (the CI perf "
                             "gate)")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed slowdown factor for --check-against")
    args = parser.parse_args(argv)

    schemes = tuple(name.strip() for name in args.schemes.split(",")
                    if name.strip())
    unknown = [name for name in schemes if name not in scaling.SCHEMES]
    if unknown:
        raise SystemExit(
            f"unknown scheme(s) {', '.join(unknown)}; valid: "
            f"{', '.join(sorted(scaling.SCHEMES))}")

    # Snapshot the reference before anything is written: the reference
    # and --output may be the same file, and a run must never be gated
    # against the entry it just appended.
    reference = None
    if args.check_against:
        reference = _reference_entry(Path(args.check_against), args.kernel)

    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    rows = []
    for records in scaling.record_counts(scale):
        for scheme in schemes:
            row = _bench_cell(records, scheme, scale, args.kernel,
                              args.seeds)
            rows.append(row)
            print(f"  {scheme:8s} {records:>10,d} records  "
                  f"{row['seconds']:8.2f}s  {row['peak_rss_mb']:8.1f}MB  "
                  f"walk%={100 * row['translation_fraction']:.2f}")

    path = Path(args.output)
    env = environment_metadata()
    entry = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        # Full environment block, same shape as bench_schemes.py entries,
        # so the two trajectories stay cross-interpretable.
        "env": env,
        "base_trace_length": args.trace_length,
        "seed": args.seed,
        "seeds": args.seeds,
        "kernel": args.kernel,
        "results": rows,
    }

    def merged_document() -> dict:
        # Re-read under the append lock so concurrent benches merge.
        return (json.loads(path.read_text()) if path.exists()
                else {"benchmark": "scaling", "workload": scaling.WORKLOAD,
                      "entries": []})

    atomic_append_entry(path, entry, merged_document)
    print(f"appended entry to {path}")

    if reference is not None:
        return check_against(rows, Path(args.check_against),
                             args.threshold, reference)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
