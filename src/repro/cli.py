"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list``                     — show workloads, ASAP configs and schemes
* ``run WORKLOAD [options]``   — one scenario, print its statistics
* ``experiment NAME``          — regenerate one table/figure (e.g. fig8)
* ``compare [--schemes ...]``  — race translation schemes head-to-head
* ``mt``                       — multi-tenant consolidation sweep
* ``scaling``                  — translation-fraction convergence vs scale
* ``trace materialize|info|hash`` — on-disk streaming traces
* ``sweep [--only NAME ...]``  — every experiment as one parallel batch
* ``report [--only NAME ...]`` — rebuild EXPERIMENTS.md, re-rendering
  only the sections whose cached cells changed
* ``obs summary|timeline|export|dashboard|validate`` — run telemetry
* ``validate``                 — check the paper's qualitative shapes

Parallelism and caching
-----------------------
``experiment``, ``sweep`` and ``report`` all accept ``--jobs N`` (fan the
job grid out over N worker processes), ``--cache-dir DIR`` and
``--no-cache`` (on-disk result cache keyed by job spec and code version).
Results are identical for any ``--jobs`` value: every job seeds its own
randomness from its spec.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import CONFIGS, REPORT_SEEDS, SCHEMES
from repro.runtime.cache import DEFAULT_CACHE_DIR
from repro.runtime.engine import Engine
from repro.sim.runner import Scale, run_native, run_virtualized
from repro.workloads.suite import ALL_NAMES, WORKLOADS

#: One source of truth for config names: the experiments' registry.
_CONFIGS = CONFIGS


def positive_int(text: str) -> int:
    """argparse type for ``--jobs``-style counts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _engine_from(args) -> Engine:
    return Engine.from_options(jobs=args.jobs, cache_dir=args.cache_dir,
                               no_cache=args.no_cache,
                               progress=args.progress, obs=args.obs,
                               obs_dir=args.obs_dir)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="on-disk result cache "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--progress", action="store_true",
                        help="stream per-job progress to stderr")
    parser.add_argument("--obs", action="store_true",
                        help="record a structured event log for the run "
                             "(or set REPRO_OBS=1)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="where event logs land "
                             "(default: <cache-dir>/obs)")


def _cmd_list(_args) -> int:
    print("Workloads (Table 3):")
    for name, spec in WORKLOADS.items():
        print(f"  {name:10s} {spec.footprint_bytes / (1 << 30):6.0f} GB  "
              f"{spec.description}")
    print("\nASAP configurations:")
    for key, config in _CONFIGS.items():
        print(f"  {key:12s} {config.name}")
    print("\nTranslation schemes (repro compare):")
    for key, entry in SCHEMES.items():
        print(f"  {key:12s} native={entry.native_config.name:10s} "
              f"virtualized={entry.virt_config.name}")
    print("\nMulti-tenant mixes (repro mt):")
    from repro.workloads.suite import MT_MIXES
    for key, members in MT_MIXES.items():
        print(f"  {key:12s} {' + '.join(members)}")
    return 0


def _cmd_run(args) -> int:
    config = _CONFIGS[args.config]
    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    runner = run_virtualized if args.virtualized else run_native
    kwargs = dict(colocated=args.colocated, scale=scale)
    if args.virtualized:
        if config.native_levels:
            print("note: native-dimension configs are ignored under "
                  "--virtualized; use p1g/full/...", file=sys.stderr)
        kwargs["host_page_level"] = 2 if args.large_host_pages else 1
    else:
        if config.guest_levels or config.host_levels:
            print("error: guest/host configs need --virtualized",
                  file=sys.stderr)
            return 2
    stats = runner(args.workload, config, **kwargs)
    print(f"workload={args.workload} config={config.name} "
          f"virtualized={args.virtualized} colocated={args.colocated}")
    print(f"  avg walk latency : {stats.avg_walk_latency:8.1f} cycles")
    print(f"  walks            : {stats.walks:8d} "
          f"({100 * stats.tlb_miss_ratio:.1f}% of accesses)")
    print(f"  % time in walks  : {100 * stats.walk_fraction:8.1f}%")
    print(f"  TLB MPKI         : {stats.mpki:8.1f}")
    if stats.prefetches_issued:
        print(f"  prefetches       : {stats.prefetches_issued:8d} issued, "
              f"{stats.prefetches_useful} useful, "
              f"{stats.prefetches_dropped} dropped")
    print("  service distribution (per PT level):")
    for level in stats.service.levels():
        fractions = stats.service.fractions(level)
        row = "  ".join(f"{k}:{100 * v:5.1f}%"
                        for k, v in fractions.items())
        print(f"    {level}: {row}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import report

    try:
        selected = report._select([args.name])
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    engine = _engine_from(args)
    for _, module in selected:
        result = module.run(scale, engine)
        for table in report._tables(result):
            print(table.render())
            print()
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments import compare

    schemes = None
    if args.schemes:
        schemes = [token.strip() for token in args.schemes.split(",")
                   if token.strip()]
    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    engine = _engine_from(args)
    try:
        tables = compare.run(scale, engine, schemes=schemes,
                             seeds=args.seeds or REPORT_SEEDS)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for table in tables:
        print(table.render())
        print()
    return 0


def _cmd_mt(args) -> int:
    from repro.experiments import mt

    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    engine = _engine_from(args)
    for table in mt.run(scale, engine, seeds=args.seeds or REPORT_SEEDS):
        print(table.render())
        print()
    return 0


def _cmd_scaling(args) -> int:
    from repro.experiments import scaling
    from repro.traces.store import read_ref

    engine = _engine_from(args)
    try:
        if args.trace:
            # No explicit --seed: the trace's own seed drives the OS
            # substrate, so the replay matches the generated run the
            # trace was materialised from.
            table = scaling.run_for_trace(read_ref(args.trace), engine,
                                          seed=args.seed)
        else:
            scale = Scale(trace_length=args.trace_length,
                          warmup=args.trace_length // 5,
                          seed=42 if args.seed is None else args.seed)
            table = scaling.run(scale, engine,
                                seeds=args.seeds or REPORT_SEEDS)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(table.render())
    return 0


def _cmd_trace(args) -> int:
    from repro.traces import store
    from repro.workloads.suite import get as get_workload

    try:
        if args.trace_command == "materialize":
            ref = store.materialize_trace(
                get_workload(args.workload), args.records, args.seed,
                args.out, force=args.force)
            print(f"materialized {ref.records} records of {ref.workload} "
                  f"(seed {ref.seed}) at {ref.path}")
            print(f"  sha256: {ref.digest}")
        elif args.trace_command == "info":
            header, payload = store.open_trace(args.path)
            for key in ("format_version", "workload", "records", "seed",
                        "gen_chunk_records", "dtype", "sha256"):
                print(f"  {key:18s} {header[key]}")
            print(f"  {'payload_bytes':18s} {payload.nbytes}")
        else:  # hash
            ref = store.verify_trace(args.path)
            print(f"ok: {ref.path} ({ref.records} records of "
                  f"{ref.workload})")
            print(f"  sha256: {ref.digest}")
    except (ValueError, FileNotFoundError, FileExistsError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _sweep_scale(args) -> Scale:
    """The sweep/report scale from ``--fast``/``--trace-length``/``--seed``."""
    import dataclasses

    from repro.experiments.common import DEFAULT_SCALE

    scale = DEFAULT_SCALE
    if args.fast:
        scale = scale.smaller(4)
    if args.trace_length:
        scale = dataclasses.replace(scale, trace_length=args.trace_length,
                                    warmup=args.trace_length // 5)
    return dataclasses.replace(scale, seed=args.seed)


def _cmd_sweep(args) -> int:
    from repro.experiments import report

    engine = _engine_from(args)
    try:
        report.run_sweep(_sweep_scale(args), engine, only=args.only)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.incremental import IncrementalReporter

    engine = _engine_from(args)
    if engine.cache is None:
        print("error: repro report needs the result cache "
              "(drop --no-cache)", file=sys.stderr)
        return 2
    reporter = IncrementalReporter(engine.cache)
    try:
        update = reporter.update(_sweep_scale(args), engine,
                                 only=args.only)
    except ValueError as error:  # unknown --only section
        print(f"error: {error}", file=sys.stderr)
        return 2
    target = reporter.write_outputs(update, markdown_path=args.output)
    print(f"[report] {update.summary()}")
    for name in update.rebuilt:
        print(f"[report]   rebuilt: {name}")
    print(f"[report] wrote {target}")
    return 0


def _find_obs_log(args) -> str:
    """Resolve the log to operate on: explicit path, or the newest
    ``sweep-*.jsonl`` under the obs directory."""
    from pathlib import Path

    log = getattr(args, "log", None)
    if log:
        if not Path(log).exists():
            raise FileNotFoundError(f"no such event log: {log}")
        return log
    directory = Path(args.obs_dir or Path(args.cache_dir) / "obs")
    candidates = sorted(directory.glob("*.jsonl"),
                        key=lambda p: p.stat().st_mtime)
    if not candidates:
        raise FileNotFoundError(
            f"no event logs under {directory}; run a sweep with --obs "
            f"first, or pass a log path")
    return str(candidates[-1])


def _cmd_obs(args) -> int:
    import json

    from repro.obs import export as obs_export
    from repro.obs import reader as obs_reader
    from repro.obs import summary as obs_summary
    from repro.obs import timeline as obs_timeline

    try:
        if args.obs_command == "dashboard":
            return _cmd_obs_dashboard(args)
        path = _find_obs_log(args)
        header, events = obs_reader.read_log(path)
    except (FileNotFoundError, obs_reader.ObsLogError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.obs_command == "summary":
        print(f"[obs] {path}", file=sys.stderr)
        print(obs_summary.render_summary(
            obs_summary.summarize(header, events)))
    elif args.obs_command == "timeline":
        print(f"[obs] {path}", file=sys.stderr)
        print(obs_timeline.render_timeline(header, events,
                                           width=args.width))
    elif args.obs_command == "export":
        out = args.out or (path[: -len(".jsonl")] + ".trace.json"
                           if path.endswith(".jsonl")
                           else path + ".trace.json")
        obs_export.write_chrome_trace(out, header, events)
        print(f"wrote {out} ({len(events)} events); open in "
              f"chrome://tracing or ui.perfetto.dev")
    elif args.obs_command == "validate":
        problems = obs_reader.validate(header, events)
        if args.json:
            print(json.dumps({"path": path, "events": len(events),
                              "problems": problems}, indent=2))
        else:
            for problem in problems:
                print(f"  {problem}")
            print(f"{'FAIL' if problems else 'ok'}: {path} "
                  f"({len(events)} events, {len(problems)} problem(s))")
        return 1 if problems else 0
    return 0


def _cmd_obs_dashboard(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import reader as obs_reader
    from repro.obs.dashboard import build_dashboard

    logs = []
    paths = args.logs or []
    if not paths:
        try:
            paths = [_find_obs_log(args)]
        except FileNotFoundError:
            paths = []  # BENCH-only dashboards are fine
    for path in paths:
        logs.append(obs_reader.read_log(path))

    def load(path: str | None):
        if path is None:
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    html = build_dashboard(logs, bench=load(args.bench))
    Path(args.out).write_text(html, encoding="utf-8")
    print(f"wrote {args.out} ({len(logs)} run(s)"
          + (", BENCH trajectory" if args.bench else "") + ")")
    return 0


def _cmd_validate(args) -> int:
    from repro.validation import validate_shapes

    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    failures = validate_shapes(scale, verbose=True)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads and configs")

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("workload", choices=ALL_NAMES)
    run.add_argument("--config", choices=sorted(_CONFIGS),
                     default="baseline")
    run.add_argument("--virtualized", action="store_true")
    run.add_argument("--colocated", action="store_true")
    run.add_argument("--large-host-pages", action="store_true")
    run.add_argument("--trace-length", type=positive_int, default=30_000)
    run.add_argument("--seed", type=int, default=42)

    exp = sub.add_parser("experiment", help="regenerate one table/figure")
    exp.add_argument("name")
    exp.add_argument("--trace-length", type=positive_int, default=30_000)
    exp.add_argument("--seed", type=int, default=42)
    _add_engine_options(exp)

    comp = sub.add_parser(
        "compare", help="race translation schemes head-to-head")
    comp.add_argument("--schemes", default=None, metavar="LIST",
                      help="comma-separated roster (default: "
                           "baseline,asap,victima,revelator)")
    comp.add_argument("--trace-length", type=positive_int, default=30_000)
    comp.add_argument("--seed", type=int, default=42)
    comp.add_argument("--seeds", type=positive_int, default=None,
                      help="replicate seeds per cell; tables render "
                           "mean ±95%% CI with Mann-Whitney significance "
                           "markers vs the baseline column (default: "
                           f"{REPORT_SEEDS})")
    _add_engine_options(comp)

    mt = sub.add_parser(
        "mt", help="multi-tenant consolidation sweep "
                   "(schemes x tenants x quantum x switch policy)")
    mt.add_argument("--trace-length", type=positive_int, default=30_000)
    mt.add_argument("--seed", type=int, default=42)
    mt.add_argument("--seeds", type=positive_int, default=None,
                    help="replicate seeds per cell (default: "
                         f"{REPORT_SEEDS})")
    _add_engine_options(mt)

    scal = sub.add_parser(
        "scaling", help="translation-fraction convergence vs trace scale "
                        "(streamed 10M+-record runs)")
    scal.add_argument("--trace", default=None, metavar="DIR",
                      help="replay one materialized trace instead of the "
                           "generated scale ladder")
    scal.add_argument("--trace-length", type=positive_int, default=60_000,
                      help="base of the x1/x~17/x~167 record ladder "
                           "(default: 60000 -> 60k/1M/10M)")
    scal.add_argument("--seed", type=int, default=None,
                      help="seed for the generated ladder (default 42); "
                           "with --trace, overrides the trace's own seed "
                           "for the OS substrate (default: the trace's)")
    scal.add_argument("--seeds", type=positive_int, default=None,
                      help="replicate seeds for the base rung only — "
                           "the larger rungs stay single-run convergence "
                           f"anchors (default: {REPORT_SEEDS}; ignored "
                           "with --trace)")
    _add_engine_options(scal)

    trace = sub.add_parser(
        "trace", help="materialize / inspect on-disk streaming traces")
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    tmat = tsub.add_parser(
        "materialize", help="generate a trace to disk, chunk by chunk")
    tmat.add_argument("workload", choices=ALL_NAMES)
    tmat.add_argument("--records", type=positive_int, required=True)
    tmat.add_argument("--seed", type=int, default=42)
    tmat.add_argument("--out", required=True, metavar="DIR")
    tmat.add_argument("--force", action="store_true",
                      help="overwrite an existing trace directory")
    tinfo = tsub.add_parser("info", help="print a trace's header")
    tinfo.add_argument("path")
    thash = tsub.add_parser(
        "hash", help="recompute the content digest and verify the header")
    thash.add_argument("path")

    def _scale_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--only", action="append", default=None,
                       metavar="NAME",
                       help="limit to one experiment (repeatable), "
                            "e.g. --only fig8 --only table2")
        p.add_argument("--fast", action="store_true",
                       help="reduced scale (quick smoke pass)")
        p.add_argument("--trace-length", type=positive_int, default=None)
        p.add_argument("--seed", type=int, default=42)

    sweep = sub.add_parser(
        "sweep", help="run every experiment as one parallel batch and "
                      "print the raw tables")
    _scale_options(sweep)
    _add_engine_options(sweep)

    rep = sub.add_parser(
        "report", help="rebuild EXPERIMENTS.md, re-rendering only the "
                       "sections whose cached cells changed")
    _scale_options(rep)
    rep.add_argument("--output", default=None, metavar="FILE",
                     help="where to write the assembled EXPERIMENTS.md "
                          "(default: <cache-dir>/report/EXPERIMENTS.md)")
    _add_engine_options(rep)

    obs = sub.add_parser(
        "obs", help="inspect run-telemetry event logs (repro.obs)")
    osub = obs.add_subparsers(dest="obs_command", required=True)

    def _obs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("log", nargs="?", default=None,
                       help="event log path (default: newest under "
                            "the obs directory)")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=argparse.SUPPRESS)
        p.add_argument("--obs-dir", default=None, metavar="DIR",
                       help="where event logs live "
                            "(default: <cache-dir>/obs)")

    osum = osub.add_parser(
        "summary", help="phase/component time table per job")
    _obs_common(osum)
    otl = osub.add_parser(
        "timeline", help="terminal Gantt of workers x jobs")
    _obs_common(otl)
    otl.add_argument("--width", type=positive_int, default=72,
                     help="chart columns (default: 72)")
    oexp = osub.add_parser(
        "export", help="convert to Chrome-trace / Perfetto JSON")
    _obs_common(oexp)
    oexp.add_argument("--out", default=None, metavar="FILE",
                      help="output path (default: <log>.trace.json)")
    oval = osub.add_parser(
        "validate", help="check a log against the event schema")
    _obs_common(oval)
    oval.add_argument("--json", action="store_true",
                      help="machine-readable verdict")
    odash = osub.add_parser(
        "dashboard", help="build the static HTML dashboard")
    odash.add_argument("logs", nargs="*", default=None,
                       help="event log path(s) (default: newest under "
                            "the obs directory)")
    odash.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=argparse.SUPPRESS)
    odash.add_argument("--obs-dir", default=None, metavar="DIR",
                       help="where event logs live "
                            "(default: <cache-dir>/obs)")
    odash.add_argument("--out", default="dashboard.html", metavar="FILE",
                       help="output HTML path (default: dashboard.html)")
    odash.add_argument("--bench", default=None, metavar="JSON",
                       help="BENCH_trajectory.json for the perf "
                            "trajectory")

    val = sub.add_parser("validate", help="check paper-shape invariants")
    val.add_argument("--trace-length", type=positive_int, default=20_000)
    val.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "compare": _cmd_compare,
        "mt": _cmd_mt,
        "scaling": _cmd_scaling,
        "trace": _cmd_trace,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "obs": _cmd_obs,
        "validate": _cmd_validate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
