"""``repro obs dashboard``: event logs -> one static HTML page.

Self-contained output — inline CSS and hand-built SVG, no external
assets or scripts — so the file can be archived as a CI artifact or
dropped on any static host.  Renders, per observed run: scorecards,
worker-utilization and cache-hit-rate charts, a per-job phase
breakdown, a worker x job Gantt, and chunk-sample throughput; plus the
repo's BENCH_trajectory.json perf trajectory when it is supplied.
"""

from __future__ import annotations

import html
from typing import Any

from repro.obs.reader import counters, spans
from repro.obs.summary import PHASES, summarize

#: Phase palette (also keys the legend).
_PHASE_COLORS = {
    "setup": "#8da0cb",
    "populate": "#66c2a5",
    "warmup": "#ffd92f",
    "measure": "#fc8d62",
    "other": "#cccccc",
}

_SERIES_COLORS = ("#1b6ca8", "#e4572e", "#2e933c", "#7b4b94",
                  "#c08524", "#5d737e")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 24px;
       color: #1d2733; background: #f7f8fa; }
h1 { font-size: 22px; } h2 { font-size: 17px; margin-top: 28px; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: #fff; border: 1px solid #dde3ea; border-radius: 8px;
        padding: 10px 16px; min-width: 110px; }
.card .v { font-size: 20px; font-weight: 600; }
.card .k { font-size: 11px; color: #5c6b7a; text-transform: uppercase; }
.panel { background: #fff; border: 1px solid #dde3ea; border-radius: 8px;
         padding: 12px 16px; margin-top: 10px; overflow-x: auto; }
svg text { font-family: inherit; }
.legend span { display: inline-block; margin-right: 14px; font-size: 12px; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border-radius: 2px; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text))


def _card(key: str, value: str) -> str:
    return (f'<div class="card"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(key)}</div></div>')


def _phase_legend() -> str:
    items = "".join(
        f'<span><i style="background:{color}"></i>{name}</span>'
        for name, color in _PHASE_COLORS.items())
    return f'<div class="legend">{items}</div>'


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------
def _hbar_chart(rows: list[tuple[str, float, str]], unit: str,
                width: int = 640, max_value: float | None = None) -> str:
    """Horizontal bars: ``rows`` is ``(label, value, color)``."""
    if not rows:
        return "<p>(no data)</p>"
    label_w, bar_h, gap = 190, 18, 6
    scale_max = max_value if max_value else max(v for _, v, _ in rows)
    scale_max = scale_max or 1.0
    height = len(rows) * (bar_h + gap) + gap
    parts = [f'<svg width="{width}" height="{height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for index, (label, value, color) in enumerate(rows):
        y = gap + index * (bar_h + gap)
        bar_w = max((width - label_w - 90) * value / scale_max, 1)
        parts.append(f'<text x="{label_w - 6}" y="{y + bar_h - 5}" '
                     f'text-anchor="end" font-size="12">{_esc(label)}</text>')
        parts.append(f'<rect x="{label_w}" y="{y}" width="{bar_w:.1f}" '
                     f'height="{bar_h}" fill="{color}" rx="2"/>')
        parts.append(f'<text x="{label_w + bar_w + 6:.1f}" '
                     f'y="{y + bar_h - 5}" font-size="12">'
                     f'{value:.2f}{_esc(unit)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _stacked_phase_chart(jobs: list[dict[str, Any]],
                         width: int = 760) -> str:
    """One stacked bar per job, segments colored by phase."""
    if not jobs:
        return "<p>(no executed jobs in this log)</p>"
    label_w, bar_h, gap = 250, 18, 6
    scale_max = max(job["seconds"] for job in jobs) or 1.0
    height = len(jobs) * (bar_h + gap) + gap
    span_w = width - label_w - 80
    parts = [f'<svg width="{width}" height="{height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for index, job in enumerate(jobs):
        y = gap + index * (bar_h + gap)
        parts.append(f'<text x="{label_w - 6}" y="{y + bar_h - 5}" '
                     f'text-anchor="end" font-size="11">'
                     f'{_esc(job["job"])}</text>')
        x = float(label_w)
        for phase in (*PHASES, "other"):
            value = job["phases"].get(phase, 0.0)
            if value <= 0:
                continue
            seg_w = span_w * value / scale_max
            parts.append(f'<rect x="{x:.1f}" y="{y}" width="{seg_w:.1f}" '
                         f'height="{bar_h}" '
                         f'fill="{_PHASE_COLORS[phase]}"/>')
            x += seg_w
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 5}" '
                     f'font-size="11">{job["seconds"]:.2f}s</text>')
    parts.append("</svg>")
    return "".join(parts)


def _gantt_chart(summary: dict[str, Any], width: int = 760) -> str:
    """Worker lanes x job bars over the sweep's wall time."""
    jobs = summary["jobs"]
    if not jobs:
        return "<p>(no executed jobs in this log)</p>"
    wall = summary["wall_seconds"] or 1.0
    t_base = min(job["t0"] for job in jobs)
    pids = sorted({job["pid"] for job in jobs})
    label_w, lane_h, gap = 110, 22, 6
    span_w = width - label_w - 20
    height = len(pids) * (lane_h + gap) + gap + 16
    parts = [f'<svg width="{width}" height="{height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for lane, pid in enumerate(pids):
        y = gap + lane * (lane_h + gap)
        parts.append(f'<text x="{label_w - 6}" y="{y + lane_h - 7}" '
                     f'text-anchor="end" font-size="11">pid {pid}</text>')
        parts.append(f'<rect x="{label_w}" y="{y}" width="{span_w}" '
                     f'height="{lane_h}" fill="#eef1f5"/>')
        for index, job in enumerate(jobs):
            if job["pid"] != pid:
                continue
            x = label_w + span_w * (job["t0"] - t_base) / wall
            bar_w = max(span_w * job["seconds"] / wall, 2)
            color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 2}" width="{bar_w:.1f}" '
                f'height="{lane_h - 4}" fill="{color}" rx="2">'
                f'<title>{_esc(job["job"])} ({job["seconds"]:.2f}s)'
                f'</title></rect>')
    parts.append(f'<text x="{label_w}" y="{height - 3}" font-size="10">'
                 f'0s</text>')
    parts.append(f'<text x="{label_w + span_w}" y="{height - 3}" '
                 f'text-anchor="end" font-size="10">{wall:.2f}s</text>')
    parts.append("</svg>")
    return "".join(parts)


def _line_chart(series: dict[str, list[tuple[float, float]]],
                x_label: str, y_label: str,
                width: int = 700, height: int = 220) -> str:
    """Polyline chart; ``series`` maps name -> [(x, y), ...]."""
    points = [p for pts in series.values() for p in pts]
    if not points:
        return "<p>(no data)</p>"
    x_min = min(p[0] for p in points)
    x_max = max(p[0] for p in points) or 1.0
    y_max = max(p[1] for p in points) or 1.0
    pad_l, pad_b, pad_t = 60, 28, 10
    plot_w, plot_h = width - pad_l - 16, height - pad_b - pad_t

    def sx(x: float) -> float:
        if x_max == x_min:
            return pad_l + plot_w / 2
        return pad_l + plot_w * (x - x_min) / (x_max - x_min)

    def sy(y: float) -> float:
        return pad_t + plot_h * (1 - y / y_max)

    parts = [f'<svg width="{width}" height="{height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    parts.append(f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" '
                 f'y2="{pad_t + plot_h}" stroke="#99a4b0"/>')
    parts.append(f'<line x1="{pad_l}" y1="{pad_t + plot_h}" '
                 f'x2="{pad_l + plot_w}" y2="{pad_t + plot_h}" '
                 f'stroke="#99a4b0"/>')
    parts.append(f'<text x="{pad_l - 8}" y="{pad_t + 10}" '
                 f'text-anchor="end" font-size="10">{y_max:.3g}</text>')
    parts.append(f'<text x="{pad_l - 8}" y="{pad_t + plot_h}" '
                 f'text-anchor="end" font-size="10">0</text>')
    parts.append(f'<text x="{pad_l + plot_w / 2}" y="{height - 4}" '
                 f'text-anchor="middle" font-size="11">'
                 f'{_esc(x_label)}</text>')
    parts.append(f'<text x="12" y="{pad_t + plot_h / 2}" font-size="11" '
                 f'transform="rotate(-90 12 {pad_t + plot_h / 2})" '
                 f'text-anchor="middle">{_esc(y_label)}</text>')
    legend_x = pad_l + 8
    for index, (name, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                        for x, y in sorted(pts))
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                         f'r="2.5" fill="{color}"/>')
        parts.append(f'<rect x="{legend_x}" y="{pad_t}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 14}" y="{pad_t + 9}" '
                     f'font-size="11">{_esc(name)}</text>')
        legend_x += 24 + 7 * len(name)
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# page sections
# ----------------------------------------------------------------------
def _run_section(header: dict[str, Any],
                 events: list[dict[str, Any]]) -> str:
    summary = summarize(header, events)
    cache = summary["cache"]
    parts = [f"<h2>Run {_esc(summary['run_id'])}</h2>"]
    parts.append('<div class="cards">')
    parts.append(_card("wall", f"{summary['wall_seconds']:.2f}s"))
    parts.append(_card("jobs", str(cache["total"])))
    parts.append(_card("executed", str(cache["executed"])))
    parts.append(_card("cache hits", str(cache["hits"])))
    parts.append(_card("hit rate", f"{100 * cache['hit_rate']:.0f}%"))
    parts.append(_card("workers", str(len(summary["workers"]) or 1)))
    parts.append(_card("chunk samples", str(summary["samples"])))
    parts.append("</div>")

    parts.append("<h2>Worker utilization</h2>")
    parts.append('<div class="panel">')
    parts.append(_hbar_chart(
        [(f"pid {w['pid']} ({w['jobs']} jobs)",
          100 * w["utilization"], "#1b6ca8")
         for w in summary["workers"]], "%", max_value=100.0))
    parts.append("</div>")

    parts.append("<h2>Per-job phase breakdown</h2>")
    parts.append('<div class="panel">')
    parts.append(_phase_legend())
    parts.append(_stacked_phase_chart(summary["jobs"]))
    parts.append("</div>")

    parts.append("<h2>Timeline (workers &#215; jobs)</h2>")
    parts.append('<div class="panel">')
    parts.append(_gantt_chart(summary))
    parts.append("</div>")

    samples = counters(header, events, "chunk")
    throughput = _throughput_series(header, events, samples)
    if throughput:
        parts.append("<h2>Chunk throughput (records/s, per job)</h2>")
        parts.append('<div class="panel">')
        parts.append(_line_chart(throughput, "wall seconds (run-relative)",
                                 "records/s"))
        parts.append("</div>")

    for error in summary["errors"]:
        parts.append(f'<div class="panel" style="border-color:#c0392b">'
                     f'<b>job error:</b> {_esc(error)}</div>')
    return "".join(parts)


def _throughput_series(header: dict[str, Any],
                       events: list[dict[str, Any]],
                       samples: list[dict[str, Any]],
                       max_series: int = 6) -> dict[str, list]:
    """records/s between consecutive chunk samples, grouped per job.

    Sample counters are cumulative; consecutive deltas within one job
    span (same pid, time containment) differentiate into throughput.
    """
    job_spans = [s for s in spans(header, events) if s["name"] == "job"]
    series: dict[str, list[tuple[float, float]]] = {}
    for job in sorted(job_spans, key=lambda s: s["t0"])[:max_series]:
        mine = [s for s in samples
                if s.get("pid") == job["pid"]
                and job["t0"] <= s["ts"] <= job["t1"]]
        points = []
        prev_ts, prev_records = job["t0"], 0
        for sample in mine:
            records = sample.get("args", {}).get("records", 0)
            dt = sample["ts"] - prev_ts
            if dt > 0 and records > prev_records:
                points.append((sample["ts"],
                               (records - prev_records) / dt))
            prev_ts, prev_records = sample["ts"], records
        if points:
            series[job["args"].get("job", "?")] = points
    if not series and samples:
        # Non-engine log: one anonymous series over all samples.
        points = []
        prev_ts, prev_records = None, None
        for sample in samples:
            records = sample.get("args", {}).get("records", 0)
            if prev_ts is not None and sample["ts"] > prev_ts \
                    and records > prev_records:
                points.append((sample["ts"],
                               (records - prev_records)
                               / (sample["ts"] - prev_ts)))
            prev_ts, prev_records = sample["ts"], records
        if points:
            series["run"] = points
    return series


def _bench_section(bench: dict[str, Any]) -> str:
    """Per-record cost of each scheme across the BENCH_trajectory.json
    entries, one chart per (requested kernel, record count)."""
    charts: dict[tuple[str, int], dict[str, list[tuple[float, float]]]] = {}
    entries = bench.get("entries", [])
    for index, entry in enumerate(entries):
        for result in entry.get("results", []):
            records = result.get("records") or 1
            series = charts.setdefault(
                (entry.get("kernel", "scalar"), records), {})
            cost_us = 1e6 * result.get("seconds", 0.0) / records
            series.setdefault(result.get("scheme", "?"), []).append(
                (float(index), cost_us))
    panels = "".join(
        f"<h3>{_esc(kernel)} kernel, {_fmt_records(records)} records</h3>"
        f'<div class="panel">'
        f"{_line_chart(series, 'trajectory entry', 'µs per record')}</div>"
        for (kernel, records), series in sorted(charts.items()))
    return (f"<h2>BENCH trajectory ({_esc(bench.get('workload', '?'))}, "
            f"{len(entries)} entries)</h2>{panels}")


def _fmt_records(records: int) -> str:
    if records >= 1_000_000:
        return f"{records / 1_000_000:g}M"
    if records >= 1_000:
        return f"{records / 1_000:g}k"
    return str(records)


# ----------------------------------------------------------------------
def build_dashboard(logs: list[tuple[dict[str, Any], list[dict[str, Any]]]],
                    bench: dict[str, Any] | None = None,
                    title: str = "repro observability") -> str:
    """The full page for a set of parsed event logs (+ the BENCH
    trajectory)."""
    body = [f"<h1>{_esc(title)}</h1>"]
    if not logs and bench is None:
        body.append("<p>Nothing to show: no event logs or BENCH "
                    "trajectory given.</p>")
    for header, events in logs:
        body.append(_run_section(header, events))
    if bench is not None:
        body.append(_bench_section(bench))
    return ("<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title>"
            f"<style>{_CSS}</style></head>\n"
            f"<body>{''.join(body)}</body></html>\n")
