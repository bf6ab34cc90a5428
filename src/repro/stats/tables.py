"""The structured table model shared by every experiment module.

Historically each module rendered its own strings; now all results flow
through one :class:`Table` of :class:`Cell` values and a single renderer
used by ``tables()`` and the incremental reporter.  Three design rules
keep the refactor invisible where replication is off:

* :class:`Cell` subclasses :class:`float` — its value is the sample
  mean — so every numeric consumer (sorting, averaging, golden
  comparisons, ``pytest.approx``) keeps working unchanged;
* a single-sample cell renders exactly as the bare float always did
  (``f"{value:.2f}"``), so replicate-0-only tables are byte-identical
  to the pre-statistics output;
* a multi-sample cell renders ``mean ±half-width`` of its 95%
  percentile-bootstrap confidence interval, with a ``*`` suffix where
  the Mann-Whitney U test against the table's named baseline column
  rejects "same distribution" at p < :data:`ALPHA`.

Tables serialize to plain-JSON payloads (:meth:`Table.payload` /
:meth:`Table.from_payload`) so the incremental reporter can persist the
*cell model* — samples, intervals, p-values — rather than rendered
strings, and re-render any stored section through this one renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.stats import kernels

#: Two-sided significance level for the baseline-comparison marker.
ALPHA = 0.05

#: Confidence level of every rendered interval.
CONFIDENCE = 0.95


def _rebuild_cell(value, samples, ci, significant, p_value):
    return Cell(value, samples=samples, ci=ci, significant=significant,
                p_value=p_value)


class Cell(float):
    """One table value plus its replication evidence.

    The float value is the mean over ``samples`` (one sample per
    replicate seed).  ``ci`` is the percentile-bootstrap confidence
    interval (``None`` for single-sample cells), ``p_value`` the
    Mann-Whitney p against the table's baseline column (``None``
    where no comparison applies) and ``significant`` its verdict at
    p < :data:`ALPHA`.
    """

    samples: tuple[float, ...]
    ci: tuple[float, float] | None
    significant: bool
    p_value: float | None

    def __new__(cls, value: float,
                samples: Sequence[float] = (),
                ci: tuple[float, float] | None = None,
                significant: bool = False,
                p_value: float | None = None) -> "Cell":
        cell = super().__new__(cls, value)
        cell.samples = (tuple(float(s) for s in samples)
                        or (float(value),))
        cell.ci = None if ci is None else (float(ci[0]), float(ci[1]))
        cell.significant = bool(significant)
        cell.p_value = None if p_value is None else float(p_value)
        return cell

    def __reduce__(self):
        return (_rebuild_cell, (float(self), self.samples, self.ci,
                                self.significant, self.p_value))

    @property
    def half_width(self) -> float:
        """Half the confidence interval's width (0.0 without one)."""
        if self.ci is None:
            return 0.0
        return (self.ci[1] - self.ci[0]) / 2.0

    def render(self) -> str:
        text = f"{float(self):.2f}"
        if self.ci is not None:
            text += f" ±{self.half_width:.2f}"
        if self.significant:
            text += "*"
        return text


def aggregate(samples: Sequence[float], key: str,
              baseline: Sequence[float] | None = None) -> Cell:
    """Summarize one cell's per-seed samples into a :class:`Cell`.

    ``key`` seeds the bootstrap deterministically — by convention the
    joined spec hashes of the jobs that produced ``samples``.
    ``baseline`` is the matching sample list of the table's baseline
    column; when both sides carry replication the Mann-Whitney U test
    decides the significance marker.
    """
    values = [float(s) for s in samples]
    if not values:
        raise ValueError("aggregate of an empty sample list")
    ci = (kernels.bootstrap_ci(values, key=key, confidence=CONFIDENCE)
          if len(values) > 1 else None)
    significant = False
    p_value = None
    if baseline is not None and len(values) > 1 and len(baseline) > 1:
        _, p_value = kernels.mann_whitney_u(values, list(baseline))
        significant = p_value < ALPHA
    return Cell(kernels.mean(values), samples=values, ci=ci,
                significant=significant, p_value=p_value)


# ----------------------------------------------------------------------
def _canon(value: Any) -> Any:
    """JSON-safe form of one row value (numpy scalars -> python)."""
    if isinstance(value, Cell):
        return {
            "value": float(value),
            "samples": list(value.samples),
            "ci": None if value.ci is None else list(value.ci),
            "significant": value.significant,
            "p_value": value.p_value,
        }
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar, without importing numpy
        return _canon(value.item())
    return str(value)


def _revive(value: Any) -> Any:
    if isinstance(value, dict):
        return Cell(value["value"], samples=value["samples"],
                    ci=None if value["ci"] is None else tuple(value["ci"]),
                    significant=value["significant"],
                    p_value=value["p_value"])
    return value


@dataclass
class Table:
    """Labelled rows plus formatting, one per reproduced table/figure.

    ``baseline`` names the column whose cells anchor the significance
    markers (``None`` for tables without a scheme-vs-scheme reading);
    it is carried in the payload so a re-rendered stored section keeps
    its meaning.
    """

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    baseline: str | None = None

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> dict[str, Any]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    # ------------------------------------------------------------------
    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, Cell):
                return value.render()
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        widths = {
            column: max(
                len(column),
                *(len(fmt(row.get(column, ""))) for row in self.rows),
            ) if self.rows else len(column)
            for column in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        rule = "-" * len(header)
        lines = [self.title, rule, header, rule]
        for row in self.rows:
            lines.append(
                "  ".join(
                    fmt(row.get(c, "")).rjust(widths[c])
                    if isinstance(row.get(c), (int, float))
                    else fmt(row.get(c, "")).ljust(widths[c])
                    for c in self.columns
                )
            )
        lines.append(rule)
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """Plain-JSON form of the full cell model (loss-free)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "baseline": self.baseline,
            "notes": self.notes,
            "rows": [{column: _canon(value)
                      for column, value in row.items()}
                     for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Table":
        table = cls(title=payload["title"],
                    columns=list(payload["columns"]),
                    notes=payload.get("notes", ""),
                    baseline=payload.get("baseline"))
        for row in payload["rows"]:
            table.add_row(**{column: _revive(value)
                             for column, value in row.items()})
        return table


__all__ = ["ALPHA", "CONFIDENCE", "Cell", "Table", "aggregate"]
