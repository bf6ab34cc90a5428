#!/usr/bin/env python3
"""Assemble (or verify) EXPERIMENTS.md from the raw report output.

Usage::

    python tools/build_experiments_md.py [RAW] [--output PATH] [--check]

RAW is the raw report text that ``python -m repro report`` writes to
``<cache-dir>/report/experiments_raw.txt``, or the output of ``python -m
repro sweep`` (default: ``docs/experiments_raw.txt``, which is checked
in so this script is reproducible offline).  This script splices
each measured table into the paper-vs-measured commentary below.

``--check`` rebuilds the document in memory and exits non-zero if it
differs from the checked-in output file — CI runs this so EXPERIMENTS.md
can never silently drift from its generator or its raw input.  All paths
are resolved relative to the repository root, so the script works from any
working directory.

The assembly itself (section commentary, table splicing) lives in
``repro.experiments.assemble`` so ``repro report`` and this tool produce
the document through the same code path.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.assemble import build  # noqa: E402


def _resolve(path: str) -> Path:
    candidate = Path(path)
    return candidate if candidate.is_absolute() else REPO_ROOT / candidate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw", nargs="?", default="docs/experiments_raw.txt",
                        help="raw report output (default: "
                             "docs/experiments_raw.txt)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="assembled document (default: EXPERIMENTS.md)")
    parser.add_argument("--check", action="store_true",
                        help="verify --output matches the raw input instead "
                             "of writing it; non-zero exit on drift")
    args = parser.parse_args(argv)

    raw_path = _resolve(args.raw)
    out_path = _resolve(args.output)
    built = build(raw_path.read_text())

    if args.check:
        current = out_path.read_text() if out_path.exists() else ""
        if current == built:
            print(f"{out_path.name} is up to date")
            return 0
        diff = difflib.unified_diff(
            current.splitlines(keepends=True),
            built.splitlines(keepends=True),
            fromfile=f"{out_path.name} (checked in)",
            tofile=f"{out_path.name} (rebuilt)",
        )
        sys.stderr.writelines(diff)
        print(f"error: {out_path.name} is stale; regenerate with "
              f"`python tools/build_experiments_md.py {args.raw}`",
              file=sys.stderr)
        return 1

    out_path.write_text(built)
    print(f"{out_path.name} written ({len(built.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
