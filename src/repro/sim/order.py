"""First-touch ordering models for demand paging.

Both entry points produce the same orders; the streaming variant folds
the trace one chunk at a time so population of a 10M-record streamed
trace needs memory proportional to the *touched page count* (inherent
state — the page table holds it anyway), never the trace length.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def first_touch_order(vpns: np.ndarray, order: str) -> np.ndarray:
    """The order in which the workload's pages were first faulted in.

    "sequential": VA order (start-up array/graph loading).
    "chunked": 256-page chunks in first-touch order, VA order inside each
    chunk (slab/arena allocators).
    "demand": pure first-touch (request) order.
    """
    return streaming_first_touch_order((vpns,), order)


def streaming_first_touch_order(
    chunks: Iterable[np.ndarray], order: str
) -> np.ndarray:
    """:func:`first_touch_order` over a chunk iterator.

    Identical output for identical records whatever the chunking — the
    per-chunk folds only ever keep first occurrences, and first
    occurrence across a concatenation is first occurrence in the first
    chunk that holds one.
    """
    if order == "sequential":
        unique: np.ndarray | None = None
        for chunk in chunks:
            piece = _sorted_unique(chunk)
            unique = piece if unique is None else _sorted_unique(
                np.concatenate([unique, piece]))
        if unique is None:
            return np.empty(0, dtype=np.int64)
        return unique
    if order not in ("demand", "chunked"):
        raise ValueError(f"unknown init order {order!r}")
    seen = np.empty(0, dtype=np.int64)  # kept sorted
    pieces: list[np.ndarray] = []
    for chunk in chunks:
        chunk_demand = chunk[_first_occurrences(chunk)]
        if seen.size:
            slot = np.searchsorted(seen, chunk_demand)
            known = seen[np.minimum(slot, seen.size - 1)] == chunk_demand
            fresh = chunk_demand[~known]
        else:
            fresh = chunk_demand
        if fresh.size:
            fresh_sorted = np.sort(fresh)
            seen = np.insert(seen, np.searchsorted(seen, fresh_sorted),
                             fresh_sorted)
            pieces.append(fresh.astype(np.int64, copy=False))
    demand = (np.concatenate(pieces) if pieces
              else np.empty(0, dtype=np.int64))
    if order == "demand":
        return demand
    return _chunk_regroup(demand)


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in the
    sorted array ``ordered``."""
    start = np.empty(ordered.size, dtype=bool)
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    return start


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sorting: numpy's hash-based unique is
    several times slower than a sort on int64 page numbers."""
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending index of the first occurrence of each distinct value —
    ``np.sort(np.unique(values, return_index=True)[1])`` with a
    quicksort instead of a stable sort: the minimum original index over
    each run of equal sorted values."""
    perm = np.argsort(values)
    first = np.minimum.reduceat(
        perm, np.flatnonzero(run_starts(values[perm])))
    first.sort()
    return first


def _chunk_regroup(demand: np.ndarray) -> np.ndarray:
    """The "chunked" model: 256-page chunks in first-touch order, VA
    order inside each chunk."""
    chunks = demand >> 8
    uniq, chunk_first, inverse = np.unique(
        chunks, return_index=True, return_inverse=True)
    # Rank each 256-page chunk by when it was first touched, then one
    # stable two-key sort: primary = chunk first-touch rank, secondary =
    # VA.  Same output as sorting each chunk's pages and concatenating
    # in first-touch order, without the per-chunk boolean scans.
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(chunk_first, kind="stable")] = np.arange(uniq.size)
    return demand[np.lexsort((demand, rank[inverse]))]
