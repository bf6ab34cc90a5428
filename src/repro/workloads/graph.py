"""Graph-analytics access patterns (bfs and pagerank of Table 3).

The paper runs BFS and PageRank on a 60GB synthetic dataset whose edge
distribution is modelled after Twitter (Galois framework).  We synthesise
the *memory behaviour* of those kernels over a CSR-like layout directly:

* a vertex-metadata region (ranks / parent pointers), dense, small stride;
* an edge region (the bulk of the footprint) read in sequential runs, one
  run per visited vertex, run length following the power-law degree
  distribution;
* per edge, a random access back into the metadata region for the
  neighbour's entry — the irregular, TLB-hostile part.  Neighbour ids are
  Zipf-distributed (preferential attachment), scattered across the space.

``bfs`` visits vertices in popularity order (frontier effect); ``pagerank``
sweeps vertices sequentially each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads import generators as g

#: Metadata entry bytes per vertex (rank + degree + offset).
_META_BYTES = 64
_EDGE_BYTES = 8


@dataclass(frozen=True)
class GraphTraversal:
    """Page pattern for CSR graph kernels inside one big VMA."""

    mode: str = "bfs"  # or "pagerank"
    meta_fraction: float = 0.04
    degree_alpha: float = 1.8  # Pareto-ish tail like Twitter
    mean_degree: float = 24.0
    max_degree: int = 4096
    neighbour_samples: int = 4  # metadata reads per visited vertex
    frontier_alpha: float = 0.7  # BFS frontier popularity skew
    neighbour_alpha: float = 1.001  # preferential-attachment skew
    neighbour_scatter: bool = True  # scatter neighbour ids across meta

    def __post_init__(self) -> None:
        if self.mode not in ("bfs", "pagerank"):
            raise ValueError("mode must be 'bfs' or 'pagerank'")

    # ------------------------------------------------------------------
    def _degrees(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raw = (rng.pareto(self.degree_alpha, size=count) + 1.0)
        scale = self.mean_degree * (self.degree_alpha - 1) / self.degree_alpha
        degrees = np.minimum(raw * scale, self.max_degree)
        return np.maximum(degrees.astype(np.int64), 1)

    def generate(
        self, rng: np.random.Generator, space_pages: int, size: int
    ) -> np.ndarray:
        meta_pages = max(1, int(space_pages * self.meta_fraction))
        edge_pages = max(1, space_pages - meta_pages)
        vertices = max(2, (meta_pages << 12) // _META_BYTES)
        meta_per_page = 4096 // _META_BYTES

        # Edge runs average under a page, so one visit costs roughly
        # 1 (own meta) + ~1 (edges) + neighbour_samples accesses.
        per_visit = 2 + self.neighbour_samples
        visits = max(1, -(-size // per_visit))

        if self.mode == "bfs":
            visited = g.zipf_pages(
                rng, vertices, visits, self.frontier_alpha,
                scatter_seed=int(rng.integers(1, 2**31)),
            )
        else:
            start = int(rng.integers(0, vertices))
            visited = np.remainder(
                start + np.arange(visits, dtype=np.int64), vertices
            )

        degrees = self._degrees(rng, visits)
        neighbour_seed = (
            int(rng.integers(1, 2**31)) if self.neighbour_scatter else None
        )

        # Own metadata page.
        meta_page = visited // meta_per_page
        # Edge-array run: CSR offset proportional to vertex id (prefix-sum
        # like), spanning ceil(degree * 8 / 4096) pages.
        edge_start = (
            (visited.astype(np.float64) / vertices) * edge_pages
        ).astype(np.int64)
        edge_span = 1 + (degrees * _EDGE_BYTES) // 4096
        neighbour = g.zipf_pages(
            rng, vertices, visits * self.neighbour_samples,
            self.neighbour_alpha, scatter_seed=neighbour_seed,
        )
        neighbour_pages = neighbour // meta_per_page

        # Lay visits out back to back — meta page, edge run, neighbour
        # reads — up to the first visit that reaches ``size`` records.
        samples = self.neighbour_samples
        length = 1 + edge_span + samples
        end = np.cumsum(length)
        kept = min(visits, int(np.searchsorted(end, size)) + 1)
        edge_span = edge_span[:kept]
        first = end[:kept] - length[:kept]
        out = np.empty(int(end[kept - 1]), dtype=np.int64)
        out[first] = meta_page[:kept]
        run_first = np.cumsum(edge_span) - edge_span
        offset = np.arange(int(edge_span.sum())) - np.repeat(run_first,
                                                             edge_span)
        out[np.repeat(first + 1, edge_span) + offset] = meta_pages + (
            np.repeat(edge_start[:kept], edge_span) + offset) % edge_pages
        if samples:
            slots = (first + 1 + edge_span)[:, None] + np.arange(samples)
            out[slots.ravel()] = neighbour_pages[:kept * samples]
        pages = out[:size]
        if len(pages) < size:  # pragma: no cover - defensive top-up
            extra = g.uniform_pages(rng, space_pages, size - len(pages))
            pages = np.concatenate([pages, extra])
        return pages
