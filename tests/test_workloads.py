"""Unit tests for the workload suite (Table 3) and its patterns."""

import numpy as np
import pytest

from repro.pagetable.constants import PAGE_SIZE
from repro.workloads import generators as g
from repro.workloads.base import KeyValue, Mix, Zipf
from repro.workloads.graph import GraphTraversal
from repro.workloads.suite import ALL_NAMES, WORKLOADS, get


class TestSuiteStructure:
    def test_all_seven_workloads_present(self):
        assert set(ALL_NAMES) == {
            "mcf", "canneal", "bfs", "pagerank", "mc80", "mc400", "redis"
        }

    def test_footprints_match_table3(self):
        GB = 1 << 30
        assert WORKLOADS["bfs"].footprint_bytes >= 60 * GB
        assert WORKLOADS["pagerank"].footprint_bytes >= 60 * GB
        assert WORKLOADS["mc80"].footprint_bytes >= 80 * GB
        assert WORKLOADS["mc400"].footprint_bytes >= 400 * GB
        assert WORKLOADS["redis"].footprint_bytes >= 49 * GB

    def test_vma_counts_match_table2(self):
        expected = {
            "canneal": 18, "mcf": 16, "pagerank": 18, "bfs": 14,
            "mc80": 26, "mc400": 33, "redis": 7,
        }
        for name, total in expected.items():
            assert len(WORKLOADS[name].vmas) == total, name

    def test_99pct_coverage_counts_match_table2(self):
        expected = {
            "canneal": 4, "mcf": 1, "pagerank": 1, "bfs": 1,
            "mc80": 6, "mc400": 13, "redis": 1,
        }
        for name, count in expected.items():
            process = WORKLOADS[name].build_process()
            assert process.vmas.count_for_coverage(0.99) == count, name

    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            get("nonexistent")


class TestTraceGeneration:
    def test_traces_land_in_vmas(self):
        for name in ("mcf", "mc80", "bfs"):
            spec = get(name)
            process = spec.build_process()
            trace = spec.generate_trace(2000, seed=1)
            for va in trace[:500].tolist():
                assert process.vmas.find(va) is not None, name

    def test_trace_length_and_dtype(self):
        trace = get("redis").generate_trace(1234, seed=0)
        assert len(trace) == 1234
        assert trace.dtype == np.int64

    def test_deterministic_per_seed(self):
        spec = get("canneal")
        assert np.array_equal(spec.generate_trace(1000, 5),
                              spec.generate_trace(1000, 5))
        assert not np.array_equal(spec.generate_trace(1000, 5),
                                  spec.generate_trace(1000, 6))

    def test_big_vmas_dominate_accesses(self):
        spec = get("mcf")
        process = spec.build_process()
        trace = spec.generate_trace(5000, seed=2)
        heap = process.vmas.largest(1)[0]
        share = np.mean([(heap.start <= va < heap.end)
                         for va in trace.tolist()])
        assert share > 0.9


class TestPatterns:
    def test_keyvalue_touches_hash_and_values(self):
        rng = np.random.default_rng(3)
        pattern = KeyValue(alpha=1.0, hash_fraction=0.1, value_run=1)
        pages = pattern.generate(rng, 100_000, 10_000)
        hash_pages = 10_000
        hash_share = np.mean(pages < hash_pages)
        assert 0.3 < hash_share < 0.7  # one probe per value access

    def test_keyvalue_value_run_touches_adjacent_pages(self):
        rng = np.random.default_rng(3)
        pattern = KeyValue(alpha=1.0, hash_fraction=0.1, value_run=2)
        pages = pattern.generate(rng, 100_000, 9_000)
        # Layout per request: bucket, value, value+1.
        assert np.all(pages[2::3] - pages[1::3] == 1)

    def test_graph_traversal_modes(self):
        rng = np.random.default_rng(4)
        for mode in ("bfs", "pagerank"):
            pattern = GraphTraversal(mode=mode)
            pages = pattern.generate(rng, 1_000_000, 5_000)
            assert len(pages) == 5_000
            assert pages.min() >= 0
            assert pages.max() < 1_000_000

    def test_graph_mode_validation(self):
        with pytest.raises(ValueError):
            GraphTraversal(mode="dfs")

    def test_pagerank_visits_sequentially(self):
        rng = np.random.default_rng(5)
        pattern = GraphTraversal(mode="pagerank", neighbour_samples=0,
                                 meta_fraction=0.5)
        pages = pattern.generate(rng, 10_000, 3_000)
        meta = pages[pages < 5_000]
        # Sequential vertex sweep: meta pages are non-decreasing (modulo
        # the wrap).
        diffs = np.diff(meta)
        assert np.mean(diffs >= 0) > 0.95

    @pytest.mark.parametrize("mode", ["bfs", "pagerank"])
    @pytest.mark.parametrize("samples", range(7))
    def test_graph_layout_equals_per_visit_loop(self, mode, samples):
        for seed, space, size, max_degree in (
                (0, 1_000, 1, 4096), (1, 50_000, 997, 4096),
                (2, 200_000, 20_000, 100_000), (3, 7, 333, 1),
                (4, 300_000, 12_345, 60_000)):
            pattern = GraphTraversal(mode=mode, neighbour_samples=samples,
                                     max_degree=max_degree)
            got = pattern.generate(np.random.default_rng(seed), space, size)
            want = _per_visit_graph_pages(
                pattern, np.random.default_rng(seed), space, size)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_mix_draws_from_all_parts(self):
        rng = np.random.default_rng(6)
        pattern = Mix((
            (0.5, Zipf(alpha=2.0, scatter=False)),
            (0.5, Zipf(alpha=0.4, scatter=False)),
        ))
        pages = pattern.generate(rng, 10_000, 4_000)
        assert len(pages) == 4_000


class TestBuildProcess:
    def test_asap_levels_create_layout(self):
        process = get("mcf").build_process(asap_levels=(1, 2))
        assert process.asap_layout is not None
        heap = process.vmas.largest(1)[0]
        assert process.asap_layout.region(heap, 1) is not None

    def test_layout_addresses_are_page_aligned(self):
        for spec, base in get("mc400").layout():
            assert base % PAGE_SIZE == 0

    def test_layout_has_no_overlaps(self):
        placed = get("mc400").layout()
        ranges = sorted((base, base + spec.size_bytes)
                        for spec, base in placed)
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 <= s2


def _per_visit_graph_pages(pattern, rng, space_pages, size):
    """:meth:`GraphTraversal.generate` as the per-visit loop it replaced:
    the reference its whole-array layout must equal."""
    meta_pages = max(1, int(space_pages * pattern.meta_fraction))
    edge_pages = max(1, space_pages - meta_pages)
    vertices = max(2, (meta_pages << 12) // 64)
    meta_per_page = 4096 // 64
    visits = max(1, -(-size // (2 + pattern.neighbour_samples)))
    if pattern.mode == "bfs":
        visited = g.zipf_pages(
            rng, vertices, visits, pattern.frontier_alpha,
            scatter_seed=int(rng.integers(1, 2**31)))
    else:
        start = int(rng.integers(0, vertices))
        visited = np.remainder(
            start + np.arange(visits, dtype=np.int64), vertices)
    degrees = pattern._degrees(rng, visits)
    neighbour_seed = (int(rng.integers(1, 2**31))
                      if pattern.neighbour_scatter else None)
    meta_page = visited // meta_per_page
    edge_start = ((visited.astype(np.float64) / vertices)
                  * edge_pages).astype(np.int64)
    edge_span = 1 + (degrees * 8) // 4096
    neighbour_pages = g.zipf_pages(
        rng, vertices, visits * pattern.neighbour_samples,
        pattern.neighbour_alpha, scatter_seed=neighbour_seed,
    ) // meta_per_page
    out = []
    nb_index = 0
    for i in range(visits):
        out.append(int(meta_page[i]))
        start = int(edge_start[i])
        for offset in range(int(edge_span[i])):
            out.append(meta_pages + (start + offset) % edge_pages)
        for _ in range(pattern.neighbour_samples):
            out.append(int(neighbour_pages[nb_index]))
            nb_index += 1
        if len(out) >= size:
            break
    return np.asarray(out[:size], dtype=np.int64)
