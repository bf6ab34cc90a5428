"""The `repro.stats` package: kernels, keyed RNG, cells and tables.

Property tests (hypothesis) pin the two load-bearing procedures against
independent references: the Mann-Whitney exact p-value against a
brute-force re-derivation from the definition, and the
percentile-bootstrap interval's empirical coverage against its nominal
level.  Everything else is deterministic by construction (the resample
streams are keyed, never drawn from global state), which the tests
assert directly: same key, same interval — byte for byte.
"""

from __future__ import annotations

import math
import pickle
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.kernels import (
    MAX_EXACT_SPLITS,
    a12,
    bootstrap_ci,
    mann_whitney_u,
    mean,
    median,
    paired_permutation_test,
    percentile,
)
from repro.stats.rng import SplitMix64, seed_from
from repro.stats.tables import ALPHA, Cell, Table, aggregate


class TestRng:
    def test_seed_from_is_stable_and_sensitive(self):
        assert seed_from("a", 1) == seed_from("a", 1)
        assert seed_from("a", 1) != seed_from("a", 2)
        assert seed_from("a", 1) != seed_from("a1")  # separator matters

    def test_splitmix_streams_are_reproducible(self):
        a = SplitMix64(seed_from("stream", 7))
        b = SplitMix64(seed_from("stream", 7))
        assert [a.next_u64() for _ in range(20)] \
            == [b.next_u64() for _ in range(20)]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_in_unit_interval(self, seed):
        rng = SplitMix64(seed)
        for _ in range(50):
            assert 0.0 <= rng.random() < 1.0

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_randrange_bounds(self, seed, n):
        rng = SplitMix64(seed)
        for _ in range(20):
            assert 0 <= rng.randrange(n) < n


class TestDescriptive:
    def test_mean_median(self):
        assert mean([1.0, 3.0]) == 2.0
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_percentile_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 50) == 5.0
        assert percentile(values, 100) == 10.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestBootstrap:
    def test_single_sample_degenerates_to_point(self):
        assert bootstrap_ci([4.2], key="k") == (4.2, 4.2)

    def test_same_key_same_interval(self):
        samples = [1.0, 2.0, 4.0, 8.0, 9.0]
        assert bootstrap_ci(samples, key="x") == bootstrap_ci(samples,
                                                              key="x")
        assert bootstrap_ci(samples, key="x") != bootstrap_ci(samples,
                                                              key="y")

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False),
                    min_size=2, max_size=8),
           st.integers(min_value=0, max_value=10**6))
    @example([-6.448845548122786e-122] * 2, 0)
    @settings(max_examples=25, deadline=None)
    def test_interval_bounded_by_sample_range(self, samples, salt):
        lo, hi = bootstrap_ci(samples, key=str(salt), resamples=200)
        assert min(samples) - 1e-9 <= lo <= hi <= max(samples) + 1e-9

    def test_coverage_near_nominal(self):
        # Empirical coverage of the 95% interval over deterministic
        # uniform(0, 1) draws (true mean 0.5).  The percentile bootstrap
        # undercovers slightly at n=8; the band pins it from drifting.
        trials, n, covered = 120, 8, 0
        for trial in range(trials):
            rng = SplitMix64(seed_from("coverage-test", trial))
            samples = [rng.random() for _ in range(n)]
            lo, hi = bootstrap_ci(samples, key=f"cov{trial}",
                                  resamples=400)
            covered += lo <= 0.5 <= hi
        assert 0.82 <= covered / trials <= 1.0


def _brute_force_mann_whitney(a, b):
    """Two-sided exact Mann-Whitney p, re-derived from the definition:
    enumerate every relabelling of the pooled values and count the tail
    mass of |U - nm/2|, with ties worth half a win."""
    def u_of(xs, ys):
        return sum(1.0 if x > y else 0.5 if x == y else 0.0
                   for x in xs for y in ys)

    pooled = list(a) + list(b)
    n = len(a)
    mu = len(a) * len(b) / 2.0
    observed = u_of(a, b)
    extreme = total = 0
    for chosen in combinations(range(len(pooled)), n):
        rest = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        split_u = u_of([pooled[i] for i in chosen], rest)
        total += 1
        if abs(split_u - mu) >= abs(observed - mu) - 1e-12:
            extreme += 1
    return observed, extreme / total


class TestMannWhitney:
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=5),
           st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_reference(self, a, b):
        u, p = mann_whitney_u(a, b)
        ref_u, ref_p = _brute_force_mann_whitney(a, b)
        assert u == pytest.approx(ref_u)
        assert p == pytest.approx(ref_p)

    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=2, max_size=5),
           st.lists(st.integers(min_value=0, max_value=5),
                    min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_two_sided_symmetry(self, a, b):
        assert mann_whitney_u(a, b)[1] \
            == pytest.approx(mann_whitney_u(b, a)[1])

    def test_separated_five_vs_five_is_significant(self):
        # The report default (5 replicate seeds per side): full
        # separation reaches p = 2/252, comfortably below ALPHA.
        a = [1.0, 1.1, 1.2, 1.3, 1.4]
        b = [9.0, 9.1, 9.2, 9.3, 9.4]
        _, p = mann_whitney_u(a, b)
        assert p == pytest.approx(2 / math.comb(10, 5))
        assert p < ALPHA

    def test_three_seeds_can_never_mark(self):
        # C(6, 3) = 20 splits: the smallest exact two-sided p is 2/20 =
        # 0.1 > ALPHA.  Significance markers need >= 4 seeds per side.
        _, p = mann_whitney_u([1.0, 2.0, 3.0], [9.0, 10.0, 11.0])
        assert p == pytest.approx(0.1)
        assert p > ALPHA

    def test_identical_samples_not_significant(self):
        _, p = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert p == 1.0

    def test_normal_approximation_path(self):
        a = [float(i) for i in range(40)]
        b = [float(i) + 30.0 for i in range(40)]
        assert math.comb(80, 40) > MAX_EXACT_SPLITS
        _, p_far = mann_whitney_u(a, b)
        _, p_same = mann_whitney_u(a, list(a))
        assert p_far < 1e-6
        assert p_same == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestPairedPermutation:
    def test_identical_pairs_give_one(self):
        assert paired_permutation_test([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_constant_shift_exact_tail(self):
        # Every per-pair difference is -5: only the two all-same-sign
        # flip assignments reach |mean diff| = 5, so p = 2 / 2^n.
        a = [float(i) for i in range(10)]
        b = [x + 5.0 for x in a]
        assert paired_permutation_test(a, b) \
            == pytest.approx(2 / 2**10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [1.0, 2.0])

    def test_monte_carlo_path_is_keyed(self):
        a = [float(i) % 7 for i in range(20)]  # > MAX_EXACT_FLIPS pairs
        b = [x + (0.5 if i % 3 else -0.2) for i, x in enumerate(a)]
        p1 = paired_permutation_test(a, b, key="k", rounds=500)
        p2 = paired_permutation_test(a, b, key="k", rounds=500)
        assert p1 == p2


class TestA12:
    def test_effect_sizes(self):
        assert a12([2.0, 2.0], [1.0, 1.0]) == 1.0
        assert a12([1.0, 1.0], [2.0, 2.0]) == 0.0
        assert a12([1.0, 2.0], [1.0, 2.0]) == 0.5


class TestCell:
    def test_single_sample_renders_like_a_float(self):
        cell = Cell(41.333333)
        assert cell.render() == f"{41.333333:.2f}"
        assert cell.samples == (41.333333,)
        assert cell.ci is None and cell.half_width == 0.0

    def test_multi_sample_renders_interval_and_marker(self):
        cell = Cell(10.0, samples=(9.0, 10.0, 11.0), ci=(9.4, 10.6),
                    significant=True, p_value=0.008)
        assert cell.render() == "10.00 ±0.60*"

    def test_is_a_float_for_numeric_consumers(self):
        cell = Cell(3.0, samples=(2.0, 4.0))
        assert cell + 1 == 4.0
        assert sorted([Cell(2.0), Cell(1.0)]) == [1.0, 2.0]

    def test_pickle_roundtrip_keeps_evidence(self):
        cell = Cell(5.0, samples=(4.0, 6.0), ci=(4.2, 5.8),
                    significant=True, p_value=0.01)
        clone = pickle.loads(pickle.dumps(cell))
        assert isinstance(clone, Cell)
        assert (clone.samples, clone.ci, clone.significant,
                clone.p_value) == (cell.samples, cell.ci,
                                   cell.significant, cell.p_value)


class TestAggregate:
    def test_single_sample_has_no_interval(self):
        cell = aggregate([7.5], key="k")
        assert float(cell) == 7.5 and cell.ci is None
        assert not cell.significant and cell.p_value is None

    def test_replicated_vs_separated_baseline_marks(self):
        cell = aggregate([1.0, 1.1, 1.2, 1.3, 1.4], key="k",
                         baseline=[9.0, 9.1, 9.2, 9.3, 9.4])
        assert cell.ci is not None
        assert cell.significant and cell.p_value < ALPHA

    def test_same_key_same_cell(self):
        samples = [1.0, 3.0, 5.0]
        assert aggregate(samples, key="k").ci \
            == aggregate(samples, key="k").ci

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], key="k")


class TestTablePayload:
    def _table(self) -> Table:
        table = Table(title="T", columns=["name", "value", "plain"],
                      notes="n", baseline="value")
        table.add_row(name="a",
                      value=aggregate([1.0, 2.0, 3.0], key="a"),
                      plain=7)
        table.add_row(name="b", value=aggregate([4.0], key="b"),
                      plain=1.25)
        return table

    def test_roundtrip_is_render_identical(self):
        table = self._table()
        clone = Table.from_payload(table.payload())
        assert clone.render() == table.render()
        assert clone.baseline == "value"
        cell = clone.rows[0]["value"]
        assert isinstance(cell, Cell)
        assert cell.samples == (1.0, 2.0, 3.0)
        assert clone.rows[1]["plain"] == 1.25

    def test_payload_is_json_safe(self):
        import json

        json.dumps(self._table().payload())
