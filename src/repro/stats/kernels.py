"""Dependency-free statistics kernels for replicated experiment cells.

Everything here operates on small plain-python sample lists (one sample
per replicate seed, so typically 3-10 values) and is deterministic:
resampling procedures take a ``key`` string — by convention the joined
spec hashes of the jobs that produced the samples — and derive their
random stream from it (:mod:`repro.stats.rng`).  No ``random``-module
or numpy global state is touched.

The toolbox follows FuzzBench's ``analysis/stat_tests`` selection for
benchmark comparisons: percentile-bootstrap confidence intervals for
"how wide is this estimate", the Mann-Whitney U rank test for "are
these two schemes drawn from the same distribution" (no normality
assumption — translation fractions are bounded and skewed), a paired
permutation test for matched per-seed designs, and the Vargha-Delaney
A12 effect size for "how often does one beat the other".

Exactness over approximation at our sample counts: Mann-Whitney
enumerates the full permutation distribution up to
:data:`MAX_EXACT_SPLITS` arrangements (5-vs-5 is 252), and the paired
permutation test enumerates all sign flips up to 2^:data:`MAX_EXACT_FLIPS`,
so p-values at report scale are exact, not asymptotic.  Larger inputs
fall back to the tie-corrected normal approximation / Monte Carlo.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from repro.stats.rng import SplitMix64, seed_from

#: Largest number of pooled arrangements the Mann-Whitney test will
#: enumerate exactly; beyond it the tie-corrected normal approximation
#: takes over.  C(10, 5) = 252, C(16, 8) = 12870 — report-scale inputs
#: are always exact.
MAX_EXACT_SPLITS = 20_000

#: Largest paired-sample count whose 2^n sign flips are enumerated
#: exactly by :func:`paired_permutation_test`.
MAX_EXACT_FLIPS = 16

#: Default bootstrap resample count — enough that the 95% percentile
#: endpoints are stable to well under a rendered 0.01.
BOOTSTRAP_RESAMPLES = 1_000


def mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


# ----------------------------------------------------------------------
def bootstrap_ci(samples: Sequence[float], key: str,
                 confidence: float = 0.95,
                 resamples: int = BOOTSTRAP_RESAMPLES,
                 statistic=mean) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``.

    ``key`` seeds the resampling stream (spec hashes, by convention), so
    the interval is a pure function of (samples, key, parameters).
    A single-sample input has no spread to estimate; the interval
    degenerates to the point.
    """
    if not samples:
        raise ValueError("bootstrap_ci of an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = [float(v) for v in samples]
    if len(values) == 1:
        return (values[0], values[0])
    rng = SplitMix64(seed_from("bootstrap", key, confidence, resamples))
    n = len(values)
    stats = sorted(
        statistic([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = 1.0 - confidence
    lo = percentile(stats, 100.0 * (alpha / 2.0))
    hi = percentile(stats, 100.0 * (1.0 - alpha / 2.0))
    # Interpolating between equal neighbours can land an ulp off either
    # way, which would invert a zero-width interval.
    return (lo, hi) if lo <= hi else (hi, lo)


# ----------------------------------------------------------------------
def _u_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """U for sample ``a``: pairs won plus half the ties."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def _normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float],
                   b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test: ``(U, p)`` for sample ``a`` vs ``b``.

    Up to :data:`MAX_EXACT_SPLITS` arrangements the p-value is exact:
    the pooled values are re-split into every possible (a, b) labelling
    and the two-sided tail mass of ``|U - nm/2|`` is counted — ties are
    handled naturally because equal values contribute half-wins under
    every labelling.  Beyond that, the tie-corrected normal
    approximation (with continuity correction) is used.
    """
    if not a or not b:
        raise ValueError("mann_whitney_u needs two non-empty samples")
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n, m = len(a), len(b)
    observed = _u_statistic(a, b)
    mu = n * m / 2.0
    total = math.comb(n + m, n)
    if total <= MAX_EXACT_SPLITS:
        pooled = a + b
        indices = range(n + m)
        extreme = 0
        threshold = abs(observed - mu) - 1e-12
        for chosen in combinations(indices, n):
            chosen_set = set(chosen)
            a_split = [pooled[i] for i in chosen]
            b_split = [pooled[i] for i in indices if i not in chosen_set]
            if abs(_u_statistic(a_split, b_split) - mu) >= threshold:
                extreme += 1
        return observed, extreme / total
    # Normal approximation with tie correction.
    pooled = sorted(a + b)
    tie_term = 0.0
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j] == pooled[i]:
            j += 1
        t = j - i
        tie_term += t ** 3 - t
        i = j
    count = n + m
    variance = (n * m / 12.0) * ((count + 1)
                                 - tie_term / (count * (count - 1)))
    if variance <= 0.0:  # every pooled value identical
        return observed, 1.0
    z = (abs(observed - mu) - 0.5) / math.sqrt(variance)
    return observed, min(1.0, 2.0 * _normal_sf(max(z, 0.0)))


# ----------------------------------------------------------------------
def paired_permutation_test(a: Sequence[float], b: Sequence[float],
                            key: str = "",
                            rounds: int = 10_000) -> float:
    """Two-sided paired permutation test on the mean difference.

    The samples are matched per index (same replicate seed on both
    sides).  Up to :data:`MAX_EXACT_FLIPS` pairs, all 2^n sign flips
    are enumerated; beyond that ``rounds`` Monte-Carlo flips drawn from
    a stream seeded by ``key``.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length "
                         f"({len(a)} vs {len(b)})")
    if not a:
        raise ValueError("paired_permutation_test of empty samples")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    observed = abs(mean(diffs))
    threshold = observed - 1e-12
    n = len(diffs)
    if n <= MAX_EXACT_FLIPS:
        extreme = 0
        for signs in range(1 << n):
            total = sum(d if signs & (1 << i) else -d
                        for i, d in enumerate(diffs))
            if abs(total / n) >= threshold:
                extreme += 1
        return extreme / (1 << n)
    rng = SplitMix64(seed_from("paired-permutation", key, rounds))
    extreme = 1  # the identity assignment is always as extreme
    for _ in range(rounds):
        total = sum(d if rng.random() < 0.5 else -d for d in diffs)
        if abs(total / n) >= threshold:
            extreme += 1
    return extreme / (rounds + 1)


def a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12 effect size: P(a > b) + 0.5 P(a = b).

    0.5 means no effect; 1.0 means every ``a`` beats every ``b``.
    """
    if not a or not b:
        raise ValueError("a12 needs two non-empty samples")
    return _u_statistic(a, b) / (len(a) * len(b))


__all__ = [
    "BOOTSTRAP_RESAMPLES",
    "MAX_EXACT_FLIPS",
    "MAX_EXACT_SPLITS",
    "a12",
    "bootstrap_ci",
    "mann_whitney_u",
    "mean",
    "median",
    "paired_permutation_test",
    "percentile",
]
