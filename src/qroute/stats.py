"""Nonparametric comparison statistics for paired evaluation results.

The signed-rank test here is exact for small samples: with n nonzero
differences the null distribution of the rank sum is built by dynamic
programming over all 2^n sign assignments (ranks are doubled so midranks
from ties stay integral). Beyond the exact cutoff a normal approximation
with tie correction takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllZeroDifferences, DomainError

EXACT_CUTOFF = 25


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # W = min(W+, W-)
    pvalue: float  # two-sided
    n_used: int  # pairs remaining after zero differences are dropped
    exact: bool


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of |d| with ties sharing their average rank, and the size of
    each group of tied values."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based rank of each group's last member
    return (last - (counts - 1) / 2.0)[group], counts


def _exact_two_sided_p(ranks: np.ndarray, w_min: float) -> float:
    """P(min(W+, W-) <= observed) under the symmetric null, by enumeration.

    Doubling the (possibly half-integer) ranks makes every achievable rank
    sum an integer, so the full distribution fits in one count array.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    w2 = int(round(2.0 * w_min))
    low = counts[: w2 + 1].sum()  # W- <= w
    high = counts[total - w2 :].sum()  # W- >= total - w, i.e. W+ <= w
    overlap = 0.0
    if total - w2 <= w2:  # tails intersect near the middle
        overlap = counts[total - w2 : w2 + 1].sum()
    return float(min(1.0, (low + high - overlap) / counts.sum()))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Two-sided paired signed-rank test on (x, y) pairs.

    Zero differences are dropped; tied magnitudes share average ranks. The
    statistic is min(W+, W-). Exact enumeration up to n=25 nonzero pairs,
    normal approximation with tie correction beyond. A non-finite value
    has no rank, so any pair holding one is refused.
    """
    if not pairs:
        raise AllZeroDifferences("no pairs given")
    xy = np.array([(float(x), float(y)) for x, y in pairs], dtype=np.float64)
    if not np.isfinite(xy).all():
        raise DomainError("signed-rank pairs must be finite")
    d = xy[:, 0] - xy[:, 1]
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise AllZeroDifferences("all pair differences are zero")

    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= EXACT_CUTOFF:
        p = _exact_two_sided_p(ranks, w)
        return WilcoxonResult(statistic=w, pvalue=p, n_used=n, exact=True)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: each group of t equal magnitudes removes (t^3 - t)/48
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        return WilcoxonResult(statistic=w, pvalue=1.0, n_used=n, exact=False)
    z = (w - mean) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(statistic=w, pvalue=p, n_used=n, exact=False)


def win_rate(outcomes: Sequence[bool]) -> tuple[float, float]:
    """Fraction of wins with its binomial standard error."""
    if len(outcomes) == 0:
        raise DomainError("win rate over an empty outcome list")
    n = len(outcomes)
    rate = sum(1 for o in outcomes if o) / n
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    return rate, stderr


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard error (sample stddev over sqrt(n))."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DomainError("mean of empty sequence")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))
