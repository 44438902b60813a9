import itertools
import math

import numpy as np
import pytest

from qroute.errors import AllZeroDifferences, DomainError
from qroute.stats import mean_stderr, wilcoxon_signed_rank, win_rate


def brute_force_signed_rank(pairs):
    """Full enumeration oracle over all 2^n sign assignments.

    Kept deliberately naive and independent of the production code path:
    ranks by sorting, tail counting by direct iteration over every
    pattern.
    """
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    mags = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[j + 1][0] == mags[i][0]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[mags[k][1]] = avg
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    observed = min(w_plus, w_minus)
    count = 0
    for signs in itertools.product((1, -1), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s > 0)
        wm = sum(r for r, s in zip(ranks, signs) if s < 0)
        if min(wp, wm) <= observed + 1e-12:
            count += 1
    return observed, count / 2**n


def test_five_positive_distinct_pairs():
    pairs = [(float(i + 2), 1.0) for i in range(5)]
    res = wilcoxon_signed_rank(pairs)
    assert res.statistic == 0.0
    assert res.pvalue == pytest.approx(2 / 32)
    assert res.exact


def test_matches_enumeration_oracle_on_random_lists():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        x = rng.normal(size=n)
        # force some exact ties in magnitude and some zero differences
        y = x + rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=n)
        pairs = list(zip(x.tolist(), y.tolist()))
        try:
            res = wilcoxon_signed_rank(pairs)
        except AllZeroDifferences:
            assert all(a == b for a, b in pairs)
            continue
        w_oracle, p_oracle = brute_force_signed_rank(pairs)
        assert res.statistic == pytest.approx(w_oracle)
        assert res.pvalue == pytest.approx(p_oracle)
        assert res.exact


def test_all_zero_differences_raises():
    with pytest.raises(AllZeroDifferences):
        wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(AllZeroDifferences):
        wilcoxon_signed_rank([])


@pytest.mark.parametrize(
    "bad",
    [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)],
)
def test_non_finite_pair_raises(bad):
    # a NaN difference passes d != 0 but falls in neither W+ nor W-
    with pytest.raises(DomainError):
        wilcoxon_signed_rank([bad, (1.0, 2.0), (3.0, 1.0)])


def test_zero_differences_are_dropped_not_counted():
    pairs = [(1.0, 1.0)] * 10 + [(float(i + 2), 1.0) for i in range(5)]
    res = wilcoxon_signed_rank(pairs)
    assert res.n_used == 5
    assert res.pvalue == pytest.approx(2 / 32)


def test_normal_approximation_path():
    rng = np.random.default_rng(23)
    shifted = [(float(v + 1.0), float(v)) for v in rng.normal(size=60)]
    res = wilcoxon_signed_rank(shifted)
    assert not res.exact
    assert res.pvalue < 1e-6
    balanced = [(float(v), float(v + (1 if i % 2 else -1))) for i, v in enumerate(rng.normal(size=60))]
    res2 = wilcoxon_signed_rank(balanced)
    assert res2.pvalue > 0.2


def test_normal_path_continuous_with_exact_boundary():
    rng = np.random.default_rng(4)
    x = rng.normal(size=25)
    y = x + rng.normal(scale=0.8, size=25) + 0.4
    pairs = list(zip(x.tolist(), y.tolist()))
    exact = wilcoxon_signed_rank(pairs)
    assert exact.exact
    pairs_plus = pairs + [(0.0, 1.0), (1.0, 0.0)]
    approx = wilcoxon_signed_rank(pairs_plus)
    assert not approx.exact
    # same direction of evidence, similar magnitude
    assert math.copysign(1, 0.5 - exact.pvalue) == math.copysign(1, 0.5 - approx.pvalue) or abs(exact.pvalue - approx.pvalue) < 0.2


def test_win_rate_anchor_values():
    rate, se = win_rate([True] * 20 + [False] * 10)
    assert f"{rate:.2f}" == "0.67"
    assert f"{se:.2f}" == "0.09"
    rate, se = win_rate([True] * 29 + [False])
    assert f"{rate:.2f}" == "0.97"
    assert f"{se:.2f}" == "0.03"


def test_win_rate_degenerate_and_empty():
    assert win_rate([False] * 12) == (0.0, 0.0)
    assert win_rate([True] * 12) == (1.0, 0.0)
    with pytest.raises(DomainError, match="win rate over an empty outcome list"):
        win_rate([])


def test_mean_stderr_formula():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=30).tolist()
    mean, se = mean_stderr(xs)
    assert mean == pytest.approx(float(np.mean(xs)))
    assert se == pytest.approx(float(np.std(xs, ddof=1) / math.sqrt(30)))
    assert mean_stderr([5.0]) == (5.0, 0.0)
