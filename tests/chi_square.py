"""Pearson's chi-square test of counts against a uniform expectation, from
the standard library."""

import math


def chi_square(counts) -> tuple[float, float]:
    """The statistic of ``counts`` and its upper tail (the p-value) under
    ``len(counts) - 1`` degrees of freedom."""
    expected = sum(counts) / len(counts)
    stat = sum((c - expected) ** 2 for c in counts) / expected
    df, y = len(counts) - 1, stat / 2
    # the tail is Q(df/2, y), the regularised upper incomplete gamma, which
    # closes from Q(1/2, y) = erfc(sqrt(y)) or Q(1, y) = exp(-y) through
    # Q(a + 1, y) = Q(a, y) + y**a * exp(-y) / gamma(a + 1)
    a, p = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1, math.exp(-y))
    while a < df / 2:
        p += y ** a * math.exp(-y) / math.gamma(a + 1)
        a += 1
    return stat, p
