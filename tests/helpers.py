"""Checks the tests share, written against the library's public API."""

from math import lcm


def agree(x, y):
    """The coefficients of the series x and y agree below their common
    truncation; the canonical slot form makes that an equality of the two
    series cut there."""
    t = min(x.trunc, y.trunc)
    return x.truncate(t) == y.truncate(t)


def denominator_profile(a):
    """Running lcm of coefficient denominators, in index order."""
    out = []
    acc = 1
    for c in a.coeffs.values():
        acc = lcm(acc, c.denominator)
        out.append(acc)
    return out
