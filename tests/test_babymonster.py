"""Marginalization of the weight enumerator and the rank-47/2 characters."""

from fractions import Fraction

import pytest

from helpers import agree
from svoa.babymonster import baby_character, marginal_polynomial
from svoa.invariants import MultiPoly, monster_polynomial
from svoa.qseries import cbrt_j, chi_half

T = 480
LEAD = -47  # index of q^(-47/48)


def test_marginal_rule_examples():
    P = monster_polynomial()
    w0 = marginal_polynomial(P, 0)
    w1 = marginal_polynomial(P, 1)
    w2 = marginal_polynomial(P, 2)
    assert w0.coeff(47, 0, 0) == 48 * P.coeff(48, 0, 0) == 48
    assert w1.coeff(44, 3, 0) == 4 * P.coeff(44, 4, 0) == 3216
    assert w2.coeff(0, 0, 47) == 48 * P.coeff(0, 0, 48) == 98304
    for w in (w0, w1, w2):
        assert w.degree() == 47 and w.is_homogeneous()
        assert all(isinstance(v, int) and v > 0 for v in w.terms.values())


def test_marginal_sum_rule():
    # each source monomial spreads its degree 48 over the three slots
    P = monster_polynomial()
    w = [marginal_polynomial(P, l) for l in range(3)]
    for (i, j, k), m in P.terms.items():
        total = 0
        if i:
            total += w[0].coeff(i - 1, j, k)
        if j:
            total += w[1].coeff(i, j - 1, k)
        if k:
            total += w[2].coeff(i, j, k - 1)
        assert total == 48 * m, (i, j, k)


def test_marginal_rejects_bad_input():
    with pytest.raises(ValueError):
        marginal_polynomial(MultiPoly({(2, 0, 0): 1}), 0)
    with pytest.raises(ValueError):
        marginal_polynomial(monster_polynomial(), 3)


def test_component_characters():
    x0 = baby_character(0, T)
    x1 = baby_character(1, T)
    x2 = baby_character(2, T)
    assert [x0.coeff(LEAD + o) for o in (0, 96, 144, 192, 240)] == \
        [1, 96256, 9646891, 366845011, 8223700027]
    assert [x1.coeff(LEAD + o) for o in (72, 120, 168, 216)] == \
        [4371, 1143745, 64680601, 1829005611]
    assert [x2.coeff(LEAD + o) for o in (93, 141, 189, 237)] == \
        [96256, 10602496, 420831232, 9685952512]


def test_sector_gradings():
    x0 = baby_character(0, T)
    x1 = baby_character(1, T)
    x2 = baby_character(2, T)
    assert all((n - LEAD) % 48 == 0 for n in x0.coeffs)
    assert all((n - LEAD) % 48 == 24 for n in x1.coeffs)
    assert all((n - LEAD) % 48 == 45 for n in x2.coeffs)
    # no weight-1 or weight-1/2 states
    assert x0.coeff(LEAD + 48) == 0
    assert x1.coeff(LEAD + 24) == 0
    for x in (x0, x1, x2):
        assert all(isinstance(c, int) and c >= 0 for c in x.coeffs.values())


def test_identity_three_ways():
    total = baby_character(0, T) + baby_character(1, T)
    x = chi_half(T + 96)
    closed = x ** 47 - (x ** 23).scale(47)
    assert agree(total, closed)
    assert total.coeff(LEAD + 72) == 4371
    # the two closed forms are equal because x8 = x^16 - 16 x^-8:
    # -(31/16) x^47 + (47/16) x^31 (x^16 - 16 x^-8) = x^47 - 47 x^23
    y = cbrt_j(T + 96)
    alt = (x ** 47).scale(Fraction(-31, 16)) + ((x ** 31) * y).scale(Fraction(47, 16))
    assert agree(closed, alt)


def test_decomposition_bundle():
    # the sector-1/2 marginal and character, and all three marginals'
    # multiplicities are nonnegative integers
    w = [marginal_polynomial(monster_polynomial(), l) for l in range(3)]
    assert w[1].coeff(44, 3, 0) == 3216
    assert baby_character(1, T).coeff(LEAD + 72) == 4371
    for wl in w:
        assert all(v >= 0 and Fraction(v).denominator == 1 for v in wl.terms.values())
