"""The shared exact Gauss-Jordan elimination over Q and Q(zeta_48)."""

from fractions import Fraction

from svoa.cyclo import sqrt2, zeta_pow
from svoa.linalg import gauss_jordan


def test_rank_deficient_rectangular():
    F = Fraction
    rows = [[F(1), F(2), F(3), F(4)],
            [F(2), F(4), F(6), F(8)],
            [F(0), F(0), F(1, 2), F(1)]]
    det, pivots, reduced = gauss_jordan(rows)
    assert pivots == [0, 2]
    assert det == 0
    assert reduced == [[1, 2, 0, -2], [0, 0, 1, 2], [0, 0, 0, 0]]


def test_singular_square_has_zero_det():
    det, pivots, _ = gauss_jordan([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert det == 0 and pivots == [0, 1]


def test_determinant_and_solve():
    # integer entries; the row swap flips the sign of the pivot product
    det, pivots, reduced = gauss_jordan([[0, 3], [2, 1]], rhs=[[3, 5], [0, 2]])
    assert det == -6 and pivots == [0, 1]
    assert [row[2] for row in reduced] == [2, 1]
    assert [row[3] for row in reduced] == [1, 0]


def test_cyclotomic_entries():
    s, z = sqrt2(), zeta_pow(1)
    det, pivots, reduced = gauss_jordan([[s, z], [z, s]])
    assert det == 2 - z * z and pivots == [0, 1]
    assert [row[:2] for row in reduced] == [[1, 0], [0, 1]]
