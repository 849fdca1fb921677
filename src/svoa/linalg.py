"""Exact Gauss-Jordan elimination, shared by every exact solve in the
package: the determinants of the generators of the S/T group closure over
Q(zeta_48), and the degree-48 enumerator constraints and basis rank over Q.

Entries need only +, -, *, == 0 and Fraction(1) / x, so int, Fraction and
Cyclo entries all work; ints are divided exactly, as Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def gauss_jordan(rows, rhs=()):
    """Row-reduce the m x n matrix `rows` augmented by the columns in `rhs`.

    Returns (det, pivots, reduced): det is the signed product of the pivots,
    the determinant when the matrix is square (0 when it is singular);
    pivots lists the columns among the first n that hold a leading 1; and
    reduced is the m x (n + len(rhs)) reduced row echelon form, whose first
    len(pivots) rows carry those leading 1s.
    """
    m = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    n = len(rows[0]) if rows else 0
    det = 1
    pivots = []
    for col in range(n):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(m)) if m[r][col] != 0), None)
        if piv is None:
            det = 0
            continue
        if piv != r0:
            m[r0], m[piv] = m[piv], m[r0]
            det = -det
        det = det * m[r0][col]
        inv_p = Fraction(1) / m[r0][col]
        m[r0] = [x * inv_p for x in m[r0]]
        for r in range(len(m)):
            f = m[r][col]
            if r != r0 and f != 0:
                m[r] = [x - f * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    return det, pivots, m
