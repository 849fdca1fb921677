"""Character of the baby-monster SVOA and its three component modules.

Fixing one tensor slot of the rank-24 weight enumerator and summing over
the 48 possible positions turns, by double counting, the degree-48
multiplicities m_{i,j,k} into degree-47 marginals w_{i,j,k}; substituting
the three rank-1/2 characters and dividing by 48 yields the component
characters, which are all this module computes.  Their 0- and 1/2-sector
sum is the closed form x^47 - 47 x^23 in the weight-1/2 generator x, an
identity the test suite checks.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import MultiPoly, evaluate_at_characters, monster_polynomial
from .qseries import DEFAULT_TRUNC, QSeries


def marginal_polynomial(P: MultiPoly, sector: int) -> MultiPoly:
    """Position-summed slot marginal of a degree-48 enumerator.

    w_{i,j,k} = (i+1) m_{i+1,j,k} for sector 0, (j+1) m_{i,j+1,k} for
    sector 1, (k+1) m_{i,j,k+1} for sector 2.
    """
    if sector not in (0, 1, 2):
        raise ValueError("sector must be 0, 1 or 2")
    if not P.is_homogeneous() or P.degree() != 48:
        raise ValueError("marginal needs a homogeneous degree-48 polynomial")
    # the derivative of P in the sector's variable
    return MultiPoly({m[:sector] + (m[sector] - 1,) + m[sector + 1:]: m[sector] * c
                      for m, c in P.terms.items() if m[sector]})


def baby_character(sector: int, trunc=DEFAULT_TRUNC) -> QSeries:
    """Character of the sector-l component module, l = 0, 1, 2: the
    marginal evaluated at the characters, over 48; ArithmeticError if a
    coefficient is not an integer."""
    w = marginal_polynomial(monster_polynomial(), sector)
    x = evaluate_at_characters(w, trunc).scale(Fraction(1, 48))
    for n, c in x.coeffs.items():
        if Fraction(c).denominator != 1:
            raise ArithmeticError("non-integer coefficient %s at index %d: "
                                  "upstream enumerator is inconsistent" % (c, n))
    return x
