"""Character of the baby-monster SVOA and its three component modules.

Fixing one tensor slot of the rank-24 weight enumerator and summing over
the 48 possible positions turns, by double counting, the degree-48
multiplicities m_{i,j,k} into degree-47 marginals w_{i,j,k}; substituting
the three rank-1/2 characters and dividing by 48 yields the component
characters.  Their 0- and 1/2-sector sum is the closed form
x^47 - 47 x^23 in the weight-1/2 generator x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .invariants import MultiPoly, evaluate_at_characters, monster_polynomial
from .qseries import DEFAULT_TRUNC, GRID, QSeries, cbrt_j, chi_half

SECTOR_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1, 16))


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


def _character(w: MultiPoly, trunc) -> QSeries:
    x = evaluate_at_characters(w, trunc).scale(Fraction(1, 48))
    for n, c in x.coeffs.items():
        if Fraction(c).denominator != 1:
            raise ArithmeticError("non-integer coefficient %s at index %d: "
                                  "upstream enumerator is inconsistent" % (c, n))
    return x


def baby_character(sector: int, trunc=DEFAULT_TRUNC) -> QSeries:
    """Character of the sector-l component module, l = 0, 1, 2."""
    return _character(marginal_polynomial(monster_polynomial(), sector), trunc)


def baby_identity_check(trunc=DEFAULT_TRUNC) -> bool:
    """Three-way identity: sector-0 plus sector-1 character equals
    x^47 - 47 x^23 equals -(31/16) x^47 + (47/16) x^31 y for the
    weight-1/2 generator x and weight-8 generator y."""
    total = baby_character(0, trunc) + baby_character(1, trunc)
    x = chi_half(trunc + 2 * GRID)
    closed = x ** 47 - (x ** 23).scale(47)
    y = cbrt_j(trunc + 2 * GRID)
    alt = (x ** 47).scale(Fraction(-31, 16)) + ((x ** 31) * y).scale(Fraction(47, 16))
    return (total.first_difference(closed) is None
            and total.first_difference(alt) is None)


@dataclass
class BabyDecomposition:
    sector: int
    weight: Fraction
    marginal: MultiPoly
    character: QSeries


def baby_decomposition(sector: int, trunc=DEFAULT_TRUNC) -> BabyDecomposition:
    w = marginal_polynomial(monster_polynomial(), sector)
    if any(v < 0 or Fraction(v).denominator != 1 for v in w.terms.values()):
        raise ArithmeticError("marginal multiplicities must be nonnegative integers")
    return BabyDecomposition(sector=sector, weight=SECTOR_WEIGHTS[sector],
                             marginal=w, character=_character(w, trunc))
