"""Exact arithmetic in the cyclotomic field Q(zeta_48).

Every root-of-unity phase occurring in the modular transformation matrices
lives in Q(zeta_48), as does sqrt(2) = zeta^6 + zeta^-6, so this single
field suffices for the whole package.  An element is stored as an integer
coordinate vector over the power basis 1, z, ..., z^15 (z = exp(2 pi i/48))
together with a common positive denominator, reduced modulo
Phi_48(x) = x^16 - x^8 + 1 and normalized with gcd(content, den) = 1.
The representation is canonical, so equality is coordinate equality and
elements can be hashed (matrix-group closure relies on this).  Inversion
uses the Galois norm: the conjugates sigma_k (zeta -> zeta^k, k a unit
mod 48) permute the 48 powers of zeta, and a times the product of its 15
nontrivial conjugates is the rational norm N(a).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

DEGREE = 16  # degree of Phi_48
# k with zeta -> zeta^k a nontrivial automorphism: the units mod 48 except 1
_UNITS = tuple(k for k in range(2, 48) if gcd(k, 48) == 1)


def _reduce(vec):
    """Reduce a coefficient list in place modulo x^16 = x^8 - 1."""
    for p in range(len(vec) - 1, DEGREE - 1, -1):
        cp = vec[p]
        if cp:
            vec[p] = 0
            vec[p - 8] += cp
            vec[p - 16] -= cp
    return vec[:DEGREE]


class Cyclo:
    """Element of Q(zeta_48) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        # num: iterable of ints, den: int != 0 (rationals enter through
        # from_rational and multiplication by a Fraction).
        num = list(num)
        if len(num) > DEGREE:
            num = _reduce(num)
        num += [0] * (DEGREE - len(num))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-x for x in num]
        g = den
        for x in num:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [x // g for x in num]
        self.num = tuple(num)
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r) -> "Cyclo":
        r = Fraction(r)
        return Cyclo([r.numerator] + [0] * 15, r.denominator)

    @staticmethod
    def coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo.from_rational(x)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element: %r" % (self,))
        return Fraction(self.num[0], self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, (int, Fraction)):
                other = Cyclo.from_rational(other)
            else:
                return NotImplemented
        a, b = self, other
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return Cyclo(num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo([-x for x in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        return self + (-Cyclo.coerce(other))

    def __rsub__(self, other):
        return Cyclo.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, int):
                if other == 0:
                    return _ZERO
                return Cyclo([x * other for x in self.num], self.den)
            if isinstance(other, Fraction):
                return Cyclo([x * other.numerator for x in self.num],
                             self.den * other.denominator)
            return NotImplemented
        out = [0] * 31
        anz = [(i, x) for i, x in enumerate(self.num) if x]
        bnz = [(j, y) for j, y in enumerate(other.num) if y]
        for i, x in anz:
            for j, y in bnz:
                out[i + j] += x * y
        return Cyclo(_reduce(out), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse via the Galois norm: with P the product of
        the conjugates sigma_k(a), k != 1, a * P = N(a) is rational and
        a^-1 = P / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_48)")
        if self.is_rational():
            return Cyclo.from_rational(1 / self.rational())
        P = _ONE
        for k in _UNITS:
            vec = [0] * 48   # sigma_k maps zeta^i to zeta^(i*k)
            for i, x in enumerate(self.num):
                vec[i * k % 48] += x
            P = P * Cyclo(vec, self.den)
        return P * (1 / (self * P).rational())

    def __truediv__(self, other):
        return self * Cyclo.coerce(other).inv()

    def __rtruediv__(self, other):
        return Cyclo.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        r = _ONE
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational() == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return str(self.rational())
        parts = []
        for i, x in enumerate(self.num):
            if x:
                coeff = Fraction(x, self.den)
                parts.append(("%s" % coeff) if i == 0 else "%s*z^%d" % (coeff, i))
        return "(" + " + ".join(parts) + ")"


def zeta_pow(k: int) -> Cyclo:
    """The root of unity zeta_48^k in canonical form."""
    k %= 48
    vec = [0] * (k + 1)
    vec[k] = 1
    return Cyclo(vec)


def sqrt2() -> Cyclo:
    """sqrt(2) = zeta^6 + zeta^-6."""
    return zeta_pow(6) + zeta_pow(-6)


_ZERO = Cyclo([0])
_ONE = Cyclo([1])


def cyc_zero() -> Cyclo:
    return _ZERO


def cyc_one() -> Cyclo:
    return _ONE
