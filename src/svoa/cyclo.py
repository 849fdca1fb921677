"""Exact arithmetic in the cyclotomic field Q(zeta_48).

Every root-of-unity phase occurring in the modular transformation matrices
lives in Q(zeta_48), as does sqrt(2) = zeta^6 + zeta^-6, so this single
field suffices for the whole package.  An element is an integer vector over
the power basis 1, z, ..., z^15 (z = exp(2 pi i/48)) with a common positive
denominator, reduced modulo Phi_48(x) = x^16 - x^8 + 1 and normalized with
gcd(content, den) = 1.  `terms` stores only the nonzero (index, integer)
pairs, ascending; `num` is the dense 16-tuple.  The form is canonical, so
equality is coordinate equality and elements can be hashed.

All ring arithmetic is one kernel, `dot`, a sum of products: raw integer
products accumulate in one 31-slot list over a running common denominator,
reduced modulo Phi_48 and normalized once per sum.  Matrix products,
minors, the Molien recurrence and the shears call it directly; `+`, `-` and
`*` are one- or two-pair calls.  `sigma(k)` is the Galois automorphism
zeta -> zeta^k; inversion uses the Galois norm: a times its 15 nontrivial
conjugates sigma_k(a) is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

DEGREE = 16  # degree of Phi_48
# k with zeta -> zeta^k a nontrivial automorphism: the units mod 48 except 1
_UNITS = tuple(k for k in range(2, 48) if gcd(k, 48) == 1)


def _canon(vec, top, den):
    """vec/den (den > 0), vec reduced in place modulo x^16 = x^8 - 1 from
    index `top` down, then made coprime to den; zero is the shared _ZERO."""
    for p in range(top, DEGREE - 1, -1):
        c = vec[p]
        if c:
            vec[p - 8] += c
            vec[p - 16] -= c
    terms = [(i, v) for i, v in enumerate(vec[:min(top + 1, DEGREE)]) if v]
    if not terms:
        return _ZERO
    if den > 1:
        g = gcd(den, *[v for _, v in terms])
        if g > 1:
            den //= g
            terms = [(i, v // g) for i, v in terms]
    x = object.__new__(Cyclo)
    x.terms = tuple(terms)
    x.den = den
    return x


def _parts(r):
    """(terms, den) of an int or Fraction; anything else is a TypeError."""
    if not isinstance(r, (int, Fraction)):
        raise TypeError("not an element of Q(zeta_48): %r" % (r,))
    return ((0, int(r.numerator)),) if r else (), r.denominator


def dot(pairs, minus=()) -> "Cyclo":
    """sum x*y over (x, y) in `pairs` minus the same sum over `minus`, each
    factor a Cyclo, an int or a Fraction, normalized once at the end."""
    acc = [0] * 31
    den = 1
    top = -1  # highest index touched so far
    for sign, group in ((1, pairs), (-1, minus)):
        for x, y in group:
            xt, xd = (x.terms, x.den) if x.__class__ is Cyclo else _parts(x)
            yt, yd = (y.terms, y.den) if y.__class__ is Cyclo else _parts(y)
            if not (xt and yt):
                continue
            d = xd * yd
            if den % d:
                g = d // gcd(den, d)
                for k in range(top + 1):
                    acc[k] *= g
                den *= g
            f = den // d * sign
            for i, a in xt:
                a *= f
                for j, b in yt:
                    acc[i + j] += a * b
            t = xt[-1][0] + yt[-1][0]
            if t > top:
                top = t
    return _canon(acc, top, den)


def power(b, n: int):
    """b**n for n >= 1 by repeated squaring, from the lowest set bit of n
    and with no squaring past its top bit."""
    r = None
    while True:
        if n & 1:
            r = b if r is None else r * b
        n >>= 1
        if not n:
            return r
        b = b * b


class Cyclo:
    """Element of Q(zeta_48) in canonical reduced form."""

    __slots__ = ("terms", "den")

    def __new__(cls, num, den=1):
        # num: iterable of ints, any length; den: int != 0 (rationals enter
        # through from_rational and multiplication by a Fraction)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num = [-x for x in num] if den < 0 else list(num)
        return _canon(num, len(num) - 1, abs(den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r) -> "Cyclo":
        r = Fraction(r)
        return _canon([r.numerator], 0, r.denominator)

    @staticmethod
    def coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo.from_rational(x)

    # -- predicates / conversions ------------------------------------------

    @property
    def num(self) -> tuple:
        """The dense coordinate 16-tuple."""
        vec = [0] * DEGREE
        for i, x in self.terms:
            vec[i] = x
        return tuple(vec)

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or self.terms[-1][0] == 0

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element: %r" % (self,))
        return Fraction(self.terms[0][1] if self.terms else 0, self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        return dot(((self, _ONE), (other, _ONE)))

    __radd__ = __add__

    def __neg__(self):
        return dot((), ((self, _ONE),))

    def __sub__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        return dot(((self, _ONE),), ((other, _ONE),))

    def __rsub__(self, other):
        return dot(((other, _ONE),), ((self, _ONE),))

    def __mul__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        return dot(((self, other),))

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
            P = P * self.sigma(k)
        return P * (1 / (self * P).rational())

    def sigma(self, k: int) -> "Cyclo":
        """The Galois conjugate sigma_k(self), sigma_k: zeta -> zeta^k for k
        a unit mod 48; sigma_-1 is complex conjugation."""
        if gcd(k, 48) != 1:
            raise ValueError("zeta -> zeta^%d is not an automorphism" % k)
        vec = [0] * 48
        for i, x in self.terms:
            vec[i * k % 48] += x
        return Cyclo(vec, self.den)

    def __truediv__(self, other):
        return self * Cyclo.coerce(other).inv()

    def __rtruediv__(self, other):
        return Cyclo.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n) if n else _ONE

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational() == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.terms == other.terms and self.den == other.den

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        terms, den = self.terms, self.den
        if not terms:
            return 0
        if terms[-1][0]:
            return hash((terms, den))
        x = terms[0][1]
        return hash(x) if den == 1 else hash(Fraction(x, den))

    def __repr__(self):
        if self.is_rational():
            return str(self.rational())
        parts = []
        for i, x in self.terms:
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


_ZERO = object.__new__(Cyclo)
_ZERO.terms, _ZERO.den = (), 1
_ONE = Cyclo([1])


def cyc_zero() -> Cyclo:
    return _ZERO


def cyc_one() -> Cyclo:
    return _ONE
