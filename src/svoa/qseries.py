"""Truncated q-series on the 1/48 exponent grid, plus the catalog of
standard modular expansions.

A series is a sparse map index -> coefficient where index n stands for
q^(n/48).  The grid 1/48 is the finest needed anywhere: a character of
rank c in (1/2)Z starts at q^(-c/24) in (1/48)Z, and the 1/16-sector
exponents land on it as well.  Coefficients are ints and Fractions only;
rationals with denominator 1 are stored as plain ints so that the hot
convolution loops run on machine integers.

Truncation semantics: `trunc` is the exclusive upper index bound to which
the coefficients are trusted.  Arithmetic propagates the tightest valid
bound (``min`` for +/-, the lead-shifted ``min`` for products).

The series stay sparse on the 1/48 grid, but the product and inverse
kernels and the fractional-power recurrence run in units of a stride g:
the gcd of the operands' offsets from their leads.  Every result
coefficient then sits at the result's lead plus a multiple of g, so the
recurrences run on a dense list, and an integer-step series (g = 48)
never visits the 47 empty indices between two terms.

Every infinite product in the catalog is an eta quotient, a product of
dilated Euler products prod_{n>=1} (1 - q^(n*s/48)) to integer powers,
built by the one product primitive `eta_quotient`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import power

GRID = 48
DEFAULT_TRUNC = 10 * GRID  # q^10


class GridError(ValueError):
    """Raised when an operation would leave the 1/48 exponent grid."""


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _coeff_div(a, b):
    """Exact division of coefficients (never integer floor division)."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        if not m:
            return q
    return _norm_coeff(Fraction(a) / Fraction(b))


def _stride(coeffs, lead, g=0):
    """gcd of g and the support's offsets from `lead` (0: a single term)."""
    return gcd(g, *(n - lead for n in coeffs))


def _from_slots(slots, lead, g, trunc):
    """The series with coefficient slots[k] at index lead + k*g."""
    return QSeries({lead + g * k: c for k, c in enumerate(slots) if c}, trunc)


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        self.trunc = trunc
        self.coeffs = {}
        for n, c in coeffs.items():
            if n >= trunc:
                continue
            if c:
                self.coeffs[n] = _norm_coeff(c)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(trunc=DEFAULT_TRUNC):
        return QSeries({}, trunc)

    @staticmethod
    def one(trunc=DEFAULT_TRUNC):
        return QSeries({0: 1}, trunc)

    @staticmethod
    def monomial(index, coeff=1, trunc=DEFAULT_TRUNC):
        return QSeries({index: coeff}, trunc)

    # -- basic queries --------------------------------------------------------

    @property
    def lead(self):
        """Smallest index with nonzero coefficient (None for the zero series)."""
        return min(self.coeffs) if self.coeffs else None

    @property
    def lead_coeff(self):
        return self.coeffs[min(self.coeffs)] if self.coeffs else 0

    def coeff(self, index):
        return self.coeffs.get(index, 0)

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    # -- ring operations -------------------------------------------------------

    def _lead_or_trunc(self):
        return self.lead if self.coeffs else self.trunc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries({0: other}, self.trunc)
        t = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return QSeries(out, t)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries({0: other}, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s):
        if s == 0:
            return QSeries({}, self.trunc)
        return QSeries({n: c * s for n, c in self.coeffs.items()}, self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        t = min(self.trunc + other._lead_or_trunc(),
                other.trunc + self._lead_or_trunc())
        a = self.coeffs
        b = other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return QSeries({}, t)
        ea, eb = min(a), min(b)
        e = ea + eb
        g = _stride(a, ea, _stride(b, eb)) or t - e
        out = [0] * ((t - e - 1) // g + 1)
        n = len(out)
        bk = sorted(((j - eb) // g, y) for j, y in b.items())
        for i, x in a.items():
            i = (i - ea) // g
            for j, y in bk:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
        return _from_slots(out, e, g, t)

    __rmul__ = __mul__

    def shift(self, dindex):
        """Multiply by q^(dindex/48)."""
        return QSeries({n + dindex: c for n, c in self.coeffs.items()},
                       self.trunc + dindex)

    def truncate(self, trunc):
        return QSeries({n: c for n, c in self.coeffs.items() if n < trunc},
                       min(self.trunc, trunc))

    def inv(self):
        """Multiplicative inverse; the result is valid to trunc - 2*lead."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        e = self.lead
        span = self.trunc - e
        g = _stride(self.coeffs, e) or span
        u0inv = _coeff_div(1, self.coeffs[e])
        rest = sorted(((n - e) // g, c) for n, c in self.coeffs.items() if n != e)
        out = [u0inv] + [0] * ((span - 1) // g)
        for k in range(1, len(out)):
            # coefficient k of (unit part) * (partial inverse) must vanish
            s = 0
            for m, c in rest:
                if m > k:
                    break
                y = out[k - m]
                if y:
                    s += c * y
            if s:
                out[k] = _norm_coeff(-(s * u0inv))
        return _from_slots(out, -e, g, self.trunc - 2 * e)

    def __pow__(self, n: int):
        if n == 0:
            rel = self.trunc - self.lead if self.coeffs else self.trunc
            return QSeries.one(rel)
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n)

    def derivative(self, step_index=GRID):
        """Formal derivative d/dp with p = q^(step_index/48).

        step_index=48 is d/dq; step_index=24 differentiates with respect
        to q^(1/2).
        """
        out = {}
        for n, c in self.coeffs.items():
            out[n - step_index] = c * Fraction(n, step_index)
        return QSeries(out, self.trunc - step_index)

    # -- fractional powers -----------------------------------------------------

    def pow_rational(self, r) -> "QSeries":
        """a^r for rational r = p/q by J.C.P. Miller's power recurrence
        (Knuth, TAOCP vol. 2, 4.7) on the unit part u, u_0 = 1:
        q*n*y_n = sum_{k=1..n} ((p+q)*k - q*n) * u_k * y_(n-k), y = u^r,
        in units of the stride of u.

        Requires leading coefficient exactly 1; the shifted leading
        exponent r*lead must land back on the 1/48 grid.
        """
        r = Fraction(r)
        if r.denominator == 1:
            return self ** int(r)
        if self.is_zero():
            raise ZeroDivisionError("fractional power of the zero series")
        e = self.lead
        if self.coeffs[e] != 1:
            raise ValueError("fractional power needs leading coefficient 1, got %s"
                             % (self.coeffs[e],))
        re = r * e
        if re.denominator != 1:
            raise GridError("leading exponent %s/48 times %s leaves the 1/48 grid"
                            % (e, r))
        p, q = r.numerator, r.denominator
        span = self.trunc - e
        g = _stride(self.coeffs, e) or span
        rest = sorted(((n - e) // g, c) for n, c in self.coeffs.items() if n != e)
        out = [1] + [0] * ((span - 1) // g)
        for n in range(1, len(out)):
            s = 0
            for k, c in rest:
                if k > n:
                    break
                y = out[n - k]
                if y:
                    s += ((p + q) * k - q * n) * c * y
            if s:
                out[n] = _coeff_div(s, q * n)
        return _from_slots(out, int(re), g, int(re) + span)

    # -- comparison and display -------------------------------------------------

    def agrees_with(self, other, upto=None) -> bool:
        """Equality of coefficients up to the common truncation."""
        return self.first_difference(other, upto) is None

    def first_difference(self, other, upto=None):
        """Smallest index where the two series differ, or None."""
        t = min(self.trunc, other.trunc)
        if upto is not None:
            t = min(t, upto)
        diffs = [n for n in set(self.coeffs) | set(other.coeffs)
                 if n < t and self.coeff(n) != other.coeff(n)]
        return min(diffs) if diffs else None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in self.support():
            c = self.coeffs[n]
            e = Fraction(n, GRID)
            if e == 0:
                parts.append(str(c))
            else:
                es = ("q" if e == 1 else
                      "q^%d" % e if e.denominator == 1 else
                      "q^(%s)" % e)
                cs = "" if c == 1 else ("-" if c == -1 else str(c) + " ")
                parts.append(cs + es)
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        terms = []
        for n in self.support():
            f = Fraction(self.coeffs[n])
            terms.append([n, "%d/%d" % (f.numerator, f.denominator)
                          if f.denominator != 1 else str(f.numerator)])
        return {"grid": GRID, "trunc": self.trunc, "terms": terms}

    @staticmethod
    def from_json(obj):
        if obj.get("grid") != GRID:
            raise ValueError("unsupported grid %r" % obj.get("grid"))
        return QSeries({int(n): Fraction(v) for n, v in obj["terms"]},
                       obj["trunc"])


def denominator_profile(a: QSeries):
    """Running lcm of coefficient denominators, in index order."""
    out = []
    acc = 1
    for n in a.support():
        c = a.coeffs[n]
        d = c.denominator if isinstance(c, Fraction) else 1
        acc = acc * d // gcd(acc, d)
        out.append(acc)
    return out


# -- the catalog of standard expansions -------------------------------------------


def euler_product(trunc, step=GRID) -> QSeries:
    """prod_{n>=1} (1 - q^(n*step/48)) by Euler's pentagonal number theorem:
    the sum over all integers k of (-1)^k q^(step*k(3k-1)/2 / 48)."""
    out = {}
    k = 0
    # k = 0, 1, -1, 2, -2, ... gives the pentagonal numbers in increasing order
    while (n := step * (k * (3 * k - 1) // 2)) < trunc:
        out[n] = -1 if k % 2 else 1
        k = -k if k > 0 else 1 - k
    return QSeries(out, trunc)


def eta_quotient(exps, trunc) -> QSeries:
    """prod over (step, e) in `exps` of euler_product(trunc, step) ** e, with
    the factors of negative e inverted by one `inv`; exact to `trunc`."""
    num, den = QSeries.one(trunc), QSeries.one(trunc)
    for step, e in exps:
        if e > 0:
            num = num * euler_product(trunc, step) ** e
        else:
            den = den * euler_product(trunc, step) ** -e
    return num * den.inv()


# (step, exponent) pairs of the products that recur in the catalog
HALF_STEPS_PLUS = ((GRID, 2), (24, -1), (96, -1))  # prod (1 + q^(n-1/2))
HALF_STEPS_MINUS = ((24, 1), (GRID, -1))  # prod (1 - q^(n-1/2))
ONE_PLUS_QN = ((96, 1), (GRID, -1))  # prod (1 + q^n)


def eta(trunc=DEFAULT_TRUNC) -> QSeries:
    return euler_product(trunc - 2).shift(2)


def theta_Z(trunc=DEFAULT_TRUNC) -> QSeries:
    out = {0: 1}
    n = 1
    while 24 * n * n < trunc:
        out[24 * n * n] = 2
        n += 1
    return QSeries(out, trunc)


def theta_Z_half(trunc=DEFAULT_TRUNC) -> QSeries:
    # sum over n of q^((n+1/2)^2/2); exponent index 24 n(n+1) + 6
    out = {}
    n = 0
    while 24 * n * (n + 1) + 6 < trunc:
        out[24 * n * (n + 1) + 6] = 2
        n += 1
    return QSeries(out, trunc)


def _sigma3(n):
    s = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            s += d ** 3
            e = n // d
            if e != d:
                s += e ** 3
        d += 1
    return s


def E4(trunc=DEFAULT_TRUNC) -> QSeries:
    out = {0: 1}
    n = 1
    while GRID * n < trunc:
        out[GRID * n] = 240 * _sigma3(n)
        n += 1
    return QSeries(out, trunc)


def delta(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta(trunc) ** 24


def j_function(trunc=DEFAULT_TRUNC) -> QSeries:
    # E4^3 starts at 0 and delta at q, so extend the working precision so
    # that the quotient is valid to `trunc`.
    t = trunc + 2 * GRID
    return (E4(t) ** 3) * delta(t).inv()


def cbrt_j(trunc=DEFAULT_TRUNC) -> QSeries:
    t = trunc + GRID
    return E4(t) * (eta(t) ** 8).inv()


def j_theta(trunc=DEFAULT_TRUNC) -> QSeries:
    # (Theta_Z / eta)^12
    t = trunc + 30
    return (theta_Z(t) * eta(t).inv()) ** 12


def chi_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(HALF_STEPS_PLUS, trunc + 1).shift(-1)


def chi_half_minus(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(HALF_STEPS_MINUS, trunc + 1).shift(-1)


def _fermion_sector(trunc, parity) -> QSeries:
    """The terms of chi_half at index -1 + 24m with m = parity mod 2."""
    x = chi_half(trunc)
    return QSeries({n: c for n, c in x.coeffs.items()
                    if (n + 1) // 24 % 2 == parity}, x.trunc)


def chi_ising_0(trunc=DEFAULT_TRUNC) -> QSeries:
    # the integer-offset half of chi_half: q^(-1/48) times integer powers
    return _fermion_sector(trunc, 0)


def chi_ising_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return _fermion_sector(trunc, 1)


def cusp1_chi_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(ONE_PLUS_QN, trunc - 2).shift(2)


def chi_ising_16(trunc=DEFAULT_TRUNC) -> QSeries:
    # (1/sqrt(2)) sqrt(Theta_{Z+1/2}/eta) = q^(1/24) prod (1 + q^n), valid to
    # trunc + 4
    return cusp1_chi_half(trunc + 4)


def vacuum(c, trunc=DEFAULT_TRUNC) -> QSeries:
    """q^(-c/24) prod_{n>=2} 1/(1-q^n), the vacuum module character (c > 1)."""
    c = Fraction(c)
    shift = Fraction(-2 * c)
    if shift.denominator != 1:
        raise GridError("rank %s is not half-integral" % c)
    t = trunc - int(shift)
    body = euler_product(t).inv() * QSeries({0: 1, GRID: -1}, t)
    return body.shift(int(shift))


def generic_module(c, h, trunc=DEFAULT_TRUNC) -> QSeries:
    """q^(-c/24+h) prod_{n>=1} 1/(1-q^n)."""
    shift = Fraction(h) * GRID - Fraction(2 * Fraction(c))
    if shift.denominator != 1:
        raise GridError("offset -c/24+h off the 1/48 grid")
    t = trunc - int(shift)
    return euler_product(t).inv().shift(int(shift))


_CATALOG = {
    "eta": eta,
    "theta_Z": theta_Z,
    "theta_Z_half": theta_Z_half,
    "E4": E4,
    "delta": delta,
    "j": j_function,
    "cbrt_j": cbrt_j,
    "j_theta": j_theta,
    "chi_half": chi_half,
    "chi_half_minus": chi_half_minus,
    "chi_ising_0": chi_ising_0,
    "chi_ising_half": chi_ising_half,
    "chi_ising_16": chi_ising_16,
    "cusp1_chi_half": cusp1_chi_half,
    "vacuum": vacuum,
    "generic_module": generic_module,
}

# the parameters each catalog series takes ahead of trunc: c the rank, h the
# weight; a series not listed takes none
SERIES_PARAMS = {"vacuum": ("c",), "generic_module": ("c", "h")}


def standard_series(name, trunc=DEFAULT_TRUNC, c=None, h=None) -> QSeries:
    """Catalog dispatch; the series must be given exactly the parameters
    that SERIES_PARAMS lists for it."""
    key = name.replace("-", "_")
    if key not in _CATALOG:
        raise ValueError("unknown standard series %r (have: %s)"
                         % (name, ", ".join(standard_names())))
    takes = SERIES_PARAMS.get(key, ())
    given = {p: v for p, v in (("c", c), ("h", h)) if v is not None}
    if tuple(given) != takes:
        raise ValueError("%s takes %s, not %s" % (
            key, " and ".join(takes) or "no parameters", " and ".join(given) or "none"))
    return _CATALOG[key](*given.values(), trunc).truncate(trunc)


def standard_names():
    return sorted(n for n in _CATALOG if n not in SERIES_PARAMS) + list(SERIES_PARAMS)
