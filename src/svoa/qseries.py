"""Truncated q-series on the 1/48 exponent grid, plus the catalog of
standard modular expansions.

Index n stands for q^(n/48).  The grid 1/48 is the finest needed anywhere:
a character of rank c in (1/2)Z starts at q^(-c/24) in (1/48)Z, and the
1/16-sector exponents land on it as well.  Coefficients are ints and
Fractions only; rationals with denominator 1 are stored as plain ints so
that the hot convolution loops run on machine integers.

A series is a dense slot list: slots[k] is the coefficient at index
lead + k*step, step the gcd of the support's offsets from the lead (0 for a
single term).  The product kernel and J.C.P. Miller's power recurrence,
behind every exponent of `**` but a positive integer (a binary power of
products), run on the list as it is; an integer-step series never visits
the 47 empty indices between two terms.  `_make` alone makes this form:
slots[0] and slots[-1] nonzero, no integral Fraction, lead None for the
zero series (read as 0 where no slot is placed).  Equal series therefore
have equal (lead, step, slots, trunc).  A scalar multiplies a series only
through `scale`.

Truncation semantics: `trunc` is the exclusive upper index bound to which
the coefficients are trusted.  Arithmetic propagates the tightest valid
bound (``min`` for +/-, the lead-shifted ``min`` for products).  A catalog
series ends exactly at the `trunc` it is given: each factor is built only
as far as the product needs, sized from the other factors' leads.

Every infinite product in the catalog is an eta quotient, a product of
eta(q^(s/48)) = q^(s/1152) prod_{n>=1} (1 - q^(n*s/48)) to integer powers,
prefactor included, built by the one product primitive `eta_quotient`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import power

GRID = 48
DEFAULT_TRUNC = 10 * GRID  # q^10


class GridError(ValueError):
    """Raised when an operation would leave the 1/48 exponent grid."""


# cap on (series products) x (integer steps per series)^2, a proxy for the
# coefficient products of a q-series computation, refused before it starts.
# At the cap one call took 96 s (series j, order 10000) to 356 s (baby
# sector 0, order 2600; orbifold Leech, order 5300) on a 2-vCPU VM
SERIES_BUDGET = 2_000_000_000


def check_work(products, span):
    """Raise RuntimeError if `products` products of series `span` grid
    indices long would exceed SERIES_BUDGET."""
    work = products * (max(span, 0) // GRID) ** 2
    if work > SERIES_BUDGET:
        raise RuntimeError("q-series work over %d grid indices needs about %d "
                           "coefficient products, over the budget of %d"
                           % (span, work, SERIES_BUDGET))


def _norm_coeff(c):
    """An integral Fraction as int (the exact type test skips the ABC check)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coeff_div(a, b):
    """Exact division of coefficients (never integer floor division)."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        if not m:
            return q
    return _norm_coeff(Fraction(a) / Fraction(b))


class QSeries:
    __slots__ = ("lead", "step", "slots", "trunc")

    def __new__(cls, coeffs, trunc):
        """The series with coefficient coeffs[n] at each index n < trunc."""
        keys = [n for n in coeffs if n < trunc and coeffs[n]]
        lead = min(keys, default=0)
        step = gcd(*[n - lead for n in keys]) or 1
        slots = [0] * ((max(keys, default=lead - 1) - lead) // step + 1)
        for n in keys:
            slots[(n - lead) // step] = coeffs[n]
        return QSeries._make(lead, step, slots, trunc)

    def __getnewargs__(self):  # copy and pickle rebuild through the dict constructor
        return self.coeffs, self.trunc

    @staticmethod
    def _make(lead, step, slots, trunc):
        """The series with coefficient slots[k] at index lead + k*step (step 0
        for a single slot), cut below trunc, in canonical form."""
        slots = [_norm_coeff(c) for c in
                 slots[:max(0, (trunc - (lead or 0) - 1) // (step or 1) + 1)]]
        nz = [k for k, c in enumerate(slots) if c]
        d = 0  # the gcd of the nonzero slots' offsets from the first
        for k in nz:
            d = gcd(d, k - nz[0])
            if d == 1:
                break
        x = object.__new__(QSeries)
        x.lead = lead + nz[0] * step if nz else None
        x.step = step * d
        x.slots = slots[nz[0]:nz[-1] + 1:d or 1] if nz else []
        x.trunc = trunc
        return x

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(trunc=DEFAULT_TRUNC):
        return QSeries({}, trunc)

    @staticmethod
    def one(trunc=DEFAULT_TRUNC):
        return QSeries({0: 1}, trunc)

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self):
        """The nonzero terms as a new dict index -> coefficient, in index order."""
        return {self.lead + self.step * k: c for k, c in enumerate(self.slots) if c}

    @property
    def lead_coeff(self):
        return self.slots[0] if self.slots else 0

    def coeff(self, index):
        k, r = divmod(index - (self.lead or 0), self.step or 1)
        return self.slots[k] if not r and 0 <= k < len(self.slots) else 0

    def is_zero(self):
        return not self.slots

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        t = min(self.trunc, other.trunc)
        if not self.slots or not other.slots:
            return (self if self.slots else other).truncate(t)
        e = min(self.lead, other.lead)
        g = gcd(self.step, other.step, self.lead - other.lead) or 1
        out = [0] * ((t - e - 1) // g + 1)
        n = len(out)
        for x in (self, other):
            k, m = (x.lead - e) // g, x.step // g
            for c in x.slots:
                if k >= n:
                    break
                out[k] += c
                k += m
        return QSeries._make(e, g, out, t)

    def __neg__(self):
        return QSeries._make(self.lead, self.step, [-c for c in self.slots], self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return QSeries._make(self.lead, self.step, [c * s for c in self.slots], self.trunc)

    def __mul__(self, other):
        t = min(self.trunc + (other.trunc if other.lead is None else other.lead),
                other.trunc + (self.trunc if self.lead is None else self.lead))
        a, b = (self, other) if len(self.slots) <= len(other.slots) else (other, self)
        if not a.slots:
            return QSeries.zero(t)
        e = a.lead + b.lead
        g = gcd(a.step, b.step) or t - e
        out = [0] * ((t - e - 1) // g + 1)
        n = len(out)
        ma, mb = a.step // g, b.step // g
        bk = [(j * mb, y) for j, y in enumerate(b.slots) if y]
        for i, x in enumerate(a.slots):
            if x:
                i *= ma
                for j, y in bk:
                    k = i + j
                    if k >= n:
                        break
                    out[k] += x * y
        return QSeries._make(e, g, out, t)

    def shift(self, dindex):
        """Multiply by q^(dindex/48)."""
        return QSeries._make((self.lead or 0) + dindex, self.step, self.slots,
                             self.trunc + dindex)

    def truncate(self, trunc):
        return QSeries._make(self.lead, self.step, self.slots, min(self.trunc, trunc))

    def inv(self):
        """Multiplicative inverse; the result is valid to trunc - 2*lead."""
        return self ** -1

    def __pow__(self, r):
        """self^r for an int or Fraction r: a positive integer by binary
        powers, any other exponent by one pass of Miller's recurrence
        (`_miller`) seeded with u_0^r.  A fractional power needs leading
        coefficient exactly 1, and r*lead must land back on the 1/48 grid."""
        p, q = r.numerator, r.denominator
        if q == 1:
            if p > 0:
                return power(self, p)
            if not self.slots:
                raise ZeroDivisionError("inverse of the zero series")
            return self._miller(p, 1, _coeff_div(1, self.slots[0] ** -p))
        if not self.slots:
            raise ZeroDivisionError("fractional power of the zero series")
        if self.slots[0] != 1:
            raise ValueError("fractional power needs leading coefficient 1, got %s"
                             % (self.slots[0],))
        if (r * self.lead).denominator != 1:
            raise GridError("leading exponent %s/48 times %s leaves the 1/48 grid"
                            % (self.lead, r))
        return self._miller(p, q, 1)

    def pow_rational(self, r) -> "QSeries":
        """self ** r under the name perfbench/tracing.py traces."""
        return self ** r

    def _miller(self, p, q, y0):
        """y0 (u/u_0)^(p/q) for the slots u of this nonzero series, valid as
        far past its lead as the series is, by J.C.P. Miller's power
        recurrence (Knuth, TAOCP vol. 2, 4.7) in units of the stride:
        q*n*u_0*y_n = sum_{k=1..n} ((p+q)*k - q*n) * u_k * y_(n-k).
        The (p+q)*k part is summed apart; at p/q = -1, the inverse, it is
        empty.  The caller puts (p/q)*lead on the grid."""
        e = p * self.lead // q
        span = self.trunc - self.lead
        g = self.step or span
        u0inv = _coeff_div(1, self.slots[0])
        rest = [(k, c) for k, c in enumerate(self.slots) if k and c]
        weighted = [(k, (p + q) * k * c) for k, c in rest] if p + q else []
        out = [y0] + [0] * ((span - 1) // g)
        for n in range(1, len(out)):
            # y_n = (sum (p+q)*k*u_k*y_(n-k) / (q*n) - sum u_k*y_(n-k)) / u_0
            s = 0
            for k, c in rest:
                if k > n:
                    break
                y = out[n - k]
                if y:
                    s += c * y
            if weighted:
                w = 0
                for k, c in weighted:
                    if k > n:
                        break
                    y = out[n - k]
                    if y:
                        w += c * y
                s -= _coeff_div(w, q * n)
            if s:
                out[n] = _norm_coeff(-(s * u0inv))
        return QSeries._make(e, g, out, e + span)

    def derivative(self, step_index=GRID):
        """Formal derivative d/dp with p = q^(step_index/48).

        step_index=48 is d/dq; step_index=24 differentiates with respect
        to q^(1/2).
        """
        e, g = self.lead or 0, self.step
        slots = [c * Fraction(e + g * k, step_index) for k, c in enumerate(self.slots)]
        return QSeries._make(e - step_index, g, slots, self.trunc - step_index)

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.lead, self.step, self.slots, self.trunc) == (
            other.lead, other.step, other.slots, other.trunc)

    def __str__(self):
        if not self.slots:
            return "0"
        parts = []
        for n, c in self.coeffs.items():
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
        # a canonical coefficient is an int or a Fraction p/q with q > 1
        return {"grid": GRID, "trunc": self.trunc,
                "terms": [[n, str(c)] for n, c in self.coeffs.items()]}

    @staticmethod
    def from_json(obj):
        if obj.get("grid") != GRID:
            raise ValueError("unsupported grid %r" % obj.get("grid"))
        return QSeries({int(n): Fraction(v) for n, v in obj["terms"]},
                       obj["trunc"])


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
    """prod over (step, e) in `exps` of eta(q^(step/48)) ** e, exact to `trunc`:
    the prefactor q^(sum e*step/1152), at grid index lead = sum e*step/24,
    times the dilated Euler products, the factors of negative e inverted by
    one `inv`.  GridError if lead is not integral; the zero series if
    trunc <= lead."""
    lead, off = divmod(sum(step * e for step, e in exps), 24)
    if off:
        raise GridError("eta quotient prefactor q^(%d/1152) leaves the 1/48 grid"
                        % (24 * lead + off))
    if trunc <= lead:
        return QSeries.zero(trunc)
    t = trunc - lead
    num, den = QSeries({lead: 1}, trunc), QSeries.one(t)
    for step, e in exps:
        if e > 0:
            num = num * euler_product(t, step) ** e
        else:
            den = den * euler_product(t, step) ** -e
    return num * den.inv()


# (step, exponent) pairs of the eta quotients that recur in the catalog
HALF_STEPS_PLUS = ((GRID, 2), (24, -1), (96, -1))  # q^(-1/48) prod (1 + q^(n-1/2))
HALF_STEPS_MINUS = ((24, 1), (GRID, -1))  # q^(-1/48) prod (1 - q^(n-1/2))
ONE_PLUS_QN = ((96, 1), (GRID, -1))  # q^(1/24) prod (1 + q^n)


def eta(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(((GRID, 1),), trunc)


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
    return eta_quotient(((GRID, 24),), trunc)


def j_function(trunc=DEFAULT_TRUNC) -> QSeries:
    # E4^3 / eta^24; eta^-24 leads at q^-1, so E4^3 runs one q past trunc
    return E4(trunc + GRID) ** 3 * eta_quotient(((GRID, -24),), trunc)


def cbrt_j(trunc=DEFAULT_TRUNC) -> QSeries:
    return E4(trunc + 16) * eta_quotient(((GRID, -8),), trunc)


def j_theta(trunc=DEFAULT_TRUNC) -> QSeries:
    # (Theta_Z / eta)^12: the base leads at index -2, its 12th power ends 22 earlier
    return (theta_Z(trunc + 24) * eta_quotient(((GRID, -1),), trunc + 22)) ** 12


def chi_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(HALF_STEPS_PLUS, trunc)


def chi_half_minus(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(HALF_STEPS_MINUS, trunc)


def _fermion_sector(trunc, parity) -> QSeries:
    """The terms of chi_half at index -1 + 24m with m = parity mod 2."""
    x = chi_half(trunc)  # lead -1 and step 24 (0 with one term): the sectors alternate
    return QSeries._make(-1 + 24 * parity, 48, x.slots[parity::2], x.trunc)


def chi_ising_0(trunc=DEFAULT_TRUNC) -> QSeries:
    # the integer-offset half of chi_half: q^(-1/48) times integer powers
    return _fermion_sector(trunc, 0)


def chi_ising_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return _fermion_sector(trunc, 1)


def cusp1_chi_half(trunc=DEFAULT_TRUNC) -> QSeries:
    return eta_quotient(ONE_PLUS_QN, trunc)


def chi_ising_16(trunc=DEFAULT_TRUNC) -> QSeries:
    # (1/sqrt(2)) sqrt(Theta_{Z+1/2}/eta) = q^(1/24) prod (1 + q^n)
    return cusp1_chi_half(trunc)


def vacuum(c, trunc=DEFAULT_TRUNC) -> QSeries:
    """q^(-c/24) prod_{n>=2} 1/(1-q^n), the vacuum module character (c > 1)."""
    x = generic_module(c, 0, trunc)
    return x - x.shift(GRID)  # x * (1 - q)


def generic_module(c, h, trunc=DEFAULT_TRUNC) -> QSeries:
    """q^(-c/24+h) prod_{n>=1} 1/(1-q^n); the zero series if trunc is not
    past the lead."""
    lead = Fraction(h) * GRID - 2 * Fraction(c)
    if lead.denominator != 1:
        raise GridError("offset -c/24+h off the 1/48 grid")
    if trunc <= lead:
        return QSeries.zero(trunc)
    return euler_product(trunc - int(lead)).inv().shift(int(lead))


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
    that SERIES_PARAMS lists for it, and a truncation whose work exceeds
    SERIES_BUDGET raises RuntimeError before any."""
    key = name.replace("-", "_")
    if key not in _CATALOG:
        raise ValueError("unknown standard series %r (have: %s)"
                         % (name, ", ".join(standard_names())))
    takes = SERIES_PARAMS.get(key, ())
    given = {p: v for p, v in (("c", c), ("h", h)) if v is not None}
    if tuple(given) != takes:
        raise ValueError("%s takes %s, not %s" % (
            key, " and ".join(takes) or "no parameters", " and ".join(given) or "none"))
    # no catalog series runs more than 20 full products (j: 11 kernel calls), each
    # spanning trunc from the lead, -2c + 48h for the vacuum and generic modules
    check_work(20, trunc + 2 * (c or 0) - GRID * (h or 0))
    return _CATALOG[key](*given.values(), trunc)


def standard_names():
    return sorted(n for n in _CATALOG if n not in SERIES_PARAMS) + list(SERIES_PARAMS)
