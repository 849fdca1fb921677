"""The routes that svoa.cyclo's fused sum-of-products kernel replaced, kept
as independent oracles for it.

`Dense` is Q(zeta_48) arithmetic one operation at a time: a dense integer
16-tuple over a denominator, reduced and gcd-normalized after every sum and
every product.  On top of it sit the triple-loop matrix product, the
cofactor determinant, breadth-first group closure, the Molien recurrence
and the push-style polynomial shear, as they were before the kernel.
Nothing here calls `svoa.cyclo.dot`; results are compared through
`Cyclo.num` and `Cyclo.den`.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from svoa.cyclo import Cyclo
from svoa.invariants import MultiPoly

DEGREE = 16


def _reduce(vec):
    """Reduce a coefficient list in place modulo x^16 = x^8 - 1."""
    for p in range(len(vec) - 1, DEGREE - 1, -1):
        cp = vec[p]
        if cp:
            vec[p] = 0
            vec[p - 8] += cp
            vec[p - 16] -= cp
    return vec[:DEGREE]


class Dense:
    """Element of Q(zeta_48), normalized after every operation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
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

    @staticmethod
    def of(x):
        """A Cyclo, int or Fraction as a Dense."""
        if isinstance(x, Dense):
            return x
        if isinstance(x, Cyclo):
            return Dense(x.num, x.den)
        x = Fraction(x)
        return Dense([x.numerator], x.denominator)

    def cyclo(self):
        return Cyclo(self.num, self.den)

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    def __add__(self, other):
        b = Dense.of(other)
        num = [x * b.den + y * self.den for x, y in zip(self.num, b.num)]
        return Dense(num, self.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Dense([-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-Dense.of(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return Dense([x * other for x in self.num], self.den)
        if isinstance(other, Fraction):
            return Dense([x * other.numerator for x in self.num],
                         self.den * other.denominator)
        b = Dense.of(other)
        out = [0] * 31
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        out[i + j] += x * y
        return Dense(_reduce(out), self.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))


ZERO = Dense([0])
ONE = Dense([1])


# -- matrices as tuples of tuples of Dense ------------------------------------


def dense_matrix(m):
    """A CycMatrix as a tuple of tuples of Dense."""
    return tuple(tuple(Dense.of(x) for x in r) for r in m.rows)


def matmul(a, b):
    """The triple-loop product: one normalized sum per term."""
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                x = a[i][k]
                if not x.is_zero():
                    y = b[k][j]
                    if not y.is_zero():
                        acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def det(rows):
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ZERO
    sign = 1
    for j in range(n):
        x = rows[0][j]
        if not x.is_zero():
            minor = [[rows[i][jj] for jj in range(n) if jj != j]
                     for i in range(1, n)]
            term = x * det(minor)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def generate_group(gens):
    """Breadth-first closure of the group generated by Dense matrices."""
    n = len(gens[0])
    ident = tuple(tuple(ONE if i == j else ZERO for j in range(n))
                  for i in range(n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                p = matmul(m, g)
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return elements


def molien(elements, maxdeg):
    """Molien coefficients t^0..t^maxdeg: per element the principal-minor
    sums, per class of those 1/det(1 - g t) by its recurrence, summed and
    averaged."""
    classes = {}
    for g in elements:
        n = len(g)
        cs = []
        for k in range(1, n + 1):
            acc = ZERO
            for idx in combinations(range(n), k):
                acc = acc + det([[g[i][j] for j in idx] for i in idx])
            cs.append(acc)
        classes[tuple(cs)] = classes.get(tuple(cs), 0) + 1
    total = [ZERO] * (maxdeg + 1)
    for cs, count in classes.items():
        n = len(cs)
        poly = [cs[k - 1] * ((-1) ** k) for k in range(1, n + 1)]
        inv = [ONE]
        for m in range(1, maxdeg + 1):
            acc = ZERO
            for k in range(1, min(n, m) + 1):
                acc = acc + poly[k - 1] * inv[m - k]
            inv.append(-acc)
        for m in range(maxdeg + 1):
            total[m] = total[m] + inv[m] * count
    return [v.rational() / len(elements) for v in total]


# -- the push-style shear --------------------------------------------------------


def _rational_or_dense(x):
    """A rational Dense as int or Fraction (as MultiPoly stores them)."""
    if isinstance(x, Dense) and x.is_rational():
        x = x.rational()
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def shear(P, s, t, lam):
    """Substitute x_s -> x_s + lam * x_t (s != t): every (term, r) pushes
    one product into one running sum."""
    if lam == 0:
        return P
    lam = _rational_or_dense(Dense.of(lam))
    powers = {0: 1}
    out = {}
    for mono, c in P.terms.items():
        if isinstance(c, Cyclo):
            c = Dense.of(c)
        e = mono[s]
        if e == 0:
            out[mono] = out.get(mono, 0) + c
            continue
        for r in range(e + 1):
            if r not in powers:
                powers[r] = _rational_or_dense(powers[r - 1] * lam)
            m = list(mono)
            m[s] = e - r
            m[t] += r
            m = tuple(m)
            out[m] = out.get(m, 0) + c * comb(e, r) * powers[r]
    return MultiPoly({m: c.cyclo() if isinstance(c, Dense) else c
                      for m, c in out.items()})
