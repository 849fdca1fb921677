"""Replaced routes, kept as independent oracles for the code that replaced
them: the one-operation-at-a-time Q(zeta_48) routes behind svoa.cyclo's
fused sum-of-products kernel, the per-kind extremal routes behind
svoa.extremal's kind table, the one-off product routes behind
svoa.qseries.eta_quotient, the formal log/exp fractional power and the
derivative-loop Lagrange inversion behind Miller's power recurrence and the
direct Lagrange-Buermann coefficient, the inverse loop that recurrence took
over, the inverse-then-binary negative powers, the separate pow_rational and
the prefactor-free eta quotient behind svoa.qseries's one `**`, the padded
catalog and lattice-character routes behind exact truncation, the sign
search behind svoa.modrep's closed-form S_22, the typed 4x4 S and its
fusion-type letters behind the discriminant form S is now read off, the
PLU group action behind svoa.invariants.poly_act's balanced split, the
whole-matrix breadth-first closure, the per-element minors tally and the per-class
Molien sums behind svoa.modrep's closure on row orbits, its classes keyed
by determinant and lower half, and its once-per-degree fold, the
Q(zeta_48) Molien recurrence behind svoa.modrep's integer ring map, the
closure and class tally by `dot` on interned entries behind the same map's
images, the Gauss-Jordan inverse behind svoa.modrep.verlinde's conjugate
transpose, the dict-backed q-series behind svoa.qseries's slot form, and the
unpruned block count, the block charge stepped through built term lists
and the dict convolution of block counts behind svoa.lattices's
Cauchy-Schwarz pruning, its charge from the terms' number and first norms,
and its product of block series.

`Dense` is Q(zeta_48) arithmetic one operation at a time: a dense integer
16-tuple over a denominator, reduced and gcd-normalized after every sum and
every product.  On top of it sit the triple-loop matrix product, the
cofactor determinant, breadth-first group closure, the Molien recurrence
and the push-style polynomial shear, as they were before the kernel.
Apart from the PLU group action, the Q(zeta_48) Molien recurrence and the
`dot` closure and class tally, kept as they ran on the fused kernel,
nothing here calls `svoa.cyclo.dot`;
results are compared through `Cyclo.num` and `Cyclo.den`.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, floor, gcd, isqrt, lcm

from helpers import Element, element_dets
from svoa.cyclo import Cyclo, cyc_one, cyc_zero, dot, power, sqrt2, zeta_pow
from svoa.extremal import (SVOA, VOA, WORK_BUDGET, ExtremalError,
                           ExtremalSolution, NotDecomposableError, ShadowReport,
                           _kind)
from svoa.invariants import NVARS, MultiPoly, _permute
from svoa.linalg import gauss_jordan
from svoa.modrep import CycMatrix, FusionTensor, _check_relations, _diag_matrix, _phase
from svoa.lattices import _block_terms, theta_series
from svoa.qseries import (DEFAULT_TRUNC, GRID, E4, GridError, QSeries, _coeff_div,
                          cbrt_j, chi_half, cusp1_chi_half, theta_Z, theta_Z_half,
                          vacuum)
from svoa.qseries import euler_product as dilated_euler_product

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


def minors(g):
    """(e_1, ..., e_n) of a Dense matrix, each e_k the sum of its principal
    k x k cofactor determinants."""
    n = len(g)
    cs = []
    for k in range(1, n + 1):
        acc = ZERO
        for idx in combinations(range(n), k):
            acc = acc + det([[g[i][j] for j in idx] for i in idx])
        cs.append(acc)
    return tuple(cs)


def char_classes(elements):
    """The per-element minors tally: (e_1, ..., e_n) -> number of elements."""
    classes = {}
    for g in elements:
        cs = minors(g)
        classes[cs] = classes.get(cs, 0) + 1
    return classes


def molien(elements, maxdeg):
    """Molien coefficients t^0..t^maxdeg: per class of the minors tally
    1/det(1 - g t) by its recurrence, summed and averaged."""
    classes = char_classes(elements)
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


# -- the closure and class tally that svoa.modrep's images in Z/Phi_48(2^B) replaced --


def dot_closure(gens):
    """The closure of the CycMatrix generators `gens` on interned entries, as
    the map from each element, an Element, to its determinant: entry j of
    row * g is one `dot` over g's column j per new tuple of entry ids at its
    nonzero places, and every element becomes an Element at the end."""
    n = gens[0].n
    entries, entry_ids = [], {}  # entry id -> Cyclo, (terms, den) -> entry id
    rows, row_ids = [], {}  # row id -> tuple of entry ids, and back

    def intern(key, value, values, ids):
        i = ids.setdefault(key, len(values))
        if i == len(values):
            values.append(value)
        return i

    def entry(x):
        return intern((x.terms, x.den), x, entries, entry_ids)

    for r in CycMatrix.identity(n).rows:
        row = tuple(map(entry, r))
        intern(row, row, rows, row_ids)
    cols = []
    for g in gens:
        places = [[k for k in range(n) if not g.rows[k][j].is_zero()] for j in range(n)]
        cols.append([(ks, [g.rows[k][j] for k in ks], {}) for j, ks in enumerate(places)])
    tables = [{} for _ in gens]  # per generator: row id -> id of row * g

    def times(r, k):
        j = tables[k].get(r)
        if j is None:
            row, prod = rows[r], []
            for ks, col, memo in cols[k]:
                key = tuple([row[i] for i in ks])
                e = memo.get(key)
                if e is None:
                    e = memo[key] = entry(dot(zip([entries[i] for i in key], col)))
                prod.append(e)
            prod = tuple(prod)
            j = tables[k][r] = intern(prod, prod, rows, row_ids)
        return j

    gen_dets = [Cyclo.coerce(gauss_jordan(g.rows)[0]) for g in gens]
    det_times = {}  # (det, generator) -> their product
    full = tuple(range(n))  # the identity as row ids
    elements = {full: cyc_one()}  # element as row ids -> its determinant
    frontier = [full]
    while frontier:
        new = []
        for m in frontier:
            for k, d in enumerate(gen_dets):
                p = tuple([times(r, k) for r in m])
                if p not in elements:
                    key = (elements[m], k)
                    if key not in det_times:
                        det_times[key] = key[0] * d
                    elements[p] = det_times[key]
                    new.append(p)
        frontier = new
    return {Element([[entries[e] for e in rows[r]] for r in m]): d
            for m, d in elements.items()}


def power_sum_classes(dets):
    """The class tally of a map CycMatrix -> det by (det, p_1, ..., p_{n//2}),
    p_k = tr(g^k) one `dot` of the rows of g^(k-1) with the columns of g,
    then Newton's identities and the conjugate upper half once per class."""
    if not dets:
        raise ValueError("a matrix group has at least its identity; got no elements")
    n = next(iter(dets)).n
    keys = {}
    for g, d in dets.items():
        key = (d, dot((r[i], 1) for i, r in enumerate(g.rows))) + tuple(
            dot((x, y) for r, c in zip(power(g, k - 1).rows, zip(*g.rows))
                for x, y in zip(r, c))
            for k in range(2, n // 2 + 1))
        keys[key] = keys.get(key, 0) + 1
    classes = {}
    for (d, *p), count in keys.items():
        e = [cyc_one()]
        for k in range(1, len(p) + 1):
            terms = [(e[k - i], p[i - 1]) for i in range(1, k + 1)]
            e.append(dot(terms[::2], terms[1::2]) * Fraction(1, k))
        classes[tuple(e[k] if 2 * k <= n else d * e[n - k].sigma(-1)
                      for k in range(1, n + 1))] = count
    return classes


# -- the Q(zeta_48) recurrence that svoa.modrep.molien's ring map replaced ------


def dot_molien(group, maxdeg):
    """Molien coefficients t^0..t^maxdeg of a MatrixGroup, its classes
    (`power_sum_classes`) advancing their series 1/det(1 - g t) in step by
    one `dot` per class and degree, summed once per degree in Q(zeta_48)."""
    classes = power_sum_classes(element_dets(group))
    n = len(next(iter(classes)))
    counts = tuple(classes.values())
    tails = [[Cyclo([1])] for _ in counts]
    out = []
    for m in range(maxdeg + 1):
        if m:
            ks = range(1, min(n, m) + 1)
            for cs, inv in zip(classes, tails):
                inv.append(dot([(cs[k - 1], inv[-k]) for k in ks[::2]],
                               [(cs[k - 1], inv[-k]) for k in ks[1::2]]))
                if len(inv) > n:
                    del inv[0]
        r = dot(zip([inv[-1] for inv in tails], counts)).rational() / group.order
        if r.denominator != 1 or r < 0:
            raise ArithmeticError("Molien coefficient %s of t^%d is not a "
                                  "nonnegative integer" % (r, m))
        out.append(r)
    return out


# -- svoa.invariants' coefficient normalisation, as the shears below ran it ------


def _norm_coeff(c):
    """A rational Cyclo as int or Fraction, an integral Fraction as int."""
    if isinstance(c, Cyclo) and c.is_rational():
        c = c.rational()
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


# -- the PLU route of the group action ----------------------------------------
#
# svoa.invariants.poly_act as it was before it split g as diag(a) . R .
# diag(b): the shears come from a PLU decomposition of g itself, so for the
# rank-1/2 S their multipliers carry sqrt 2, and U is applied as a rescaling
# by its diagonal followed by shears divided by it.  `_shear` and `_rescale`
# are the line-algorithm shear (every sum through `dot`) and the rescaling
# it called.


def _shear(P: MultiPoly, s: int, t: int, lam) -> MultiPoly:
    """Substitute x_s -> x_s + lam * x_t (s != t).

    The terms that agree in every exponent but those of x_s and x_t, and in
    the sum of those two, form a line, which the shear maps into itself: its
    coefficient at x_s^a becomes sum_e c_e comb(e, a) lam^(e-a), one sum of
    products per output term.
    """
    if lam == 0:
        return P
    lines = {}
    for mono, c in P.terms.items():
        key = list(mono)
        key[t] += key[s]
        key[s] = 0
        lines.setdefault(tuple(key), []).append((mono[s], c))
    powers = [1]
    table = {}  # e -> [comb(e, a) lam^(e-a) for a = 0..e]
    out = {}
    for key, line in lines.items():
        for e, _ in line:
            while len(powers) <= e:
                powers.append(_norm_coeff(powers[-1] * lam))
            if e not in table:
                table[e] = [comb(e, a) * powers[e - a] for a in range(e + 1)]
        for a in range(max(e for e, _ in line) + 1):
            m = list(key)
            m[s] = a
            m[t] -= a
            out[tuple(m)] = dot((c, table[e][a]) for e, c in line if e >= a)
    return MultiPoly(out)


def _rescale(P: MultiPoly, scales) -> MultiPoly:
    """Substitute x_i -> scales[i] * x_i."""
    maxdeg = P.degree()
    pows = []
    for s in scales:
        col = [1]
        for _ in range(maxdeg):
            col.append(_norm_coeff(col[-1] * s))
        pows.append(col)
    out = {}
    for mono, c in P.terms.items():
        f = c
        for v in range(NVARS):
            if mono[v]:
                f = f * pows[v][mono[v]]
        out[mono] = out.get(mono, 0) + f
    return MultiPoly(out)


def poly_act_plu(g, P: MultiPoly) -> MultiPoly:
    """P(g.(a,b,c)) expanded and collected.

    g is a CycMatrix of dimension 3; the substitution image of variable
    x_s is sum_t g[s][t] x_t.
    """
    n = g.n
    if n != NVARS:
        raise ValueError("action needs a 3x3 matrix")
    # PA = LU with partial pivoting; op_A = op_U . op_L . op_{P^-1}.  Not
    # linalg.gauss_jordan: the multipliers themselves are the shears.
    a = [list(r) for r in g.rows]
    perm = list(range(n))
    lower = [[cyc_zero() for _ in range(n)] for _ in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular substitution matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            perm[col], perm[piv] = perm[piv], perm[col]
            lower[col], lower[piv] = lower[piv], lower[col]
        inv_p = a[col][col].inv()
        for r in range(col + 1, n):
            f = a[r][col] * inv_p
            lower[r][col] = f
            if not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    # a now holds U; perm holds the row permutation pi with (PA)[r] = A[perm[r]]
    # Apply op_{P^{-1}}: x_{perm[r]} -> x_r, i.e. substitution x_i -> x_{pos[i]}
    pos = [0] * n
    for r, p in enumerate(perm):
        pos[p] = r
    out = _permute(P, pos)
    # op_L: unit lower triangular, shears ordered column-major
    for col in range(n):
        for row in range(col + 1, n):
            out = _shear(out, row, col, lower[row][col])
    # op_U = op_{U'} . op_D with U = D U'
    diag = [a[i][i] for i in range(n)]
    out = _rescale(out, diag)
    inv_diag = [d.inv() for d in diag]
    for col in range(n - 1, -1, -1):
        for row in range(col):
            out = _shear(out, row, col, a[row][col] * inv_diag[row])
    return out


# -- the extremal routes that the kind table and the shared peel replaced ------
#
# The two basis builders, the unitriangular solve, the two solves, the
# decomposition loop and the shadow, each written out per kind as they were
# before svoa.extremal ran both kinds through one `_powers`/`_peel` path.
# They build their own generator powers and take nothing from svoa.extremal
# but its constants, errors and result dataclasses.


def _check_work(c, k, rel, step):
    """Refuse a solve before any series is built when it is too large."""
    work = (k + 1) * (rel // step) ** 2
    if work > WORK_BUDGET:
        raise ExtremalError("rank %s needs about %d coefficient products, over "
                            "the budget of %d" % (c, work, WORK_BUDGET))


def _voa_basis(c: Fraction, k: int, rel_trunc: int):
    base = cbrt_j(rel_trunc + GRID)
    exps = [int(c / 8) - 3 * r for r in range(k + 1)]
    return [base ** e for e in exps]


def _svoa_basis(c: Fraction, k: int, rel_trunc: int):
    base = chi_half(rel_trunc + GRID)
    exps = [int(2 * c) - 24 * r for r in range(k + 1)]
    return [base ** e for e in exps]


def _solve_triangular(c, basis, step_idx, k, rel_trunc):
    """Match the vacuum character through the first k steps beyond the
    leading term.  Each basis element r leads at index -2c + r*step_idx
    with coefficient 1, so the system is unitriangular."""
    lead = int(-2 * c)
    vac = vacuum(c, lead + rel_trunc)
    a = [Fraction(1)]
    partial = basis[0].truncate(lead + rel_trunc)
    for n in range(1, k + 1):
        idx = lead + n * step_idx
        an = Fraction(vac.coeff(idx) - partial.coeff(idx))
        a.append(an)
        if an:
            partial = partial + basis[n].scale(an)
    ratio = partial * vac.inv()
    return a, partial, ratio


def extremal_voa(c, window=None) -> ExtremalSolution:
    """Extremal self-dual VOA character of rank c in 8Z, c >= 8."""
    c = Fraction(c)
    if c % 8 != 0 or c < 8:
        raise ExtremalError("extremal VOA rank must be a multiple of 8, >= 8; got %s" % c)
    k = int(c // 24)
    if window is None:
        window = k + 6
    rel = GRID * max(k + 3, window + 2, 11)
    _check_work(c, k, rel, GRID)
    basis = _voa_basis(c, k, rel)
    a, series, ratio = _solve_triangular(c, basis, GRID, k, rel)
    A = {}
    for n in range(k + 1, window + 1):
        A[n] = Fraction(ratio.coeff(GRID * n))
    if not (A[k + 1] > 0 and A[k + 2] - A[k + 1] > 0):
        raise ArithmeticError("extremality positivity fails at c=%s: A=%s" % (c, A))
    return ExtremalSolution(c=c, kind=VOA, k=k, a=a, series=series, A=A)


def extremal_svoa(c, window=None) -> ExtremalSolution:
    """Extremal self-dual SVOA character of rank c in (1/2)Z, c >= 1/2."""
    c = Fraction(c)
    if (2 * c).denominator != 1 or c < Fraction(1, 2):
        raise ExtremalError("extremal SVOA rank must be half-integral and >= 1/2; got %s" % c)
    k = int(floor(c / 8))
    if window is None:
        window = k + 12
    rel = GRID * max(k + 3, window // 2 + 2, 11)
    _check_work(c, k, rel, 24)
    basis = _svoa_basis(c, k, rel)
    a, series, ratio = _solve_triangular(c, basis, 24, k, rel)
    A = {}
    for n in range(k + 1, window + 1):
        A[n] = Fraction(ratio.coeff(24 * n))
    return ExtremalSolution(c=c, kind=SVOA, k=k, a=a, series=series, A=A)


def decompose_character(x: QSeries, c, kind: str):
    """Express x as sum_r a_r * (generator power) for rank c; the residual
    must vanish to the available truncation."""
    c = Fraction(c)
    lead = int(-2 * c)
    if x.lead != lead:
        raise NotDecomposableError("leading exponent index %s, expected %s"
                                   % (x.lead, lead))
    if kind == VOA:
        k = int(c // 24)
        step = GRID
        rel = x.trunc - lead
        basis = _voa_basis(c, k, rel)
    else:
        k = int(floor(c / 8))
        step = 24
        rel = x.trunc - lead
        basis = _svoa_basis(c, k, rel)
    a = []
    residual = x
    for r in range(k + 1):
        ar = Fraction(residual.coeff(lead + r * step))
        a.append(ar)
        if ar:
            residual = residual - basis[r].scale(ar)
    if not residual.truncate(x.trunc).is_zero():
        raise NotDecomposableError(
            "residual is nonzero from index %s on: not a self-dual character "
            "of rank %s" % (residual.lead, c))
    return a


def shadow(sol: ExtremalSolution) -> ShadowReport:
    """Re-expand the extremal character at the other cusp.

    The result is the sum of the twisted-module characters for integral
    rank, and the single twisted character (the 1/sqrt(2) normalization
    already applied) for c in Z+1/2.  B sums powers of the rational cusp-1
    expansion with rational scales, so it is rational as built; the parity
    bookkeeping of the sqrt(2) powers is integer arithmetic.
    """
    if sol.kind != SVOA:
        raise ValueError("shadow applies to SVOA solutions")
    c = sol.c
    k = sol.k
    rel = sol.series.trunc - sol.series.lead
    w = cusp1_chi_half(rel + GRID)
    half_integral = (2 * c) % 2 == 1
    B = QSeries.zero(w.trunc)
    for r, ar in enumerate(sol.a):
        m = int(2 * c) - 24 * r
        if half_integral:
            two_pow = Fraction(2) ** ((m - 1) // 2)
        else:
            two_pow = Fraction(2) ** (m // 2)
        term = (w ** m).scale(ar * (-1) ** r * two_pow)
        B = B + term
    neg = non_int = None
    for n in B.coeffs:
        x = B.coeffs[n]
        e = Fraction(n, GRID) + c / 24
        if neg is None and x < 0:
            neg = (e, x)
        if non_int is None and Fraction(x).denominator != 1:
            non_int = (e, x)
    first = Fraction(B.lead_coeff) if not B.is_zero() else Fraction(0)
    return ShadowReport(c=c, s=int(2 * c) - 24 * k, B=B, first_coeff=first,
                        integral=non_int is None, nonneg=neg is None,
                        first_negative=neg, first_non_integral=non_int)


# -- the dict-backed q-series behind svoa.qseries's slot form -----------------
#
# QSeries as a sparse map index -> coefficient, whose kernels ran on slot
# lists at the support's stride and turned each result back into a dict, as
# it was before svoa.qseries stored (lead, step, slots, trunc), with its
# helpers; `_from_slots` builds a DictQSeries, so `_exp` below returns one.


def _series_norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _series_coeff_div(a, b):
    """Exact division of coefficients (never integer floor division)."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        if not m:
            return q
    return _series_norm_coeff(Fraction(a) / Fraction(b))


def _stride(coeffs, lead, g=0):
    """gcd of g and the support's offsets from `lead` (0: a single term)."""
    return gcd(g, *(n - lead for n in coeffs))


def _from_slots(slots, lead, g, trunc):
    """The series with coefficient slots[k] at index lead + k*g."""
    return DictQSeries({lead + g * k: c for k, c in enumerate(slots) if c}, trunc)


class DictQSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        self.trunc = trunc
        self.coeffs = {}
        for n, c in coeffs.items():
            if n >= trunc:
                continue
            if c:
                self.coeffs[n] = _series_norm_coeff(c)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(trunc=DEFAULT_TRUNC):
        return DictQSeries({}, trunc)

    @staticmethod
    def one(trunc=DEFAULT_TRUNC):
        return DictQSeries({0: 1}, trunc)

    @staticmethod
    def monomial(index, coeff=1, trunc=DEFAULT_TRUNC):
        return DictQSeries({index: coeff}, trunc)

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
            other = DictQSeries({0: other}, self.trunc)
        t = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return DictQSeries(out, t)

    __radd__ = __add__

    def __neg__(self):
        return DictQSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DictQSeries({0: other}, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s):
        if s == 0:
            return DictQSeries({}, self.trunc)
        return DictQSeries({n: c * s for n, c in self.coeffs.items()}, self.trunc)

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
            return DictQSeries({}, t)
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
        return DictQSeries({n + dindex: c for n, c in self.coeffs.items()},
                       self.trunc + dindex)

    def truncate(self, trunc):
        return DictQSeries({n: c for n, c in self.coeffs.items() if n < trunc},
                       min(self.trunc, trunc))

    def inv(self):
        """Multiplicative inverse; the result is valid to trunc - 2*lead."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        e = self.lead
        span = self.trunc - e
        g = _stride(self.coeffs, e) or span
        u0inv = _series_coeff_div(1, self.coeffs[e])
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
                out[k] = _series_norm_coeff(-(s * u0inv))
        return _from_slots(out, -e, g, self.trunc - 2 * e)

    def __pow__(self, n: int):
        if n == 0:
            rel = self.trunc - self.lead if self.coeffs else self.trunc
            return DictQSeries.one(rel)
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
        return DictQSeries(out, self.trunc - step_index)

    # -- fractional powers -----------------------------------------------------

    def pow_rational(self, r) -> "DictQSeries":
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
                out[n] = _series_coeff_div(s, q * n)
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
        if not isinstance(other, DictQSeries):
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
        return DictQSeries({int(n): Fraction(v) for n, v in obj["terms"]},
                       obj["trunc"])


# -- the product routes that eta_quotient replaced --------------------------------
#
# The two-branch pentagonal series, the binomial-at-a-time half-step product,
# the one-off pentagonal quotient for prod (1 + q^n), the theta/eta square
# root for the 1/16 Ising sector and the orbifold character over them, as
# they were before every catalog product became an eta quotient.  `eta` is
# repeated so that the square root runs on this module's Euler product.


def euler_product(trunc) -> QSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal number expansion."""
    out = {}
    k = 1
    out[0] = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if GRID * g1 >= trunc and GRID * g2 >= trunc:
            break
        s = -1 if k % 2 else 1
        if GRID * g1 < trunc:
            out[GRID * g1] = s
        if GRID * g2 < trunc:
            out[GRID * g2] = s
        k += 1
    return QSeries(out, trunc)


def _prod_one_plus_qn(trunc) -> QSeries:
    """prod (1 + q^n) = prod (1-q^{2n}) / prod (1-q^n)."""
    num = QSeries({2 * n: c for n, c in euler_product((trunc + 1) // 2).coeffs.items()},
                  trunc)
    return num * euler_product(trunc).inv()


def _prod_half_steps(trunc, sign) -> QSeries:
    """prod_{n>=1} (1 + sign*q^(n-1/2))."""
    s = QSeries.one(trunc)
    idx = 24
    while idx < trunc:
        s = s * QSeries({0: 1, idx: sign}, trunc)
        idx += GRID
    return s


def eta(trunc) -> QSeries:
    return euler_product(trunc - 2).shift(2)


def chi_ising_16(trunc) -> QSeries:
    # (1/sqrt(2)) sqrt(Theta_{Z+1/2}/eta): the factor 2 of the theta series
    # cancels the normalization, leaving q^(1/24) sqrt(unit part).
    t = trunc + 8
    s = theta_Z_half(t) * eta(t).inv()
    e = s.lead
    u = QSeries({n - e: _series_coeff_div(c, s.coeffs[e]) for n, c in s.coeffs.items()},
                s.trunc - e)
    return pow_rational(u, Fraction(1, 2)).shift(e // 2)


def orbifold_character(theta: QSeries, c) -> QSeries:
    """Character of the involution orbifold of a lattice theory with theta
    series `theta` and rank c in 8Z."""
    c = Fraction(c)
    if c % 8 != 0:
        raise ValueError("orbifold rank must be a multiple of 8")
    if theta.coeff(0) != 1 or theta.lead != 0:
        raise ValueError("theta series must start with 1")
    cc = int(c)
    t = theta.trunc
    eul = euler_product(t + 2 * cc)
    one_plus = _prod_one_plus_qn(t + 2 * cc)
    half_minus = _prod_half_steps(t + 2 * cc, -1)
    half_plus = _prod_half_steps(t + 2 * cc, +1)
    untwisted = (theta * (eul ** (-cc)) + one_plus ** (-cc)).scale(Fraction(1, 2))
    sign = (-1) ** (cc // 8)
    twisted = ((half_minus ** (-cc)) + (half_plus ** (-cc)).scale(sign))
    twisted = twisted.scale(Fraction(2 ** (cc // 2), 2))
    return untwisted.shift(-2 * cc) + twisted.shift(cc)


# -- the padded catalog routes that exact truncation replaced ----------------
#
# delta, j, cbrt(j) and (Theta_Z/eta)^12 built on hand-tuned working orders,
# the lattice character theta/eta^n by a binary power and an inverse, and the
# Leech theta's floor of q^2 on its working order, as they were before every
# catalog series was cut exactly at its trunc.  They run on this module's
# `eta`; the first four and the Leech theta return more than `trunc`, so a
# comparison cuts them there.


def padded_delta(trunc) -> QSeries:
    return eta(trunc) ** 24


def padded_j_function(trunc) -> QSeries:
    t = trunc + 2 * GRID
    return (E4(t) ** 3) * padded_delta(t).inv()


def padded_cbrt_j(trunc) -> QSeries:
    t = trunc + GRID
    return E4(t) * (eta(t) ** 8).inv()


def padded_j_theta(trunc) -> QSeries:
    t = trunc + 30
    return (theta_Z(t) * eta(t).inv()) ** 12


def padded_leech_theta(trunc) -> QSeries:
    t = max(trunc, 2 * GRID)
    return E4(t) ** 3 - padded_delta(t).scale(720)


def two_step_svoa_character(L, trunc) -> QSeries:
    n = L.dim
    t_theta = trunc + 2 * n + 1
    th = theta_series(L, t_theta)
    e = eta(t_theta + 2 * n) ** n
    return (th * e.inv()).truncate(trunc)


# -- the formal-calculus routes that the one-pass closed forms replaced --------
#
# QSeries.pow_rational as exp(r log u) over the two formal kernels, and
# buermann_alpha as r - 1 repeated derivatives over r!, as they were before
# svoa.qseries ran Miller's power recurrence and svoa.extremal read the
# Lagrange-Buermann coefficient directly.  `pow_rational` takes the series as
# its first argument.


def pow_rational(self, r) -> QSeries:
    """a^r for rational r via formal exp(r log u) on the unit part.

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
    u = QSeries({n - e: c for n, c in self.coeffs.items()}, self.trunc - e)
    x = _exp(_log(u).scale(r))
    return x.shift(int(re))


def _log(u: QSeries) -> QSeries:
    """Formal logarithm of u = 1 + (positive-index part)."""
    if u.coeff(0) != 1:
        raise ValueError("log needs constant term 1, got %s" % (u.coeff(0),))
    du = u.derivative()
    v = du * inv(u)  # valid to trunc - GRID; the replaced loop, not Miller's
    out = {}
    for n, c in v.coeffs.items():
        m = n + GRID
        out[m] = c * Fraction(GRID, m)
    return QSeries(out, v.trunc + GRID)


def _exp(v: QSeries) -> QSeries:
    """Formal exponential of v with v(0) = 0 (positive leading index)."""
    if v.is_zero():
        return QSeries.one(v.trunc)
    if v.lead <= 0:
        raise ValueError("exp needs a positive leading index, got %d" % v.lead)
    t = v.trunc
    g = _stride(v.coeffs, 0)
    src = sorted((i // g, vc * i) for i, vc in v.coeffs.items())
    out = [1] + [0] * ((t - 1) // g)
    # E' = v' E  =>  n E_n = sum_i i v_i E_{n-i}, in units of the stride g
    for n in range(src[0][0], len(out)):
        s = 0
        for i, ivc in src:
            if i > n:
                break
            y = out[n - i]
            if y:
                s += ivc * y
        if s:
            out[n] = _series_norm_coeff(s * Fraction(1, n * g))
    return _from_slots(out, 0, g, t)


def buermann_alpha(c, r: int, kind: str) -> Fraction:
    """Coefficient alpha_r of the expansion of (vacuum character) *
    (generator power) in powers of the hauptmodul inverse, computed by the
    Lagrange inversion formula.  Agrees with the a_r of the linear solve
    for 0 < r <= k."""
    c = Fraction(c)
    if r < 1:
        raise ValueError("r must be >= 1")
    kd = _kind(kind)
    step = kd.step
    rel = step * (r + 4) + kd.extra
    vac = vacuum(c, rel)
    g = vac * (kd.gen(rel + GRID) ** -int(c / kd.unit))
    haupt = kd.haupt(rel + 2 * GRID).shift(step)  # monic in q^(step/48)
    h = g.derivative(step) * (haupt ** r)
    for _ in range(r - 1):
        if h.trunc <= 0:
            raise ExtremalError("truncation too small for %d derivatives" % (r - 1))
        h = h.derivative(step)
    if h.trunc <= 0:
        raise ExtremalError("truncation too small for r=%d" % r)
    return Fraction(h.coeff(0)) / factorial(r)


# -- the inverse loop that Miller's power recurrence took over ------------------
#
# QSeries.inv as it ran on the slot form before it and pow_rational shared one
# recurrence; `_norm_coeff` is this module's, the same on ints and Fractions.


def inv(self) -> QSeries:
    """Multiplicative inverse; the result is valid to trunc - 2*lead."""
    if not self.slots:
        raise ZeroDivisionError("inverse of the zero series")
    e = self.lead
    span = self.trunc - e
    g = self.step or span
    u0inv = _coeff_div(1, self.slots[0])
    rest = [(m, c) for m, c in enumerate(self.slots) if m and c]
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
    return QSeries._make(-e, g, out, self.trunc - 2 * e)


# -- the power routes that one `**` took over -----------------------------------
#
# QSeries.inv, __pow__ and pow_rational as they were before every exponent but
# a positive integer ran one Miller pass seeded with u_0^r: a negative power
# was the inverse raised by binary squaring, and pow_rational sent integers to
# `**`.  Each takes the series as its first argument and calls the others here.


def miller_inv(self):
    """Multiplicative inverse; the result is valid to trunc - 2*lead."""
    if not self.slots:
        raise ZeroDivisionError("inverse of the zero series")
    return self._miller(-1, 1, _coeff_div(1, self.slots[0]))


def binary_pow(self, n: int):
    if n == 0:
        return QSeries.one(self.trunc - (self.lead or 0))
    if n < 0:
        return binary_pow(miller_inv(self), -n)
    return power(self, n)


def miller_pow_rational(self, r) -> QSeries:
    """a^r for rational r by Miller's recurrence (`_miller`).

    Requires leading coefficient exactly 1; the shifted leading
    exponent r*lead must land back on the 1/48 grid.
    """
    r = Fraction(r)
    if r.denominator == 1:
        return binary_pow(self, int(r))
    if not self.slots:
        raise ZeroDivisionError("fractional power of the zero series")
    if self.slots[0] != 1:
        raise ValueError("fractional power needs leading coefficient 1, got %s"
                         % (self.slots[0],))
    if (r * self.lead).denominator != 1:
        raise GridError("leading exponent %s/48 times %s leaves the 1/48 grid"
                        % (self.lead, r))
    return self._miller(r.numerator, r.denominator, 1)


def eta_quotient(exps, trunc) -> QSeries:
    """prod over (step, e) in `exps` of euler_product(trunc, step) ** e, with
    the factors of negative e inverted by one `inv`; exact to `trunc`.  No
    prefactor: the callers shifted by it."""
    num, den = QSeries.one(trunc), QSeries.one(trunc)
    for step, e in exps:
        if e > 0:
            num = num * binary_pow(dilated_euler_product(trunc, step), e)
        else:
            den = den * binary_pow(dilated_euler_product(trunc, step), -e)
    return num * miller_inv(den)


# -- the typed 4x4 S and the sign search behind svoa.modrep's discriminant form --


def fusion_type(c) -> str:
    """Fusion-ring case of the even part: 'a' (Ising) for c in Z+1/2,
    'b' (Z/4) for odd c, 'c' (Z/2 x Z/2) for even c."""
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ValueError("rank %s is not half-integral" % c)
    if c.denominator == 2:
        return "a"
    return "b" if int(c) % 2 else "c"


def typed_character_rep(c) -> tuple[CycMatrix, CycMatrix]:
    """Return (T, S) acting on the character span for rank c in (1/2)Z.

    The fusion type picks the representation: 'a' the 3x3 matrices, 'b'
    the 4x4 family with +-i/2 entries, 'c' the 4x4 family with +-1/2
    entries, S_22 = e^(-pi i c/2)/2.  ArithmeticError if S^4 = 1 or
    S^2 = (ST)^3 fails.
    """
    c = Fraction(c)
    kind = fusion_type(c)
    half = Fraction(1, 2)  # also the weight h of the odd sector
    diag = [_phase(-c / 24), _phase(-c / 24 + half), _phase(-c / 24 + c / 8)]
    s2i = sqrt2() * half  # 1/sqrt(2)
    if kind == "a":
        T = _diag_matrix(diag)
        S = CycMatrix([[half, half, s2i],
                       [half, half, -s2i],
                       [s2i, -s2i, cyc_zero()]])
    else:  # integer rank: duplicated twisted eigenvalue
        T = _diag_matrix(diag + [diag[2]])
        u = zeta_pow(-12 * int(c)) * -half  # -S_22
        S = CycMatrix([[half, half, half, half],
                       [half, half, -half, -half],
                       [half, -half, -u, u],
                       [half, -half, u, -u]])
    _check_relations(S, T)
    return T, S


def _relations_hold(S, T) -> bool:
    """S^4 = 1 and S^2 = (ST)^3 in five products; (ST)^6 = S^4 follows."""
    S2, ST = S * S, S * T
    return (S2 * S2).is_identity() and S2 == ST * ST * ST


def character_rep(c):
    """(T, S) for rank c in (1/2)Z, the 4x4 sign variant found by trying both."""
    c = Fraction(c)
    kind = fusion_type(c)
    h = Fraction(1, 2)
    half = Fraction(1, 2)
    diag = [_phase(-c / 24), _phase(-c / 24 + h), _phase(-c / 24 + c / 8)]
    s2i = sqrt2() * Fraction(1, 2)  # 1/sqrt(2)
    if kind == "a":
        T = _diag_matrix(diag)
        S = CycMatrix([[half, half, s2i],
                       [half, half, -s2i],
                       [s2i, -s2i, cyc_zero()]])
        if not _relations_hold(S, T):
            raise ArithmeticError("modular relations S^4=1, S^2=(ST)^3 violated")
        return T, S
    # integer rank: duplicated twisted eigenvalue
    T = _diag_matrix(diag + [diag[2]])
    if kind == "b":
        upper = zeta_pow(12) * Fraction(1, 2)
    else:
        upper = Cyclo.from_rational(half)
    for sgn in (1, -1):
        u = upper * sgn
        S = CycMatrix([[half, half, half, half],
                       [half, half, -half, -half],
                       [half, -half, -u, u],
                       [half, -half, u, -u]])
        if _relations_hold(S, T):
            return T, S
    raise ValueError("no sign variant satisfies the modular relations at c=%s" % c)


# -- the unpruned count, the term-list charge and the dict convolution -------------


def _block_counts(block, terms, norm_max):
    """{d^2 x.x: count} over x in (Z + a)^n with sum(x) = 0 mod m (m = 0:
    sum(x) = 0) and d^2 x.x <= norm_max, from the block's `_block_terms`.

    Coordinates are x_i = k_i + a, so d x_i = d k_i + d a is an integer and
    the condition is sum(k) = -n a mod m.  States after each coordinate are
    {sum(k) (mod m): {scaled norm: count}}.
    """
    n, a, m = block
    states = {0: {0: 1}}
    for _ in range(n):
        new = {}
        for z, row in states.items():
            for k, y2 in terms:
                z2 = (z + k) % m if m else z + k
                dest = new.setdefault(z2, {})
                lim = norm_max - y2
                for norm, cnt in row.items():
                    if norm <= lim:
                        dest[norm + y2] = dest.get(norm + y2, 0) + cnt
        states = new
    target = int(-n * a)
    return states.get(target % m if m else target, {})


def block_work(terms, n, m, d, norm_max):
    """Upper bounds on the (state x term) products of counting a block and
    on the norms in its count, from the block's built `_block_terms`: every
    term's norm enters the gcd, and every coordinate steps the state bound.

    After i coordinates there are at most len(terms)^i states, and at most
    (sum classes) x (norms per class).  For m > 0 there are m classes, and
    the norms lie in one residue class modulo the gcd of the term norms'
    differences.  For m = 0 the class is the exact sum s of the k's, which
    Cauchy-Schwarz on x = k + a confines to |s + i a| <= sqrt(i norm_max)/d;
    within it the norm is d^2 sum(k^2) plus a constant, and sum(k^2) = s
    mod 2.  The count is one class, so it has at most `norms` norms.
    """
    t = len(terms)
    if m:
        g = gcd(*(y2 - terms[0][1] for _, y2 in terms))  # 0 for at most one term
        norms = norm_max // g + 1 if g else 1
    else:
        norms = norm_max // (2 * d * d) + 1
    work, states = 0, 1
    for i in range(1, n + 1):
        work += t * states
        classes = m or (2 * isqrt(i * norm_max) + 2) // d + 1
        states = min(states * t, classes * norms)
    return work, norms


def _mul_truncated(x, y, norm_max):
    out = {}
    for nx, cx in x.items():
        for ny, cy in y.items():
            if nx + ny <= norm_max:
                out[nx + ny] = out.get(nx + ny, 0) + cx * cy
    return out


def dict_theta_series(L, trunc):
    """theta_series(L, trunc) for a coset-listed lattice, without the budget
    charge: unpruned block counts, each coset's counts convolved as dicts
    keyed by scaled norm, and the norms gathered into grid indices."""
    d = lcm(*(Fraction(a).denominator
              for coset in L.cosets for _, a, _ in coset))
    d2 = d * d
    norm_max = d2 * (trunc - 1) // 24
    blocks = {block: _block_counts(block, _block_terms(block[1], d, norm_max), norm_max)
              for coset in L.cosets for block in coset}
    acc = {}
    for coset in L.cosets:
        counts = {0: 1}
        for block in coset:
            counts = _mul_truncated(counts, blocks[block], norm_max)
        for norm, cnt in counts.items():
            if (norm * 24) % d2:
                raise ValueError("norm %s off the exponent grid"
                                 % Fraction(norm, d2))
            idx = norm * 24 // d2
            acc[idx] = acc.get(idx, 0) + cnt
    return QSeries(acc, trunc)


# -- the Gauss-Jordan inverse that svoa.modrep.verlinde's conjugate transpose replaced --


def verlinde(S: CycMatrix) -> FusionTensor:
    """Fusion coefficients N_ij^k = sum_n S_in S_jn (S^-1)_nk / S_0n, with
    S^-1 by Gauss-Jordan elimination against the identity."""
    n = S.n
    _, pivots, reduced = gauss_jordan(S.rows, CycMatrix.identity(n).rows)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    Sinv = CycMatrix([row[n:] for row in reduced])
    for m in range(n):
        if S.rows[0][m].is_zero():
            raise ValueError("vanishing entry in the vacuum row")
    inv_row = [S.rows[0][m].inv() for m in range(n)]
    # the columns of (S^-1)_mk / S_0m
    cols = list(zip(*[[x * d for x in r] for r, d in zip(Sinv.rows, inv_row)]))
    N = []
    for i in range(n):
        Ni = []
        for j in range(n):
            row = []
            Sij = [x * y for x, y in zip(S.rows[i], S.rows[j])]
            for k in range(n):
                acc = dot(zip(Sij, cols[k]))
                if not acc.is_rational():
                    raise ValueError("non-rational fusion coefficient at (%d,%d,%d)" % (i, j, k))
                v = acc.rational()
                if v.denominator != 1 or v < 0:
                    raise ValueError("fusion coefficient %s at (%d,%d,%d) is not a "
                                     "nonnegative integer" % (v, i, j, k))
                row.append(int(v))
            Ni.append(tuple(row))
        N.append(tuple(Ni))
    return FusionTensor(n=n, N=tuple(N))
