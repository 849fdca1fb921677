"""Sparse trivariate polynomial arithmetic, the matrix-group action on
polynomials, and the constraint solve for the degree-48 weight-enumerator
polynomial of the moonshine module.

The group action substitutes (a, b, c) -> g.(a, b, c).  g is balanced as
diag(a) . R . diag(b), which takes the sqrt 2 of the rank-1/2 S out of its
core R, and R's elimination, applied step by step as it runs, splits it
into variable swaps, diagonal rescalings and single shears
x_s -> x_s + t*x_u (Taylor shifts), which keeps the blow-up per stage
linear in the degree instead of expanding powers of full linear forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .cyclo import Cyclo, dot, power
from .linalg import gauss_jordan
from .modrep import character_rep
from .qseries import (GRID, QSeries, _norm_coeff, check_work, chi_ising_0, chi_ising_16,
                      chi_ising_half)

NVARS = 3


def _norm_cyclo(c):
    """A rational Cyclo as int or Fraction, an integral Fraction as int."""
    if isinstance(c, Cyclo) and c.is_rational():
        c = c.rational()
    return _norm_coeff(c)


class MultiPoly:
    """Polynomial in a, b, c as a sparse map (i, j, k) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {}
        for mono, c in terms.items():
            c = _norm_cyclo(c)
            if c != 0:
                self.terms[mono] = c

    @staticmethod
    def zero():
        return MultiPoly({})

    @staticmethod
    def constant(c):
        return MultiPoly({(0, 0, 0): c})

    def coeff(self, i, j, k):
        return self.terms.get((i, j, k), 0)

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if s == 0:
            return MultiPoly.zero()
        return MultiPoly({m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n) if n else MultiPoly.constant(1)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "".join("%s^%d" % (v, e) if e > 1 else v
                           for v, e in zip("abc", m) if e)
            parts.append("%s %s" % (c, mono) if mono else str(c))
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        out = []
        for (i, j, k) in sorted(self.terms):
            c = self.terms[(i, j, k)]
            if isinstance(c, Cyclo):
                raise ValueError("cyclotomic coefficients are not JSON-serializable")
            out.append([i, j, k, str(Fraction(c))])
        return out

    @staticmethod
    def from_json(rows):
        return MultiPoly({(int(i), int(j), int(k)): Fraction(v)
                          for i, j, k, v in rows})


# -- linear substitution ------------------------------------------------------


def _shear(P: MultiPoly, s: int, t: int, lam) -> MultiPoly:
    """Substitute x_s -> x_s + lam * x_t (s != t).

    The terms that agree in every exponent but those of x_s and x_t, and in
    the sum of those two, form a line, which the shear maps into itself: its
    coefficient at x_s^a becomes sum_e c_e comb(e, a) lam^(e-a), one sum of
    products per output term.  With lam and every coefficient rational the
    sums are plain int or Fraction sums; a Cyclo anywhere sends them to
    `dot`.
    """
    lam = _norm_cyclo(lam)
    if lam == 0:
        return P
    rational = not isinstance(lam, Cyclo) and not any(
        isinstance(c, Cyclo) for c in P.terms.values())
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
                powers.append(_norm_cyclo(powers[-1] * lam))
            if e not in table:
                table[e] = [comb(e, a) * powers[e - a] for a in range(e + 1)]
        for a in range(max(e for e, _ in line) + 1):
            m = list(key)
            m[s] = a
            m[t] -= a
            if rational:
                out[tuple(m)] = sum(c * table[e][a] for e, c in line if e >= a)
            else:
                out[tuple(m)] = dot((c, table[e][a]) for e, c in line if e >= a)
    return MultiPoly(out)


def _rescale(P: MultiPoly, scales) -> MultiPoly:
    """Substitute x_i -> scales[i] * x_i."""
    if all(s == 1 for s in scales):
        return P
    maxdeg = P.degree()
    pows = []
    for s in scales:
        col = [1]
        for _ in range(maxdeg):
            col.append(_norm_cyclo(col[-1] * s))
        pows.append(col)
    out = {}
    for mono, c in P.terms.items():
        f = c
        for v in range(NVARS):
            if mono[v]:
                f = f * pows[v][mono[v]]
        out[mono] = out.get(mono, 0) + f
    return MultiPoly(out)


def _permute(P: MultiPoly, perm) -> MultiPoly:
    """Substitute x_i -> x_{perm[i]}."""
    out = {}
    for mono, c in P.terms.items():
        m = [0] * NVARS
        for v in range(NVARS):
            m[perm[v]] += mono[v]
        out[tuple(m)] = c
    return MultiPoly(out)


def _lead(xs):
    """The first nonzero entry of xs; none makes the matrix singular."""
    for x in xs:
        if not x.is_zero():
            return x
    raise ZeroDivisionError("singular substitution matrix")


def _balance(g):
    """Split g as diag(a) . R . diag(b): b_j is the first nonzero entry of
    column j, and a_i makes the first nonzero entry of row i of R equal 1."""
    b = [_lead(col) for col in zip(*g.rows)]
    inv_b = [x.inv() for x in b]
    core = [[x * y for x, y in zip(r, inv_b)] for r in g.rows]
    a = [_lead(r) for r in core]
    inv_a = [x.inv() for x in a]
    return a, [[x * y for x in r] for r, y in zip(core, inv_a)], b


def poly_act(g, P: MultiPoly) -> MultiPoly:
    """P(g.(a,b,c)) expanded and collected.

    g is a CycMatrix of dimension 3; the substitution image of variable
    x_s is sum_t g[s][t] x_t.  With g = diag(a) . R . diag(b) (`_balance`),
    P is rescaled by a, sent through R and rescaled by b.  For the rank-1/2
    S, a = (1, 1, sqrt 2), b = (1/2, 1/2, 1/sqrt 2) and R = [[1, 1, 1],
    [1, 1, -1], [1, -1, 0]]: the sqrt 2 stays out of R's shears, which
    therefore run on ints once P's coefficients are rational after the
    rescaling by a (p2, p3, p4).  R is eliminated column by column with
    partial pivoting, E R = U, and since R = E^-1 U and op_XY = op_Y . op_X,
    each step's inverse is applied to P the moment it is found: a row swap
    as the same swap of variables, a row operation r -= f col as the shear
    x_r -> x_r + f x_col.  U is then applied row by row from the bottom, by
    shears with its own entries and a rescaling by its diagonal, so no entry
    of U is divided.
    """
    n = g.n
    if n != NVARS:
        raise ValueError("action needs a 3x3 matrix")
    scale_a, a, scale_b = _balance(g)
    out = _rescale(P, scale_a)
    # Not linalg.gauss_jordan: the multipliers themselves are the shears.
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular substitution matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            swap = list(range(n))
            swap[col], swap[piv] = piv, col
            out = _permute(out, swap)
        inv_p = a[col][col].inv()
        for r in range(col + 1, n):
            f = a[r][col] * inv_p
            if not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                out = _shear(out, r, col, f)
    # a now holds U; row r of U is x_r -> sum_c U_rc x_c, bottom row first
    for row in range(n - 1, -1, -1):
        for col in range(row + 1, n):
            out = _shear(out, row, col, a[row][col])
        out = _rescale(out, [a[row][row] if i == row else 1 for i in range(n)])
    return _rescale(out, scale_b)


# -- the invariant polynomials -------------------------------------------------


def _sym_pairs(pairs, cpow):
    """Expand [(i, j, coeff), ...] with a<->b mirror images, times c^cpow."""
    out = {}
    for i, j, c in pairs:
        out[(i, j, cpow)] = c
        out[(j, i, cpow)] = c
    return out


def basis_invariants():
    """The four generating invariants of the order-1152 matrix group in
    degrees 3, 24, 24 and 48."""
    p1 = MultiPoly({(2, 0, 1): 1, (0, 2, 1): -1})

    p2_terms = {}
    p2_terms.update(_sym_pairs([(23, 1, -1), (21, 3, 1), (19, 5, 21),
                                (17, 7, -85), (15, 9, 134), (13, 11, -70)], 0))
    p2_terms.update(_sym_pairs([(16, 0, -2), (14, 2, -240), (12, 4, -3640),
                                (10, 6, -16016)], 8))
    p2_terms[(8, 8, 8)] = -25740
    p2_terms.update(_sym_pairs([(7, 1, 256), (5, 3, 1792)], 16))
    p2 = MultiPoly(p2_terms)

    p3_terms = {}
    p3_terms.update(_sym_pairs([(23, 1, 3), (21, 3, 253), (19, 5, 5313),
                                (17, 7, 43263), (15, 9, 163438),
                                (13, 11, 312018)], 0))
    p3_terms[(0, 0, 24)] = -256
    p3 = MultiPoly(p3_terms)

    # p4 = (((a+b)^16 + (a-b)^16)/2 + 128 c^16)^3, the cube of the E8 enumerator
    u = {}
    for i in range(0, 17, 2):
        u[(16 - i, i, 0)] = comb(16, i)
    u[(0, 0, 16)] = 128
    p4 = MultiPoly(u) ** 3

    return p1, p2, p3, p4


def check_invariance():
    """Verify that the generating polynomials p1..p4 of basis_invariants are
    fixed by the S and T of rank 1/2.

    A failure aborts with a diagnostic as it signals a broken action
    convention, not recoverable data.
    """
    T, S = character_rep(Fraction(1, 2))
    for name, p in zip(("p1", "p2", "p3", "p4"), basis_invariants()):
        for gname, g in (("T", T), ("S", S)):
            if poly_act(g, p) != p:
                raise ArithmeticError(
                    "%s is not fixed by %s at rank 1/2: the (a,b,c) -> "
                    "g.(a,b,c) action convention is violated" % (name, gname))
    return True


# -- the published degree-48 solution -------------------------------------------


def _published_monster_terms():
    t = {}
    t.update(_sym_pairs([(48, 0, 1), (44, 4, 804), (42, 6, 10560),
                         (40, 8, 174306), (38, 10, 1615680),
                         (36, 12, 16382612), (34, 14, 116707584),
                         (32, 16, 554455407), (30, 18, 1786512640),
                         (28, 20, 4077522504), (26, 22, 6680893824)], 0))
    t[(24, 24, 0)] = 7891186524
    t.update(_sym_pairs([(37, 3, 1536), (35, 5, 155136), (33, 7, 4773888),
                         (31, 9, 70699008), (29, 11, 596299776),
                         (27, 13, 3100876800), (25, 15, 10370684928),
                         (23, 17, 22879881216), (21, 19, 33843588096)], 8))
    t.update(_sym_pairs([(30, 2, 16512), (28, 4, 1112832), (26, 6, 28038528),
                         (24, 8, 325307904), (22, 10, 1996192896),
                         (20, 12, 6985020672), (18, 14, 14585195904)], 16))
    t[(16, 16, 16)] = 18596004864
    t.update(_sym_pairs([(23, 1, 168960), (21, 3, 14306304),
                         (19, 5, 300432384), (17, 7, 2446205952),
                         (15, 9, 9241528320), (13, 11, 17642698752)], 24))
    t.update(_sym_pairs([(16, 0, 9024), (14, 2, 941568), (12, 4, 14445312),
                         (10, 6, 63361536)], 32))
    t[(8, 8, 32)] = 102007680
    t.update(_sym_pairs([(7, 1, 135168), (5, 3, 946176)], 40))
    t[(0, 0, 48)] = 2048
    return t


DEFAULT_CONSTRAINTS = (
    ((48, 0, 0), 1),
    ((46, 2, 0), 0),
    ((39, 1, 8), 0),
    ((32, 0, 16), 0),
    ((44, 4, 0), 804),
    ((16, 0, 32), 9024),
    ((0, 0, 48), 2048),
)


def degree48_basis():
    """The 7 products p1^16, p1^8 p2, p1^8 p3, p2^2, p2 p3, p3^2, p4 that
    span the degree-48 invariants."""
    p1, p2, p3, p4 = basis_invariants()
    p1_8 = p1 ** 8
    return (p1_8 * p1_8, p1_8 * p2, p1_8 * p3, p2 * p2, p2 * p3, p3 * p3, p4)


class ConstraintError(ValueError):
    pass


def solve_monster_polynomial(constraints=None, verify_published=True) -> MultiPoly:
    """Solve for the degree-48 weight enumerator from multiplicity
    constraints, then re-check every published coefficient."""
    if constraints is None:
        constraints = DEFAULT_CONSTRAINTS
    constraints = list(constraints)
    basis = degree48_basis()
    if len(constraints) < len(basis):
        raise ConstraintError("need at least %d constraints, got %d"
                              % (len(basis), len(constraints)))
    for (i, j, k), _ in constraints:
        if i + j + k != 48 or min(i, j, k) < 0:
            raise ConstraintError("constraint monomial (%d,%d,%d) is not "
                                  "degree 48" % (i, j, k))
    if len({m for m, _ in constraints}) != len(constraints):
        raise ConstraintError("duplicate constraint monomials")
    mat = [[b.coeff(*m) for b in basis] for m, _ in constraints]
    rhs = [Fraction(v) for _, v in constraints]
    _, pivots, reduced = gauss_jordan(mat, [rhs])
    if len(pivots) < len(basis):
        raise ConstraintError("constraint system is singular")
    if any(row[-1] != 0 for row in reduced[len(basis):]):
        raise ConstraintError("constraint system is inconsistent")
    P = MultiPoly.zero()
    for row, b in zip(reduced, basis):
        P = P + b.scale(row[-1])
    if verify_published:
        published = _published_monster_terms()
        if P.terms != {m: c for m, c in published.items()}:
            diffs = []
            for m in set(P.terms) | set(published):
                if P.terms.get(m, 0) != published.get(m, 0):
                    diffs.append((m, published.get(m, 0), P.terms.get(m, 0)))
            raise ConstraintError("solved polynomial disagrees with the "
                                  "published coefficients, e.g. %s" % (diffs[:3],))
        rel = P.coeff(7, 1, 40) - (9 * 2 ** 14 - 6 * P.coeff(0, 0, 48))
        if rel != 0:
            raise ConstraintError("degree-3 highest-weight relation violated")
    return P


@cache
def monster_polynomial() -> MultiPoly:
    """The solved weight-enumerator polynomial (cached)."""
    return solve_monster_polynomial()


# -- evaluation at the three characters -------------------------------------------


def check_evaluation_work(polys, trunc):
    """Raise RuntimeError if evaluate_at_characters on all of `polys` would
    together exceed qseries.SERIES_BUDGET; else return its working order."""
    # working precision: every character starts at q^(-1/48)
    t = trunc + max(P.degree() for P in polys) + GRID
    # the powers of each character to its top exponent (zip(*terms) gives the
    # exponent columns), then up to two products per term
    check_work(sum(sum(map(max, zip(*P.terms))) + 2 * len(P.terms) for P in polys), t)
    return t


def evaluate_at_characters(P: MultiPoly, trunc) -> QSeries:
    """Substitute a, b, c by the weight-0, 1/2, 1/16 characters of the
    rank-1/2 minimal model; RuntimeError past qseries.SERIES_BUDGET."""
    t = check_evaluation_work([P], trunc)
    chars = (chi_ising_0(t), chi_ising_half(t), chi_ising_16(t))
    pows = []
    for x, emax in zip(chars, map(max, zip(*P.terms))):
        col = [QSeries.one(t)]
        for _ in range(emax):
            col.append(col[-1] * x)
        pows.append(col)
    acc = QSeries.zero(t)
    for (i, j, k), c in P.terms.items():
        term = pows[0][i]
        if j:
            term = term * pows[1][j]
        if k:
            term = term * pows[2][k]
        acc = acc + term.scale(c)
    return acc.truncate(trunc)
