"""Finite matrix representations of the modular group on character vectors,
Molien series, and Verlinde fusion.

The fusion type of the rank c in (1/2)Z selects one of three
representations on the span of the even/odd/twisted characters: a 3x3 one
for c in Z+1/2 (type a) and two 4x4 families for odd (b) and even (c)
integer c.  T acts diagonally by the phases e^{2 pi i(-c/24 + h)}, S by
the displayed orthogonal matrix.  In the 4x4 S-matrices the twisted block
carries S_22 = e^(-pi i c/2)/2, the sign that the modular relations S^4 = 1
and S^2 = (ST)^3 (which give (ST)^6 = 1) select; every rank checks them.

The group these generate is closed on the orbit of rows rather than by
whole matrix products: each distinct row is multiplied by each generator
once, and the closure itself runs on tuples of row ids, carrying each
element's determinant as det(m g) = det(m) det(g).  Molien then sums
1/det(1 - g t) over the classes of equal characteristic polynomial, keyed
by the determinant and the power sums p_k = tr(g^k), k <= n/2.  Newton's
identities turn those into the lower half e_1..e_{n/2} of the coefficients
once per class, and the upper half follows since the eigenvalues are roots
of unity: e_{n-k} = det * conj(e_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyclo, cyc_one, cyc_zero, dot, power, sqrt2, zeta_pow
from .linalg import gauss_jordan
from .qseries import GRID, QSeries


class CycMatrix:
    """Small dense matrix over Q(zeta_48), hashable for group closure."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Cyclo.coerce(x) for x in r) for r in rows)
        self.n = len(rows)
        if any(len(r) != self.n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @staticmethod
    def identity(n):
        return CycMatrix([[cyc_one() if i == j else cyc_zero()
                           for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return CycMatrix([[dot(zip(r, c)) for c in cols] for r in self.rows])

    def inv(self):
        """Inverse by Gauss-Jordan elimination against the identity."""
        n = self.n
        _, pivots, reduced = gauss_jordan(self.rows, CycMatrix.identity(n).rows)
        if len(pivots) < n:
            raise ZeroDivisionError("singular matrix")
        return CycMatrix([row[n:] for row in reduced])

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k) if k else CycMatrix.identity(self.n)

    def trace(self):
        return dot((x[i], 1) for i, x in enumerate(self.rows))

    def is_identity(self):
        return self == CycMatrix.identity(self.n)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "CycMatrix(%s)" % (
            "; ".join(", ".join(repr(x) for x in r) for r in self.rows))


# -- the character representation ---------------------------------------------


def _phase(e: Fraction) -> Cyclo:
    """e^(2 pi i e) for e with denominator dividing 48."""
    e48 = Fraction(e) * GRID
    if e48.denominator != 1:
        raise ValueError("phase exponent %s not on the 1/48 grid" % e)
    return zeta_pow(int(e48))


def fusion_type(c) -> str:
    """Fusion-ring case of the even part: 'a' (Ising) for c in Z+1/2,
    'b' (Z/4) for odd c, 'c' (Z/2 x Z/2) for even c."""
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ValueError("rank %s is not half-integral" % c)
    if c.denominator == 2:
        return "a"
    return "b" if int(c) % 2 else "c"


def character_rep(c) -> tuple[CycMatrix, CycMatrix]:
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


def _diag_matrix(entries):
    n = len(entries)
    return CycMatrix([[entries[i] if i == j else cyc_zero()
                       for j in range(n)] for i in range(n)])


def _check_relations(S, T):
    """S^4 = 1 and S^2 = (ST)^3 in five products; (ST)^6 = S^4 follows."""
    S2, ST = S * S, S * T
    if not ((S2 * S2).is_identity() and S2 == ST * ST * ST):
        raise ArithmeticError("modular relations S^4=1, S^2=(ST)^3 violated")


# -- group closure ---------------------------------------------------------------

# cap on the elements of a closure; the largest group in use, rank 1/2's, has 1152
CLOSURE_CAP = 10_000

@dataclass(frozen=True)
class MatrixGroup:
    """A finite matrix group as the map from each element to its
    determinant, which Molien's class keys read."""

    dets: dict  # CycMatrix -> Cyclo

    @property
    def order(self):
        return len(self.dets)


def generate_group(gens) -> MatrixGroup:
    """Closure of the group generated by `gens`, run on the orbit of rows.

    The rows of m * g are the rows of m times g, so each distinct row is
    interned as an id and meets each generator once: a lazy table per
    generator maps a row id to the id of row * g, one sum of products per
    entry.  The breadth-first closure then runs on n-tuples of row ids, where
    m * g costs n table lookups, and records det(m * g) = det(m) det(g): one
    product per new element, each generator's determinant taken once from
    linalg.gauss_jordan.
    Raises RuntimeError once the closure has more than CLOSURE_CAP elements.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators of different dimensions")
    rows = list(CycMatrix.identity(n).rows)  # row id -> row
    ids = {r: i for i, r in enumerate(rows)}
    cols = [tuple(zip(*g.rows)) for g in gens]
    gen_dets = [Cyclo.coerce(gauss_jordan(g.rows)[0]) for g in gens]
    tables = [{} for _ in gens]  # per generator: row id -> id of row * g

    def times(r, k):
        table = tables[k]
        j = table.get(r)
        if j is None:
            row = tuple(dot(zip(rows[r], c)) for c in cols[k])
            j = ids.setdefault(row, len(rows))
            if j == len(rows):
                rows.append(row)
            table[r] = j
        return j

    full = tuple(range(n))  # the identity as row ids
    dets = {full: cyc_one()}  # element as row ids -> its determinant
    frontier = [full]
    while frontier:
        new = []
        for m in frontier:
            for k, d in enumerate(gen_dets):
                p = tuple(times(r, k) for r in m)
                if p not in dets:
                    dets[p] = dets[m] * d
                    new.append(p)
                    if len(dets) > CLOSURE_CAP:
                        raise RuntimeError("group closure exceeded cap %d" % CLOSURE_CAP)
        frontier = new
    return MatrixGroup({CycMatrix([rows[r] for r in m]): d for m, d in dets.items()})


# -- Molien series -----------------------------------------------------------------

# cap on classes x (degree + 1) x dimension, the products of the recurrence; at
# the cap rank 1/2 (70 classes) reaches degree 4760 in 4.0-4.5 s and 17.7 MB
# peak RSS (2-vCPU VM, Python 3.11.7), almost all of it in the recurrence
MOLIEN_BUDGET = 1_000_000


def char_classes(group: MatrixGroup) -> dict:
    """The elements of a finite matrix group by characteristic polynomial:
    (e_1, ..., e_n) -> number of elements, e_k the k-th elementary symmetric
    function of the eigenvalues.

    Each element is keyed by (det, p_1, ..., p_{n//2}): its determinant as
    the group carries it and the power sums p_k = tr(g^k) of its
    eigenvalues, p_1 the trace and p_k one sum of products of the rows of
    g^(k-1) with the columns of g (for n <= 5 no matrix product).  Each
    class then takes e_1..e_{n//2} once by Newton's identities,
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, and fills in its upper
    half.  An element of finite order has roots of unity for eigenvalues,
    so those of g^-1 are their complex conjugates, sigma_-1 on Q(zeta_48),
    and e_{n-k}(g) = det(g) e_k(g^-1) = det(g) sigma_-1(e_k(g)).
    """
    n = next(iter(group.dets)).n
    keys = {}
    for g, d in group.dets.items():
        key = (d, g.trace()) + tuple(
            dot((x, y) for r, c in zip((g ** (k - 1)).rows, zip(*g.rows))
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


def molien(group: MatrixGroup, maxdeg: int) -> QSeries:
    """Molien series (1/|G|) sum_g 1/det(1 - g t) to degree `maxdeg`.

    Returned as a QSeries with t^k stored at grid index 48k.  The elements
    are grouped by characteristic polynomial (`char_classes`, which reads
    the group's determinants); the classes' series 1/det(1 - g t) advance in
    step, and each degree is one sum over the classes weighted by their
    sizes.  Every coefficient must come out a nonnegative integer, as it
    does for a finite group: a nonreal sum raises ValueError, any other
    coefficient ArithmeticError.  A degree whose recurrence exceeds
    MOLIEN_BUDGET is refused before it runs, and a negative one raises
    ValueError.
    """
    if maxdeg < 0:
        raise ValueError("molien needs maxdeg >= 0, got %d" % maxdeg)
    classes = char_classes(group)
    n = len(next(iter(classes)))
    work = len(classes) * (maxdeg + 1) * n
    if work > MOLIEN_BUDGET:
        raise RuntimeError("molien to degree %d needs about %d products, over "
                           "the budget of %d" % (maxdeg, work, MOLIEN_BUDGET))
    counts = tuple(classes.values())
    # the last n coefficients of each class's 1/det(1 - g t)
    tails = [[cyc_one()] for _ in counts]
    order = group.order
    out = {}
    for m in range(maxdeg + 1):
        if m:
            # det(1 - g t) = sum_k (-1)^k c_k t^k, so its inverse has
            # inv[m] = sum_k (-1)^(k+1) c_k inv[m-k]
            ks = range(1, min(n, m) + 1)
            for cs, inv in zip(classes, tails):
                inv.append(dot([(cs[k - 1], inv[-k]) for k in ks[::2]],
                               [(cs[k - 1], inv[-k]) for k in ks[1::2]]))
                if len(inv) > n:
                    del inv[0]
        # raises ValueError if a nonreal part survived
        r = dot(zip([inv[-1] for inv in tails], counts)).rational() / order
        if r.denominator != 1 or r < 0:
            raise ArithmeticError("Molien coefficient %s of t^%d is not a "
                                  "nonnegative integer" % (r, m))
        out[GRID * m] = r
    return QSeries(out, GRID * (maxdeg + 1))


# -- Verlinde fusion -----------------------------------------------------------------


@dataclass(frozen=True)
class FusionTensor:
    n: int
    N: tuple  # N[i][j][k]

    def __post_init__(self):
        for j in range(self.n):
            for k in range(self.n):
                if self.N[0][j][k] != (1 if j == k else 0):
                    raise ValueError("identity object law violated")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.N[i][j][k] != self.N[j][i][k]:
                        raise ValueError("fusion symmetry violated")


def verlinde(S: CycMatrix) -> FusionTensor:
    """Fusion coefficients N_ij^k = sum_n S_in S_jn (S^-1)_nk / S_0n.

    Raises if any entry fails to be a nonnegative rational integer, which
    signals an S-matrix not of fusion type.
    """
    n = S.n
    Sinv = S.inv()
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
