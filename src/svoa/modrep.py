"""Finite matrix representations of the modular group on character vectors,
Molien series, and Verlinde fusion.

At rank c in (1/2)Z the modular group acts on the span of the even, odd
and twisted characters, whose sectors have weights 0, 1/2 and c/8: T
diagonally by the phases e(h - c/24), e(x) = e^(2 pi i x).  For c in
Z+1/2, S is the 3x3 Ising matrix.  At integer rank the twisted sector
splits in two, and S is read off the discriminant form of D_c on its
cosets 0, v, s, c' (weights 0, 1/2, c/8, c/8) as 1/2 e(-(x, y)), the Weil
representation (Scheithauer 2009).  Every rank checks the modular
relations S^4 = 1 and S^2 = (ST)^3, which give (ST)^6 = 1.

The modular layer computes on plain integers through one ring map:
zeta_48 -> X = 2^B and 1/d -> d^-1 sends Q(zeta_48), away from the primes
of Phi_48(X), onto Z/N with N = Phi_48(X) = X^16 - X^8 + 1, and an image is
read back as 16 balanced base-X digits, exactly when B bounds the
coordinates (`_encode`, `_decode`).

The group these generate is closed on interned entries rather than by whole
matrix products: each distinct entry gets an id, a row is a tuple of entry
ids, and each distinct row meets each generator once, column by column
through a memo on the entries that column reads.  A new entry is a sum of
products of images, looked up by its image, and decoded only if the image
is new; B doubles whenever the entries' coordinates would outgrow it.  The
closure itself runs on tuples of row ids, carrying each element's
determinant as det(m g) = det(m) det(g), one product per (det, generator)
pair.  Molien then sums 1/det(1 - g t) over the classes of equal
characteristic polynomial, keyed by the determinant and the images of the
power sums p_k = tr(g^k), k <= n/2.  Newton's identities turn the decoded
power sums into the lower half e_1..e_{n/2} of the coefficients once per
class, and the upper half follows since the eigenvalues are roots of unity:
e_{n-k} = det * conj(e_k).  The classes' recurrences run on the images too,
and each degree's sum is read back exactly as its 16 base-2^B digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .cyclo import Cyclo, cyc_one, cyc_zero, dot, sqrt2, zeta_pow
from .linalg import gauss_jordan
from .qseries import GRID, QSeries


class CycMatrix:
    """Small dense matrix over Q(zeta_48)."""

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

    def is_identity(self):
        return self == CycMatrix.identity(self.n)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.rows == other.rows

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


def character_rep(c) -> tuple[CycMatrix, CycMatrix]:
    """Return (T, S) acting on the character span for rank c in (1/2)Z.

    T = diag(e(h - c/24)) over the sectors' weights h = 0, 1/2, c/8, with
    c/8 twice at integer rank.  For c in Z+1/2, S is the 3x3 Ising matrix;
    at integer rank it is 1/2 e(-(x, y)) on D_c's discriminant cosets 0, v,
    s, c' (the Weil representation), with (v, s) = (v, c') = 1/2, (s, s) =
    (c', c') = c/4, (s, c') = (c - 2)/4 and every other pairing 0.
    ValueError off (1/2)Z, ArithmeticError if S^4 = 1 or S^2 = (ST)^3 fails.
    """
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ValueError("rank %s is not half-integral" % c)
    half = Fraction(1, 2)
    weights = (0, half, c / 8) if c.denominator == 2 else (0, half, c / 8, c / 8)
    T = _diag_matrix([_phase(h - c / 24) for h in weights])
    if c.denominator == 2:
        s2i = sqrt2() * half  # 1/sqrt(2)
        S = CycMatrix([[half, half, s2i],
                       [half, half, -s2i],
                       [s2i, -s2i, cyc_zero()]])
    else:
        form = [[0, 0, 0, 0],
                [0, 0, half, half],
                [0, half, c / 4, (c - 2) / 4],
                [0, half, (c - 2) / 4, c / 4]]
        S = CycMatrix([[_phase(-b) * half for b in row] for row in form])
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


# -- Z[zeta_48] on integers --------------------------------------------------------


def _modulus(bits: int) -> int:
    """N = Phi_48(X) = X^16 - X^8 + 1 at X = 2^bits."""
    return (1 << 16 * bits) - (1 << 8 * bits) + 1


def _encode(x: Cyclo, bits: int) -> int:
    """The image of x in Z/N, N = Phi_48(2^bits), under zeta_48 -> 2^bits and
    1/d -> the inverse of d mod N; x's denominator must be prime to N."""
    N = _modulus(bits)
    r = sum(v << bits * i for i, v in x.terms)
    return (r if x.den == 1 else r * pow(x.den, -1, N)) % N


def _decode(r: int, bits: int, den: int = 1) -> Cyclo:
    """The x with image r in Z/N, N = Phi_48(2^bits), read from den * r as 16
    balanced base-2^bits digits.  Exact when den * x is in Z[zeta_48] with
    every coordinate below 2^(bits-2) in size: then den * r, balanced mod N,
    is the integer sum of those coordinates times the powers of 2^bits."""
    N = _modulus(bits)
    base, half = 1 << bits, 1 << bits - 1
    r = (r * den + (N >> 1)) % N - (N >> 1)
    digits = []
    for _ in range(16):
        r, d = divmod(r + half, base)
        digits.append(d - half)
    return Cyclo(digits, den)


def _width(bits: int, bound: int, den: int) -> int:
    """The width B of the images that keep elements apart when their
    numerators over den have coordinates at most bound: bits, doubled as
    often as needed for bound < 2^(B-2) and for den prime to Phi_48(2^B).
    Doubling ends, since a prime dividing Phi_48(2^B) makes 2^B of order 48
    and so divides Phi_48 at no other width 2^j B."""
    while bound >> bits - 2 or gcd(den, _modulus(bits)) != 1:
        bits *= 2
    return bits


def _l1(x: Cyclo) -> int:
    """The L1 norm of x's numerator."""
    return sum(abs(v) for _, v in x.terms)


# -- group closure ---------------------------------------------------------------

# cap on the elements of a closure; the largest group in use, rank 1/2's, has 1152
CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class MatrixGroup:
    """A finite matrix group in the interned form its closure builds: the
    distinct entries, the distinct rows as tuples of entry ids, the distinct
    determinants, and each element, as the tuple of its row ids, mapped to
    the id of its determinant."""

    entries: tuple  # entry id -> Cyclo
    rows: tuple  # row id -> tuple of entry ids
    determinants: tuple  # det id -> Cyclo
    elements: dict  # tuple of row ids -> det id

    @property
    def order(self):
        return len(self.elements)


def generate_group(gens) -> MatrixGroup:
    """Closure of the group generated by `gens`, run on interned entries and
    their images in Z/Phi_48(2^B).

    Every matrix entry is interned as an id, a row as the tuple of its entry
    ids, and an element as the tuple of its row ids.  The rows of m * g are
    the rows of m times g, so each distinct row meets each generator once
    (a lazy table per generator maps a row id to the id of row * g), and
    entry j of row * g is read through a memo keyed by the entry ids at the
    nonzero places of g's column j.  On a miss the entry is a sum of at most
    n products of images in Z/Phi_48(2^B), looked up among the entries'
    images and decoded only if new, over D, the lcm of the entries'
    denominators times that of the generators' entries.
    The images decide equality exactly.  With H the largest L1 norm of an
    entry's numerator and G that of a generator entry's, a product of
    numerators has coordinates at most H G, and reduction modulo Phi_48
    sums distinct ones; so D times a new entry, and D times every interned
    one, has coordinates at most n D H G.  While that stays below 2^(B-2)
    (`_width`), equal images mean equal entries and the digits are exact;
    B doubles when a new entry would break it, and the images are
    recomputed, while ids, rows and memos stay.
    The breadth-first closure then costs n table lookups per product m * g,
    and it records det(m * g) = det(m) det(g) through a memo on (det,
    generator), each generator's determinant taken once from
    linalg.gauss_jordan.  A singular generator raises ValueError, and the
    closure RuntimeError once it has more than CLOSURE_CAP elements.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators of different dimensions")
    gen_dets = [Cyclo.coerce(gauss_jordan(g.rows)[0]) for g in gens]
    for k, d in enumerate(gen_dets):
        if d.is_zero():
            raise ValueError("generator %d is singular: %r" % (k, gens[k]))
    # per generator and column j: the places k with g[k][j] != 0, their
    # entries and the entries' images, and the memo from the entry ids at
    # those places to an entry id
    cols = []
    for g in gens:
        places = [[k for k in range(n) if not g.rows[k][j].is_zero()] for j in range(n)]
        cols.append([(ks, [g.rows[k][j] for k in ks], [], {}) for j, ks in enumerate(places)])
    gen_entries = [x for g in gens for r in g.rows for x in r]
    gen_den, gen_l1 = lcm(*[x.den for x in gen_entries]), max(map(_l1, gen_entries))
    entries = [cyc_one(), cyc_zero()]  # entry id -> Cyclo
    l1, den = 1, 1  # the largest numerator L1 norm and the lcm of denominators of entries
    images, ids = [], {}  # entry id -> its image; image -> entry id
    bits = N = 0

    def recode(wide):
        """Take the images at width `wide`."""
        nonlocal bits, N
        bits, N = wide, _modulus(wide)
        images[:] = [_encode(x, bits) for x in entries]
        ids.clear()
        ids.update(zip(images, range(len(images))))
        for column in cols:
            for _, col, col_images, _ in column:
                col_images[:] = [_encode(x, bits) for x in col]

    def intern(x, r):
        """The id of the new entry x of image r, widening first if x breaks
        the bound."""
        nonlocal l1, den
        entries.append(x)
        l1, den = max(l1, _l1(x)), lcm(den, x.den)
        wide = _width(bits, n * den * gen_den * l1 * gen_l1, den * gen_den)
        if wide != bits:
            recode(wide)
        else:
            images.append(r)
            ids[r] = len(entries) - 1
        return len(entries) - 1

    recode(_width(2, n * gen_den * gen_l1, gen_den))
    # the identity's rows, entry 0 being one and entry 1 zero
    rows = [tuple(0 if i == j else 1 for j in range(n)) for i in range(n)]
    row_ids = {r: i for i, r in enumerate(rows)}  # tuple of entry ids -> row id
    tables = [{} for _ in gens]  # per generator: row id -> id of row * g

    def times(r, k):
        """The id of row r * g_k, a row the table of g_k does not hold yet."""
        row, prod = rows[r], []
        for ks, _, col_images, memo in cols[k]:
            key = tuple([row[i] for i in ks])
            e = memo.get(key)
            if e is None:
                s = sum([images[i] * c for i, c in zip(key, col_images)]) % N
                e = ids.get(s)
                if e is None:
                    e = intern(_decode(s, bits, den * gen_den), s)
                memo[key] = e
            prod.append(e)
        prod = tuple(prod)
        j = tables[k][r] = row_ids.setdefault(prod, len(rows))
        if j == len(rows):
            rows.append(prod)
        return j

    dets, det_ids = [cyc_one()], {cyc_one(): 0}  # det id -> Cyclo, and back
    det_times = {}  # (det id, generator) -> id of their product
    full = tuple(range(n))  # the identity as row ids
    elements = {full: 0}  # element as row ids -> id of its determinant
    frontier = [full]
    while frontier:
        new = []
        for m in frontier:
            for k, (d, table) in enumerate(zip(gen_dets, tables)):
                p = tuple([table[r] if r in table else times(r, k) for r in m])
                if p not in elements:
                    key = (elements[m], k)
                    if key not in det_times:
                        x = dets[key[0]] * d
                        det_times[key] = det_ids.setdefault(x, len(dets))
                        if det_times[key] == len(dets):
                            dets.append(x)
                    elements[p] = det_times[key]
                    new.append(p)
                    if len(elements) > CLOSURE_CAP:
                        raise RuntimeError("group closure exceeded cap %d" % CLOSURE_CAP)
        frontier = new
    return MatrixGroup(tuple(entries), tuple(rows), tuple(dets), elements)


# -- Molien series -----------------------------------------------------------------

# cap on classes x (degree + 1) x dimension, the products of the recurrence; at
# the cap rank 1/2 (70 classes) reaches degree 4760 in 0.6-0.7 s and 19 MB peak
# RSS (2-vCPU VM, Python 3.11.7), almost all of it in the recurrence
MOLIEN_BUDGET = 1_000_000


def char_classes(group: MatrixGroup) -> dict:
    """The elements of a finite matrix group by characteristic polynomial:
    (e_1, ..., e_n) -> number of elements, e_k the k-th elementary symmetric
    function of the eigenvalues.

    Each element is keyed by its determinant's id and the images in
    Z/Phi_48(2^B) of the power sums p_k = tr(g^k), k <= n/2, of its
    eigenvalues, taken from the images of the group's entries: p_1 the sum
    of the diagonal, p_k one sum of products of the rows of g^(k-1) with the
    columns of g (for n <= 5 no matrix product).  For g of finite order p_k
    is a sum of n roots of unity, so its coordinates are at most 1.155 n
    (see _digit_bits); with D the lcm of the entries' denominators, B
    (`_width`) keeps those of D^k p_k below 2 n D^k <= 2^(B-2), so equal
    images mean equal power sums, and each class decodes its p_k once, over
    D^k.  It then takes e_1..e_{n//2} by Newton's identities,
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, and fills in its upper
    half: the eigenvalues of g^-1 are the complex conjugates of g's,
    sigma_-1 on Q(zeta_48), so e_{n-k}(g) = det(g) e_k(g^-1) = det(g)
    sigma_-1(e_k(g)).  A group with no elements raises ValueError.
    """
    if not group.elements:
        raise ValueError("a matrix group has at least its identity; got no elements")
    n = len(group.rows[0])
    half = n // 2
    den = lcm(*[x.den for x in group.entries])
    bits = _width(2, 2 * n * den ** half, den)
    N = _modulus(bits)
    images = [_encode(x, bits) for x in group.entries]
    rows = [[images[e] for e in r] for r in group.rows]
    diagonal = range(n)
    keys = {}
    for m, d in group.elements.items():
        g = [rows[r] for r in m]
        key = (d, sum([g[i][i] for i in diagonal]) % N)
        if half > 1:
            gk, cols = g, list(zip(*g))
            for k in range(2, half + 1):
                # tr(g^(k-1) g), with g^(k-1) in gk
                key += (sum([x * y for r, c in zip(gk, cols)
                             for x, y in zip(r, c)]) % N,)
                if k < half:
                    gk = [[sum([x * y for x, y in zip(r, c)]) % N for c in cols]
                          for r in gk]
        keys[key] = keys.get(key, 0) + 1
    classes = {}
    for (d, *p), count in keys.items():
        d = group.determinants[d]
        p = [_decode(r, bits, den ** k) for k, r in enumerate(p, 1)]
        e = [cyc_one()]
        for k in range(1, len(p) + 1):
            terms = [(e[k - i], p[i - 1]) for i in range(1, k + 1)]
            e.append(dot(terms[::2], terms[1::2]) * Fraction(1, k))
        classes[tuple(e[k] if 2 * k <= n else d * e[n - k].sigma(-1)
                      for k in range(1, n + 1))] = count
    return classes


def _digit_bits(order: int, n: int, maxdeg: int) -> int:
    """Bits B of the base X = 2^B in which molien reads its sums' coordinates.

    The eigenvalues of a finite-order g lie on the unit circle under every
    embedding of Q(zeta_48), so the t^m coefficient h_m of 1/det(1 - g t),
    a sum of C(m+n-1, n-1) monomials in them, has |sigma(h_m)| <= C(m+n-1,
    n-1); a power-basis coordinate of x is at most 1.155 max_sigma |sigma(x)|.
    A coordinate of the sum over the group is thus below 2 |G| C(maxdeg+n-1,
    n-1), under a quarter of X, which leaves the sum's 16 base-X digits
    unique modulo Phi_48(X).
    """
    return (4 * order * comb(maxdeg + n - 1, n - 1)).bit_length() + 1


def molien(group: MatrixGroup, maxdeg: int) -> QSeries:
    """Molien series (1/|G|) sum_g 1/det(1 - g t) to degree `maxdeg`.

    Returned as a QSeries with t^k stored at grid index 48k.  The elements
    are grouped by characteristic polynomial (`char_classes`, which reads
    the group's determinants), and each class's series 1/det(1 - g t) runs
    on integers: the ring map zeta_48 -> X = 2^B sends Z[zeta_48] onto Z/N,
    N = Phi_48(X) = X^16 - X^8 + 1, where a recurrence step is a few integer
    products and one reduction.  Each degree's sum over the classes,
    weighted by their sizes, is then read back as its 16 balanced base-X
    digits, exact since B (`_digit_bits`) bounds every coordinate the
    elements' finite order allows.  Every
    coefficient must come out a nonnegative integer, as it does for a finite
    group: a nonreal sum raises ValueError, any other coefficient
    ArithmeticError.  A degree whose recurrence exceeds MOLIEN_BUDGET is
    refused before it runs, and a negative one raises ValueError.
    """
    if maxdeg < 0:
        raise ValueError("molien needs maxdeg >= 0, got %d" % maxdeg)
    classes = char_classes(group)
    n = len(next(iter(classes)))
    work = len(classes) * (maxdeg + 1) * n
    if work > MOLIEN_BUDGET:
        raise RuntimeError("molien to degree %d needs about %d products, over "
                           "the budget of %d" % (maxdeg, work, MOLIEN_BUDGET))
    order = group.order
    bits = _digit_bits(order, n, maxdeg)
    N = _modulus(bits)
    totals = [0] * (maxdeg + 1)
    for cs, count in classes.items():
        if any(c.den != 1 for c in cs):
            raise ArithmeticError("characteristic polynomial %s is not over "
                                  "Z[zeta_48]: not a finite group" % (cs,))
        # det(1 - g t) = sum_k (-1)^k c_k t^k, so its inverse has h_m =
        # sum_k (-1)^(k+1) c_k h_{m-k}: the nonzero c_k's images, signed
        terms = [(-k, (-1) ** (k + 1) * _encode(c, bits))
                 for k, c in enumerate(cs, 1) if c.terms]
        hs = [0] * n + [count]  # count * h_m, after n zeros for m < 0
        for _ in range(maxdeg):
            h = 0
            for k, c in terms:
                h += c * hs[k]
            hs.append(h % N)
        totals = list(map(int.__add__, totals, hs[n:]))
    out = {}
    for m, total in enumerate(totals):
        # raises ValueError if a nonreal part survived
        r = _decode(total, bits).rational() / order
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

    A modular S is unitary, so S^-1 is taken as its conjugate transpose,
    and one product checks S S^-1 = 1 (ValueError otherwise).  Raises as
    well if any entry fails to be a nonnegative rational integer, which
    signals an S-matrix not of fusion type.
    """
    n = S.n
    Sinv = CycMatrix([[x.sigma(-1) for x in col] for col in zip(*S.rows)])
    if not (S * Sinv).is_identity():
        raise ValueError("S is not unitary")
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
