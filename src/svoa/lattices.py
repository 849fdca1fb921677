"""Exact theta series of the catalog lattices by coordinate-coset counting,
and the associated lattice-SVOA characters theta/eta^n.

Every catalog lattice except Leech (closed form) is a union of cosets, each
a product of blocks (n, a, m): the vectors of (Z + a)^n whose coordinate
sum is 0 mod m, where m = 1 means no condition and m = 0 a zero sum (Conway
& Sloane, SPLAG ch. 4 and 7).  A block is counted coordinate by coordinate
over (norm, sum) states in exact integers, polynomially in the order; a
zero-sum state that the coordinates still to come cannot close within the
norm bound is dropped (Cauchy-Schwarz, as in Fincke & Pohst 1985).  x -> -x
maps block (n, a, m) onto (n, -a mod 1, m), so a mirror pair is counted
once.  THETA_BUDGET is charged first: each block's (state x term) products
as if unpruned, each coset product by its factors' norm counts.  The coset
list is the only description of a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .qseries import GRID, QSeries, E4, check_work, delta, eta_quotient


class EnumerationBudgetError(RuntimeError):
    pass


# cap on the products of one theta count, every block's (state x term)
# products before pruning and every coset product, all bounded before
# counting; at the cap A15+, the costliest catalog entry per order, reaches
# q^127 in 0.46-0.81 s and 16 MB peak RSS (2-vCPU VM, Python 3.11.7)
THETA_BUDGET = 20_000_000


@dataclass(frozen=True)
class Lattice:
    name: str
    dim: int
    cosets: tuple        # union of products of (n, a, m) blocks


# -- catalog -----------------------------------------------------------------------

# the catalog's names; Zn, Dn and Dn+ stand for their families
LATTICE_NAMES = ("Zn", "Dn", "Dn+", "E8", "E7", "E7E7+", "A15+", "Leech")
_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)
# E7 = (Z^8 u (Z+1/2)^8) at sum zero; its nonzero dual class is (Z +- 1/4)^8
_E7 = (((8, 0, 0),), ((8, _HALF, 0),))
_E7_GLUE = (((8, _QUARTER, 0),), ((8, 3 * _QUARTER, 0),))


def lattice_catalog(name: str) -> Lattice:
    key = name.strip()
    if key == "Leech":
        # theta is formula-backed; no coordinate data needed
        return Lattice("Leech", 24, ())
    if key.startswith("Z") and key[1:].isdigit():
        n = int(key[1:])
        if n < 1:
            raise ValueError("Zn needs n >= 1")
        return Lattice(key, n, (((n, 0, 1),),))
    if key.startswith("D") and key.endswith("+") and key[1:-1].isdigit():
        n = int(key[1:-1])
        if n < 4 or n % 4 != 0:
            raise ValueError("Dn+ needs n >= 4 divisible by 4")
        return Lattice(key, n, (((n, 0, 2),), ((n, _HALF, 2),)))
    if key.startswith("D") and key[1:].isdigit():
        n = int(key[1:])
        if n < 2:
            raise ValueError("Dn needs n >= 2")
        return Lattice(key, n, (((n, 0, 2),),))
    if key == "E8":
        return lattice_catalog("D8+")
    if key == "E7":
        return Lattice("E7", 7, _E7)
    if key == "E7E7+":
        cosets = tuple(x + y for x in _E7 for y in _E7)
        cosets += tuple(x + y for x in _E7_GLUE for y in _E7_GLUE)
        return Lattice("E7E7+", 14, cosets)
    if key == "A15+":
        return Lattice("A15+", 15,
                       tuple(((16, Fraction(j, 16), 0),) for j in (0, 4, 8, 12)))
    raise ValueError("unknown lattice %r (have: %s)"
                     % (name, ", ".join(LATTICE_NAMES)))


lattice_catalog.__doc__ = "Catalog lookup: %s." % ", ".join(LATTICE_NAMES)


def lattice_names():
    return list(LATTICE_NAMES)


# -- exact counting ----------------------------------------------------------------


def _block_work(terms, n, m, d, norm_max):
    """Upper bounds on the (state x term) products of counting a block and
    on the norms in its count.

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


def _block_terms(a, d, norm_max):
    """(k, d^2 (k + a)^2) for every integer k with d^2 (k + a)^2 <= norm_max."""
    da = int(d * a)
    r = isqrt(norm_max)
    return [(k, (d * k + da) ** 2)
            for k in range(-((r + da) // d), (r - da) // d + 1)]


def _block_counts(block, terms, d, norm_max):
    """{d^2 x.x: count} over x in (Z + a)^n with sum(x) = 0 mod m (m = 0:
    sum(x) = 0) and d^2 x.x <= norm_max, from the block's `_block_terms`.

    Coordinates are x_i = k_i + a, so d x_i = d k_i + d a is an integer and
    the condition is sum(k) = -n a mod m.  States after each coordinate are
    {sum(k) (mod m): {scaled norm: count}}.  For m = 0 a state is dropped
    as soon as it cannot close (Fincke & Pohst's pruning): the r coordinates
    still to come must add ds = d (target - sum(k)) + r d a to the sum of
    the d x_i, so by Cauchy-Schwarz at least ceil(ds^2 / r) to the norm,
    and at r = 0 only ds = 0 is left.
    """
    n, a, m = block
    target, da = int(-n * a), int(d * a)
    states = {0: {0: 1}}
    for r in range(n - 1, -1, -1):
        new = {}
        for z, row in states.items():
            for k, y2 in terms:
                z2 = (z + k) % m if m else z + k
                lim = norm_max - y2
                if not m:
                    ds = d * (target - z2) + r * da
                    if r:
                        lim += -ds * ds // r  # floor(-x) = -ceil(x)
                    elif ds:
                        continue
                if lim < 0:
                    continue
                dest = new.setdefault(z2, {})
                for norm, cnt in row.items():
                    if norm <= lim:
                        dest[norm + y2] = dest.get(norm + y2, 0) + cnt
        states = new
    return states.get(target % m if m else target, {})


def _mirror(block):
    n, a, m = block
    return n, min(a, -a % 1), m


def _mul_truncated(x, y, norm_max):
    out = {}
    for nx, cx in x.items():
        for ny, cy in y.items():
            if nx + ny <= norm_max:
                out[nx + ny] = out.get(nx + ny, 0) + cx * cy
    return out


def theta_series(L: Lattice, trunc=None) -> QSeries:
    """Theta series sum over lattice vectors of q^(norm/2), exact integers.

    Counts every vector of norm below 2 * trunc / GRID (default trunc
    q^5) coset by coset.  Before any block is counted, the bounds on every
    block's (state x term) products and on every coset product (norms of
    the running product x norms of the block) are summed, and past
    THETA_BUDGET EnumerationBudgetError is raised.  The Leech entry
    dispatches to its closed form, refused past qseries.SERIES_BUDGET.
    """
    if trunc is None:
        trunc = 5 * GRID
    if L.name == "Leech":
        check_work(8, trunc)  # E4^3 and Delta = eta^24: 7 products measured
        return E4(trunc) ** 3 - delta(trunc).scale(720)
    d = lcm(*(Fraction(a).denominator
              for coset in L.cosets for _, a, _ in coset))
    d2 = d * d
    # q^(x.x/2) sits at grid index 24 x.x, which must stay below trunc
    norm_max = d2 * (trunc - 1) // 24
    terms = {block: _block_terms(block[1], d, norm_max)
             for coset in L.cosets for block in coset}
    # charged before any counting: every block (a mirror pair's both), and
    # every coset product at the product of its factors' norm bounds
    bounds = {(n, a, m): _block_work(t, n, m, d, norm_max) for (n, a, m), t in terms.items()}
    work = sum(w for w, _ in bounds.values())
    work += sum(prod(bounds[b][1] for b in c[:i + 1]) for c in L.cosets for i in range(len(c)))
    if work > THETA_BUDGET:
        raise EnumerationBudgetError("theta count needs up to %d products, over "
                                     "the budget of %d" % (work, THETA_BUDGET))
    blocks = {}
    for block, t in terms.items():
        if _mirror(block) not in blocks:
            blocks[_mirror(block)] = _block_counts(block, t, d, norm_max)
    acc = {}
    for coset in L.cosets:
        counts = {0: 1}
        for block in coset:
            counts = _mul_truncated(counts, blocks[_mirror(block)], norm_max)
        for norm, cnt in counts.items():
            if (norm * 24) % d2:
                raise ValueError("norm %s off the exponent grid"
                                 % Fraction(norm, d2))
            idx = norm * 24 // d2
            acc[idx] = acc.get(idx, 0) + cnt
    return QSeries(acc, trunc)


def svoa_character(L: Lattice, trunc=None) -> QSeries:
    """Character theta/eta^n of the lattice theory; THETA_BUDGET as in theta_series."""
    if trunc is None:
        trunc = 4 * GRID
    n = L.dim
    # eta^-n leads at q^(-n/24), so theta runs that far past trunc
    return theta_series(L, trunc + 2 * n) * eta_quotient(((GRID, -n),), trunc)
