"""Extremal characters of self-dual vertex operator (super)algebras, the
series-inversion cross-check, cusp-1 shadow expansions and the
(non)existence verdict engine.

A rank-c VOA character is an integer combination of powers of the weight-8
generator x8 = cbrt(j); a rank-c SVOA character is a Laurent polynomial in
the weight-1/2 generator x = 24th root of the theta-quotient.  The
extremal solution matches the vacuum character to the maximal order; the
shadow is the same combination re-expanded at the other cusp, where
nonnegativity and integrality of the coefficients become necessary
existence conditions.

Both kinds run through one code path: the kind table `_KINDS` holds what
differs as plain data, `_powers` builds the generator powers of the solve,
the decomposition and the shadow, and the solve and `decompose_character`
are one unitriangular `_peel`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .qseries import (GRID, HALF_STEPS_MINUS, HALF_STEPS_PLUS, ONE_PLUS_QN,
                      QSeries, _norm_coeff, cbrt_j, check_work, chi_half,
                      cusp1_chi_half, eta_quotient, euler_product, j_function,
                      j_theta, vacuum)

VOA = "VOA"
SVOA = "SVOA"

# ranks with known extremal self-dual SVOAs, and the standard example names
E_NAMES = {Fraction(0): "1", Fraction(8): "E8", Fraction(12): "D12+",
           Fraction(14): "(E7+E7)+", Fraction(15): "A15+",
           Fraction(31, 2): "E8,2+", Fraction(47, 2): "VB",
           Fraction(24): "moonshine"}
for _k in range(1, 16):
    E_NAMES[Fraction(_k, 2)] = "Fermi^%d" % _k
E_RANKS = frozenset(E_NAMES)

# ranks where the shadow passes and nonexistence rests on the completeness
# of the known rank-8..16 classification
L_RANKS = frozenset((Fraction(10), Fraction(11), Fraction(25, 2),
                     Fraction(13), Fraction(27, 2), Fraction(29, 2)))


class ExtremalError(ValueError):
    pass


# cap on (basis size) x (terms per series)^2, a proxy for the coefficient
# products of a solve and its shadow.  Rank 56 needs 3,872 and rank 200
# 81,536; at the cap a solve takes 6 s (SVOA rank 840, with its shadow) to
# 14 s (VOA rank 3960) on a 2-vCPU VM
WORK_BUDGET = 5_000_000


class NotDecomposableError(ValueError):
    pass


@dataclass
class ExtremalSolution:
    c: Fraction
    kind: str
    k: int
    a: list                 # a_0 .. a_k
    series: QSeries         # the extremal character
    A: dict                 # n -> A_n, n = k+1 .. k+margin (steps of q or q^(1/2))


# per kind: the generator, the rank per unit of its exponent, the exponent
# drop and grid step per basis element, k = floor(c / kdiv), the hauptmodul,
# the extra working order of the Lagrange check and the steps of A past k
_Kind = namedtuple("_Kind", "gen unit drop step kdiv haupt extra margin")
_KINDS = {VOA: _Kind(cbrt_j, Fraction(8), 3, GRID, 24, j_function, 0, 6),
          SVOA: _Kind(chi_half, Fraction(1, 2), 24, 24, 8, j_theta, GRID, 12)}


def _kind(kind):
    if kind not in (VOA, SVOA):
        raise ValueError("kind must be VOA or SVOA")
    return _KINDS[kind]


def _powers(base: QSeries, top: int, drop: int, k: int):
    """[base^top, base^(top - drop), ..., base^(top - k*drop)]."""
    return [base ** (top - drop * r) for r in range(k + 1)]


def _basis(c: Fraction, kd, rel: int):
    """The generator powers of rank c, each valid rel past its lead; the
    generator has rank kd.unit, so it leads at index -2 * kd.unit."""
    return _powers(kd.gen(int(rel - 2 * kd.unit)), int(c / kd.unit), kd.drop,
                   int(c // kd.kdiv))


def _peel(x: QSeries, basis, lead: int, step: int):
    """Peel x against a unitriangular basis: basis[r] leads at index
    lead + r*step with coefficient 1.  Returns the a_r and the partial sum
    of the a_r * basis[r], which matches x at every leading index."""
    a = []
    partial = QSeries.zero(x.trunc)
    for r, b in enumerate(basis):
        idx = lead + r * step
        ar = Fraction(x.coeff(idx) - partial.coeff(idx))
        a.append(ar)
        if ar:
            partial = partial + b.scale(_norm_coeff(ar))
    return a, partial


def _sizes(c: Fraction, kd):
    """k, the last step of A and the working order rel of the rank-c solve,
    refused past WORK_BUDGET before any series is built; none decreases in c."""
    k = int(c // kd.kdiv)
    window = k + kd.margin
    rel = GRID * max(k + 3, window * kd.step // GRID + 2, 11)
    work = (k + 1) * (rel // kd.step) ** 2
    if work > WORK_BUDGET:
        raise ExtremalError("rank %s needs about %d coefficient products, over "
                            "the budget of %d" % (c, work, WORK_BUDGET))
    return k, window, rel


def _extremal(c: Fraction, kind: str) -> ExtremalSolution:
    """Match the vacuum character through the first k steps beyond its
    leading term; A_n are the coefficients of the ratio to the vacuum
    character at steps k+1 .. k + margin of the kind."""
    kd = _KINDS[kind]
    k, window, rel = _sizes(c, kd)
    lead = int(-2 * c)
    vac = vacuum(c, lead + rel)
    a, series = _peel(vac, _basis(c, kd, rel), lead, kd.step)
    ratio = series * vac.inv()
    A = {n: Fraction(ratio.coeff(kd.step * n)) for n in range(k + 1, window + 1)}
    return ExtremalSolution(c=c, kind=kind, k=k, a=a, series=series, A=A)


def extremal_voa(c) -> ExtremalSolution:
    """Extremal self-dual VOA character of rank c in 8Z, c >= 8; A_n to n = k + 6."""
    c = Fraction(c)
    if c % 8 != 0 or c < 8:
        raise ExtremalError("extremal VOA rank must be a multiple of 8, >= 8; got %s" % c)
    sol = _extremal(c, VOA)
    A, k = sol.A, sol.k
    if not (A[k + 1] > 0 and A[k + 2] - A[k + 1] > 0):
        raise ArithmeticError("extremality positivity fails at c=%s: A=%s" % (c, A))
    return sol


def extremal_svoa(c) -> ExtremalSolution:
    """Extremal self-dual SVOA character of rank c in (1/2)Z, c >= 1/2; A_n to n = k + 12."""
    c = Fraction(c)
    if (2 * c).denominator != 1 or c < Fraction(1, 2):
        raise ExtremalError("extremal SVOA rank must be half-integral and >= 1/2; got %s" % c)
    return _extremal(c, SVOA)


# -- series-inversion cross-check ----------------------------------------------


def buermann_alpha(c, r: int, kind: str) -> Fraction:
    """Coefficient alpha_r of the expansion of g = (vacuum character) *
    (generator power) in powers of 1/H, H the hauptmodul, read off directly
    as the Lagrange-Buermann coefficient alpha_r = [p^(r-1)] (g' * phi^r) / r
    with p = q^(step/48) and phi = p*H.  Agrees with the a_r of the linear
    solve for 0 < r <= k; RuntimeError past SERIES_BUDGET, before any series."""
    c = Fraction(c)
    if r < 1:
        raise ValueError("r must be >= 1")
    kd = _kind(kind)
    step = kd.step
    rel = step * (r + 4) + kd.extra
    # measured: at most 22 + 2 log2(r) products, none past rel + 2c + 3 GRID
    check_work(22 + 2 * r.bit_length(), rel + int(2 * c) + 3 * GRID)
    vac = vacuum(c, rel)
    g = vac * (kd.gen(rel + GRID) ** -int(c / kd.unit))
    haupt = kd.haupt(rel + 2 * GRID).shift(step)  # monic in q^(step/48)
    h = g.derivative(step) * (haupt ** r)
    if step * (r - 1) >= h.trunc:
        raise ExtremalError("truncation too small for r=%d" % r)
    return Fraction(h.coeff(step * (r - 1))) / r


def decompose_character(x: QSeries, c, kind: str):
    """Express x as sum_r a_r * (generator power) for rank c; the residual
    must vanish to the available truncation."""
    c = Fraction(c)
    kd = _kind(kind)
    lead = int(-2 * c)
    if x.lead != lead:
        raise NotDecomposableError("leading exponent index %s, expected %s"
                                   % (x.lead, lead))
    a, partial = _peel(x, _basis(c, kd, x.trunc - lead), lead, kd.step)
    residual = x - partial
    if not residual.is_zero():
        raise NotDecomposableError(
            "residual is nonzero from index %s on: not a self-dual character "
            "of rank %s" % (residual.lead, c))
    return a


# -- shadow ------------------------------------------------------------------------


@dataclass
class ShadowReport:
    c: Fraction
    s: int                   # 2c - 24*floor(c/8)
    B: QSeries               # cusp-1 expansion, sqrt(2)-normalized, rational
    first_coeff: Fraction    # leading coefficient (the B* convention)
    integral: bool
    nonneg: bool
    first_negative: tuple = None       # (relative exponent, value) witness
    first_non_integral: tuple = None   # (relative exponent, value) witness

    def head(self):
        """First three terms as (exponent relative to q^(-c/24), coefficient)."""
        rel = self.B.shift(int(2 * self.c))
        return [(Fraction(n, GRID), v) for n, v in list(rel.coeffs.items())[:3]]


def shadow(c, a, trunc) -> ShadowReport:
    """Re-expand the rank-c SVOA character sum_r a_r x^(2c - 24r), r = 0..k
    with k = floor(c/8), known below grid index trunc, at the other cusp.

    The result is the sum of the twisted-module characters for integral
    rank, and the single twisted character (the 1/sqrt(2) normalization
    already applied) for c in Z+1/2.  B sums powers of the rational cusp-1
    expansion with rational scales, so it is rational as built; the parity
    bookkeeping of the sqrt(2) powers is integer arithmetic.
    """
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ExtremalError("rank %s is not half-integral" % c)
    k = floor(c / 8)
    if len(a) != k + 1:
        raise ExtremalError("rank %s needs a_0 .. a_%d, got %d values" % (c, k, len(a)))
    top = int(2 * c)
    if trunc <= -top:
        raise ExtremalError("truncation %s is not past the lead %s" % (trunc, -top))
    w = cusp1_chi_half(trunc + top + GRID)
    B = QSeries.zero(w.trunc)
    # m = 2c - 24r is odd exactly for c in Z+1/2, where m // 2 = (m - 1) // 2
    for r, (ar, wm) in enumerate(zip(a, _powers(w, top, 24, k))):
        m = top - 24 * r
        B = B + wm.scale(ar * (-1) ** r * Fraction(2) ** (m // 2))
    terms = [(Fraction(n, GRID) + c / 24, v) for n, v in B.coeffs.items()]
    neg = next((t for t in terms if t[1] < 0), None)
    non_int = next((t for t in terms if Fraction(t[1]).denominator != 1), None)
    first = Fraction(B.lead_coeff) if not B.is_zero() else Fraction(0)
    return ShadowReport(c=c, s=top - 24 * k, B=B, first_coeff=first,
                        integral=non_int is None, nonneg=neg is None,
                        first_negative=neg, first_non_integral=non_int)


# -- verdicts ------------------------------------------------------------------------


@dataclass
class Verdict:
    c: Fraction
    status: str                     # exists_known | ruled_out | conditional_L | open
    name: str = ""
    arguments: frozenset = frozenset()
    shadow: ShadowReport = None
    tail_signs: tuple = None        # (a_{k-1}, a_k) recorded for c >= 48

    def to_json(self):
        head = self.shadow.head() if self.shadow is not None else ()
        return {"rank": str(self.c), "status": self.status, "name": self.name,
                "arguments": sorted(self.arguments),
                "shadow_head": [[str(e), str(v)] for e, v in head]}


def classify(c, cmax=56) -> Verdict:
    """Existence verdict for an extremal self-dual SVOA of rank c.

    Ranks in the known list report the standard example; otherwise failed
    integrality (G) or positivity (N) of the shadow rules the rank out, and
    the six ranks where the shadow is clean stay conditional on the
    completeness of the known rank-8..16 classification.
    """
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ExtremalError("rank %s is not half-integral" % c)
    if c < 0 or c > cmax:
        raise ExtremalError("rank %s outside [0, %s]" % (c, cmax))
    if c == 0:
        return Verdict(c=c, status="exists_known", name=E_NAMES[c])
    sol = extremal_svoa(c)
    rep = shadow(sol.c, sol.a, sol.series.trunc)
    if c in E_RANKS:
        return Verdict(c=c, status="exists_known", name=E_NAMES[c], shadow=rep)
    args = set()
    if not rep.nonneg:
        args.add("N")
    if not rep.integral:
        args.add("G")
    tail = None
    if c >= 48:
        ak, akm1 = sol.a[sol.k], sol.a[sol.k - 1]
        if not (ak < 0 and akm1 < 0):
            raise ArithmeticError("expected negative tail coefficients at c=%s" % c)
        tail = (akm1, ak)
    if args:
        return Verdict(c=c, status="ruled_out", arguments=frozenset(args),
                       shadow=rep, tail_signs=tail)
    if c in L_RANKS:
        return Verdict(c=c, status="conditional_L", shadow=rep)
    return Verdict(c=c, status="open", shadow=rep)


def classify_range(cfrom, cto, cmax=56):
    """Verdicts on the half-integer grid, ordered by rank; a top rank over
    WORK_BUDGET is refused before the first solve."""
    cfrom, cto = Fraction(cfrom), Fraction(cto)
    if cfrom > cto:
        raise ExtremalError("empty rank range %s .. %s" % (cfrom, cto))
    steps = floor(2 * (cto - cfrom))
    _sizes(cfrom + Fraction(steps, 2), _KINDS[SVOA])
    return [classify(cfrom + Fraction(n, 2), cmax=cmax) for n in range(steps + 1)]


# -- highest-weight enumeration -------------------------------------------------------


@dataclass
class HighestWeightEnum:
    c: Fraction
    P: dict          # weight (Fraction) -> dimension, including P_0 = 1
    mu: Fraction     # minimal weight, or None for infinity


def hw_enumerator(x: QSeries, c) -> HighestWeightEnum:
    """Dimensions of the spaces of highest-weight vectors of each weight
    for a character x of rank c > 1."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError("rank must exceed 1 for the generic module counting")
    lead = int(-2 * c)
    t_rel = x.trunc - lead
    shifted = x.shift(-lead)  # q^(c/24) * x
    series = (shifted - vacuum(c, x.trunc).shift(-lead)) * euler_product(t_rel)
    P = {Fraction(0): 1}
    mu = None
    for n, v in series.coeffs.items():
        if n <= 0:
            raise ValueError("negative-weight highest-weight vector: "
                             "not a character of rank %s" % c)
        if v < 0 or Fraction(v).denominator != 1:
            raise ValueError("invalid multiplicity %s at weight %s"
                             % (v, Fraction(n, GRID)))
        w = Fraction(n, GRID)
        P[w] = int(v)
        if mu is None and w >= Fraction(1, 2):
            mu = w
    return HighestWeightEnum(c=c, P=P, mu=mu)


# -- orbifold characters --------------------------------------------------------------


def check_orbifold_work(trunc, c):
    """RuntimeError if orbifold_character(theta cut at trunc, c) would exceed SERIES_BUDGET."""
    check_work(70, trunc + 2 * c)  # four eta quotients to the -c: at most 25 measured


def orbifold_character(theta: QSeries, c) -> QSeries:
    """Character of the involution orbifold of a lattice theory with theta
    series `theta` and rank c in 8Z; RuntimeError past SERIES_BUDGET."""
    c = Fraction(c)
    if c % 8 != 0:
        raise ValueError("orbifold rank must be a multiple of 8")
    if theta.coeff(0) != 1 or theta.lead != 0:
        raise ValueError("theta series must start with 1")
    cc = int(c)
    t = theta.trunc
    check_orbifold_work(t, cc)
    # each to t - 2c, where theta * eta^-c is cut
    eta_c, one_plus, half_minus, half_plus = (
        eta_quotient([(step, -cc * e) for step, e in exps], t - 2 * cc) for exps in
        (((GRID, 1),), ONE_PLUS_QN, HALF_STEPS_MINUS, HALF_STEPS_PLUS))
    untwisted = (theta * eta_c + one_plus).scale(Fraction(1, 2))
    twisted = half_minus + half_plus.scale((-1) ** (cc // 8))
    return untwisted + twisted.scale(Fraction(2 ** (cc // 2), 2))
