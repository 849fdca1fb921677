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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor

from .qseries import (GRID, QSeries, _prod_half_steps, _prod_one_plus_qn,
                      cbrt_j, chi_half, cusp1_chi_half, euler_product,
                      j_function, j_theta, vacuum)

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


def _check_work(c, k, rel, step):
    """Refuse a solve before any series is built when it is too large."""
    work = (k + 1) * (rel // step) ** 2
    if work > WORK_BUDGET:
        raise ExtremalError("rank %s needs about %d coefficient products, over "
                            "the budget of %d" % (c, work, WORK_BUDGET))


class NotDecomposableError(ValueError):
    pass


@dataclass
class ExtremalSolution:
    c: Fraction
    kind: str
    k: int
    a: list                 # a_0 .. a_k
    series: QSeries         # the extremal character
    A: dict                 # n -> A_n, n = k+1 .. window (steps of q or q^(1/2))

    @property
    def step(self):
        return Fraction(1) if self.kind == VOA else Fraction(1, 2)


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


# -- series-inversion cross-check ----------------------------------------------


def buermann_alpha(c, r: int, kind: str) -> Fraction:
    """Coefficient alpha_r of the expansion of (vacuum character) *
    (generator power) in powers of the hauptmodul inverse, computed by the
    Lagrange inversion formula.  Agrees with the a_r of the linear solve
    for 0 < r <= k."""
    c = Fraction(c)
    if r < 1:
        raise ValueError("r must be >= 1")
    if kind == VOA:
        step = GRID
        rel = GRID * (r + 4)
        base = cbrt_j(rel + GRID)
        weight = -int(c / 8)
        haupt = j_function(rel + 2 * GRID).shift(GRID)  # q * j, monic
    elif kind == SVOA:
        step = 24
        rel = 24 * (r + 4) + GRID
        base = chi_half(rel + GRID)
        weight = -int(2 * c)
        haupt = j_theta(rel + 2 * GRID).shift(24)  # p * j_theta, monic in p
    else:
        raise ValueError("kind must be VOA or SVOA")
    vac = vacuum(c, rel)
    g = vac * (base ** weight)
    h = g.derivative(step) * (haupt ** r)
    for _ in range(r - 1):
        if h.trunc <= 0:
            raise ExtremalError("truncation too small for %d derivatives" % (r - 1))
        h = h.derivative(step)
    if h.trunc <= 0:
        raise ExtremalError("truncation too small for r=%d" % r)
    return Fraction(h.coeff(0)) / factorial(r)


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

    def head(self, nterms=3):
        """First terms as (exponent relative to q^(-c/24), coefficient)."""
        rel = self.B.shift(int(2 * self.c))
        out = []
        for n in rel.support()[:nterms]:
            out.append((Fraction(n, GRID), rel.coeffs[n]))
        return out


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
    for n in B.support():
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
        out = {"rank": str(self.c), "status": self.status,
               "name": self.name,
               "arguments": sorted(self.arguments),
               "shadow_head": []}
        if self.shadow is not None:
            out["shadow_head"] = [[str(e), str(v)] for e, v in self.shadow.head()]
        return out


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
    rep = shadow(sol)
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
    """Verdicts on the half-integer grid, ordered by rank."""
    cfrom, cto = Fraction(cfrom), Fraction(cto)
    out = []
    c = cfrom
    while c <= cto:
        out.append(classify(c, cmax=cmax))
        c += Fraction(1, 2)
    return out


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
    for n in series.support():
        if n <= 0:
            if series.coeff(n) != 0:
                raise ValueError("negative-weight highest-weight vector: "
                                 "not a character of rank %s" % c)
            continue
        v = series.coeff(n)
        if v < 0 or Fraction(v).denominator != 1:
            raise ValueError("invalid multiplicity %s at weight %s"
                             % (v, Fraction(n, GRID)))
        w = Fraction(n, GRID)
        P[w] = int(v)
        if mu is None and w >= Fraction(1, 2):
            mu = w
    return HighestWeightEnum(c=c, P=P, mu=mu)


# -- orbifold and fusion type ----------------------------------------------------------


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


def fusion_type(c) -> str:
    """Fusion-ring case of the even part: 'a' (Ising) for c in Z+1/2,
    'b' (Z/4) for odd c, 'c' (Z/2 x Z/2) for even c."""
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise ValueError("rank %s is not half-integral" % c)
    if c.denominator == 2:
        return "a"
    return "b" if int(c) % 2 else "c"
