"""Lattice catalog, exact theta counting, lattice-theory characters."""

import inspect
import re
import sys
import time
from fractions import Fraction as F
from math import isqrt, lcm

import pytest

import old_routes
from helpers import agree
from svoa import lattices
from svoa.cli import main
from svoa.extremal import extremal_svoa, orbifold_character
from svoa.lattices import (LATTICE_NAMES, EnumerationBudgetError, _block_counts,
                           _block_terms, _block_work, lattice_catalog,
                           lattice_names, svoa_character, theta_series)
from svoa.linalg import gauss_jordan
from svoa.qseries import GRID, E4, QSeries, j_function


# -- Gram matrix and glue from ambient coordinates: the oracle's own description
# of each catalog lattice, never derived from its coset list ---------------------


def _form_value(gram, v):
    n = len(v)
    acc = F(0)
    for i in range(n):
        if v[i]:
            for j in range(n):
                if v[j]:
                    acc += v[i] * gram[i][j] * v[j]
    return acc


def _from_ambient(basis, glue_ambient):
    """Gram matrix and basis-coordinate glue of ambient row vectors."""
    dim = len(basis)
    gram = [[sum(F(x) * F(y) for x, y in zip(bi, bj))
             for bj in basis] for bi in basis]
    rhs = [[sum(F(x) * F(y) for x, y in zip(g, bi))
            for bi in basis] for g in glue_ambient]
    reduced = gauss_jordan(gram, rhs)[2]
    glue = []
    for col, g in enumerate(glue_ambient, start=dim):
        mu = [row[col] for row in reduced]
        # confirm g lies in the rational span of the basis
        recon = [sum(mu[i] * F(basis[i][t]) for i in range(dim))
                 for t in range(len(basis[0]))]
        if recon != [F(x) for x in g]:
            raise ValueError("glue vector %s outside the basis span" % (g,))
        glue.append(tuple(mu))
    return tuple(tuple(row) for row in gram), tuple(glue)


def _z_lattice(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _d_basis(n):
    basis = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        basis[i][i] = 1
        basis[i][i + 1] = -1
    basis[n - 1][n - 2] = 1
    basis[n - 1][n - 1] = 1
    return basis


def _a_basis(n):
    # A_n inside the sum-zero hyperplane of Z^(n+1)
    basis = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        basis[i][i] = 1
        basis[i][i + 1] = -1
    return basis


def _a_glue(n, j):
    # class [j] of the A_n dual quotient: n+1-j entries j/(n+1), j entries j/(n+1)-1
    f = F(j, n + 1)
    return [f] * (n + 1 - j) + [f - 1] * j


def _e7_basis():
    basis = _a_basis(7)[:6]
    basis.append([F(1, 2)] * 4 + [F(-1, 2)] * 4)
    return basis


def _e7e7_plus():
    b7 = _e7_basis()
    basis = ([list(b) + [0] * 8 for b in b7]
             + [[0] * 8 + list(b) for b in b7])
    return _from_ambient(basis, [[0] * 16, _a_glue(7, 2) * 2])


# catalog name -> (gram, glue): the basis Gram matrix (Fractions) and the coset
# representatives in basis coordinates, including 0
GRAM_GLUE = {
    **{"Z%d" % n: _from_ambient(_z_lattice(n), [[0] * n]) for n in range(1, 6)},
    **{"D%d" % n: _from_ambient(_d_basis(n), [[0] * n]) for n in range(2, 7)},
    **{"D%d+" % n: _from_ambient(_d_basis(n), [[0] * n, [F(1, 2)] * n])
       for n in (4, 8, 12, 16)},
    "E7": _from_ambient(_e7_basis(), [[0] * 8]),
    "E7E7+": _e7e7_plus(),
    "A15+": _from_ambient(_a_basis(15), [[0] * 16] + [
        _a_glue(15, j) for j in (4, 8, 12)]),
}
GRAM_GLUE["E8"] = GRAM_GLUE["D8+"]


def _determinant(gram):
    return gauss_jordan(gram)[0]


def _is_positive_definite(gram):
    return all(gauss_jordan([row[:k] for row in gram[:k]])[0] > 0
               for k in range(1, len(gram) + 1))


def _glue_norms(gram, glue):
    return [_form_value(gram, g) for g in glue]


# -- Fincke-Pohst oracle: bounded enumeration from the Gram matrix and glue ----------


def _fincke_pohst_form(gram):
    """Rewrite the form as sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = len(gram)
    q = [[F(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _enumerate_coset(q, mu, norm_max):
    """Count lattice-plus-glue vectors with form value <= norm_max, grouped
    by value (returned scaled by M, with M in the result tuple).

    All hot-loop arithmetic is exact machine-integer: coordinates are scaled
    by SCALE (clearing the cross-term and glue denominators twice over) and
    form values by M = SCALE^2 * lcm of the diagonal denominators.
    shifts[j] carries SCALE*(mu_j + sum_k q[j][k] x_k) over the fixed outer
    coordinates x_k = t_k + mu_k.
    """
    n = len(q)
    base = [F(x) for x in mu]
    d = 1
    for i in range(n):
        d = lcm(d, base[i].denominator)
        for j in range(i + 1, n):
            d = lcm(d, q[i][j].denominator)
    scale = d * d
    diag_lcm = 1
    for i in range(n):
        diag_lcm = lcm(diag_lcm, q[i][i].denominator)
    m_total = scale * scale * diag_lcm
    # used_M = fdiag[i] * Y^2 with Y the SCALE-scaled offset coordinate
    fdiag = [q[i][i].numerator * (diag_lcm // q[i][i].denominator)
             for i in range(n)]
    qcross = [[int(q[j][i] * scale) for i in range(n)] for j in range(n)]
    norm_max_m = int(norm_max * m_total)
    counts = {}

    shifts0 = []
    for j in range(n):
        s = base[j]
        for k in range(j + 1, n):
            s += q[j][k] * base[k]
        s *= scale
        assert s.denominator == 1
        shifts0.append(int(s))

    def rec(i, rem, shifts):
        si = shifts[i]
        fi = fdiag[i]
        # used = fi * Y^2 with Y = scale*t + si, so |Y| <= sqrt(rem/fi)
        ybound = isqrt(rem * fi) // fi + 1
        tlo = (-ybound - si + scale - 1) // scale
        thi = (ybound - si) // scale
        for t in range(tlo, thi + 1):
            y = scale * t + si
            used = fi * y * y
            if used > rem:
                continue
            if i == 0:
                key = norm_max_m - (rem - used)
                counts[key] = counts.get(key, 0) + 1
            else:
                inner = list(shifts)
                for j in range(i):
                    inner[j] += qcross[j][i] * t
                rec(i - 1, rem - used, inner)

    rec(n - 1, norm_max_m, shifts0)
    return counts, m_total


def _oracle_theta(name, trunc):
    gram, glue = GRAM_GLUE[name]
    norm_max = F(2 * (trunc - 1), GRID)
    q = _fincke_pohst_form([list(r) for r in gram])
    acc = {}
    for g in glue:
        counts, m_total = _enumerate_coset(q, list(g), norm_max)
        for norm_m, cnt in counts.items():
            assert (norm_m * 24) % m_total == 0
            idx = norm_m * 24 // m_total
            acc[idx] = acc.get(idx, 0) + cnt
    return QSeries(acc, trunc)


ORACLE_CASES = ([(name, 3 * GRID) for name in
                 ("Z1", "Z2", "Z3", "Z4", "Z5", "D2", "D3", "D4", "D5", "D6",
                  "D4+", "D8+", "E8", "D12+", "E7", "E7E7+", "A15+")]
                + [("D16+", 2 * GRID)])


@pytest.mark.parametrize("name,trunc", ORACLE_CASES)
def test_theta_matches_fincke_pohst_oracle(name, trunc):
    L = lattice_catalog(name)
    assert L.dim == len(GRAM_GLUE[name][0])
    th = theta_series(L, trunc)
    expect = _oracle_theta(name, trunc)
    assert th.trunc == expect.trunc
    assert th.coeffs == expect.coeffs


def test_catalog_Z1():
    z1 = lattice_catalog("Z1")
    gram, glue = GRAM_GLUE["Z1"]
    assert z1.dim == 1 and gram == ((1,),)
    assert glue == ((0,),)
    th = theta_series(z1, 480)
    assert [th.coeff(i) for i in (0, 24, 96, 216, 384)] == [1, 2, 2, 2, 2]
    assert th.coeff(48) == 0


def test_catalog_D12_plus():
    L = lattice_catalog("D12+")
    gram, glue = GRAM_GLUE["D12+"]
    assert L.dim == 12
    assert _is_positive_definite(gram)
    norms = _glue_norms(gram, glue)
    assert 0 in norms and F(3) in norms
    # integrality: the glue pairs integrally with the whole base lattice
    g = glue[1]
    pairings = [sum(g[i] * gram[i][j] for i in range(12)) for j in range(12)]
    assert all(F(x).denominator == 1 for x in pairings)
    # self-duality: det / index^2 = 1
    assert _determinant(gram) / len(glue) ** 2 == 1


def test_catalog_A15_plus():
    L = lattice_catalog("A15+")
    gram, glue = GRAM_GLUE["A15+"]
    assert L.dim == 15 and len(glue) == 4
    assert _determinant(gram) == 16
    assert _determinant(gram) / len(glue) ** 2 == 1
    # glue class norms k(n+1-k)/(n+1): 4*12/16 = 3, 8*8/16 = 4, 12*4/16 = 3
    assert sorted(_glue_norms(gram, glue)) == [0, 3, 3, 4]


def test_catalog_E7_and_sum():
    assert _determinant(GRAM_GLUE["E7"][0]) == 2
    L = lattice_catalog("E7E7+")
    gram, glue = GRAM_GLUE["E7E7+"]
    assert L.dim == 14
    assert _determinant(gram) == 4 and len(glue) == 2
    assert sorted(_glue_norms(gram, glue)) == [0, 3]


@pytest.mark.parametrize("name", ["Z3", "D4+", "D8+", "E8", "D12+", "D16+",
                                  "E7E7+", "A15+"])
def test_self_dual_entries(name):
    gram, glue = GRAM_GLUE[name]
    n = len(gram)
    assert n == lattice_catalog(name).dim
    assert _is_positive_definite(gram)
    assert _determinant(gram) / len(glue) ** 2 == 1
    # every glue vector pairs integrally with the base lattice and the glue
    for g in glue:
        pairings = [sum(g[i] * gram[i][j] for i in range(n)) for j in range(n)]
        assert all(F(x).denominator == 1 for x in pairings)
        for h in glue:
            assert F(sum(x * h[j] for j, x in enumerate(pairings))).denominator == 1


def test_catalog_errors():
    with pytest.raises(ValueError):
        lattice_catalog("X9")
    with pytest.raises(ValueError):
        lattice_catalog("D10+")  # not divisible by 4
    with pytest.raises(ValueError):
        lattice_catalog("D0+")  # divisible by 4, but empty


def test_theta_E8_is_E4():
    th = theta_series(lattice_catalog("E8"), 300)
    assert agree(th, E4(300))


def test_theta_multiplicativity():
    t1 = theta_series(lattice_catalog("Z1"), 240)
    t3 = theta_series(lattice_catalog("Z3"), 240)
    assert agree(t3, t1 ** 3)


def test_theta_basic_invariants():
    for name in ("Z2", "D4", "D12+", "E7"):
        th = theta_series(lattice_catalog(name), 180)
        assert th.coeff(0) == 1
        assert all(isinstance(c, int) and c >= 0 for c in th.coeffs.values())


def test_leech_by_formula():
    th = theta_series(lattice_catalog("Leech"), 480)
    assert th.coeff(0) == 1 and th.coeff(48) == 0
    assert th.coeff(96) == 196560
    # consistency: the involution orbifold of the Leech theory has the
    # moonshine character
    x = orbifold_character(th, 24)
    assert agree(x.truncate(4 * GRID), j_function(480) - QSeries.one(480).scale(744))


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(lattices, "THETA_BUDGET", 50)
    with pytest.raises(EnumerationBudgetError):
        theta_series(lattice_catalog("D12+"), 400)
    with pytest.raises(EnumerationBudgetError):
        svoa_character(lattice_catalog("D12+"), 400)


@pytest.mark.parametrize("name", ["Z5", "D3", "D6", "D4+", "E7", "E7E7+", "A15+"])
def test_block_bound_covers_the_count(name):
    # the up-front charge must cover the (state x term) products that the
    # coordinate-by-coordinate count makes, and the norms it ends with
    L = lattice_catalog(name)
    d = lcm(*(F(a).denominator for coset in L.cosets for _, a, _ in coset))
    for trunc in (1, 7, 30, 144, 482):
        norm_max = d * d * (trunc - 1) // 24
        r = isqrt(norm_max)
        for n, a, m in {block for coset in L.cosets for block in coset}:
            da = int(d * a)
            terms = [(k, (d * k + da) ** 2)
                     for k in range(-((r + da) // d), (r - da) // d + 1)]
            states, work = {(0, 0)}, 0
            for _ in range(n):
                work += len(terms) * len(states)
                states = {((z + k) % m if m else z + k, y + y2)
                          for z, y in states for k, y2 in terms if y + y2 <= norm_max}
            target = int(-n * a) % m if m else int(-n * a)
            bound, norms = _block_work(terms, n, m, d, norm_max)
            assert bound >= work, (n, a, m, trunc)
            assert norms >= len({y for z, y in states if z == target}), (n, a, m, trunc)


def _products(count, *args):
    """count(*args) and its (state x term) products: the runs of its
    `if norm <= lim:` line, seen by a line tracer."""
    lines, first = inspect.getsourcelines(count)
    line = first + next(i for i, text in enumerate(lines) if "if norm <= lim:" in text)
    runs = [0]

    def local(frame, event, arg):
        runs[0] += event == "line" and frame.f_lineno == line
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is count.__code__ else None)
    try:
        return count(*args), runs[0]
    finally:
        sys.settrace(outer)


@pytest.mark.parametrize("name", ["Z5", "D3", "D6", "D4+", "D12+", "E8", "E7",
                                  "E7E7+", "A15+"])
def test_pruned_block_counts_match_old_route(name):
    # Cauchy-Schwarz pruning drops only states that cannot close, and x -> -x
    # gives a block and its mirror (n, -a mod 1, m) the same counts
    L = lattice_catalog(name)
    d = lcm(*(F(a).denominator for coset in L.cosets for _, a, _ in coset))
    blocks = {block for coset in L.cosets for block in coset}
    mirrors = {(n, a, m) for n, a, m in blocks if a != -a % 1 and (n, -a % 1, m) in blocks}
    assert bool(mirrors) == (name in ("E7E7+", "A15+"))
    for trunc in (1, 7, 30, 144, 482):
        norm_max = d * d * (trunc - 1) // 24
        counts = {}
        for block in blocks:
            terms = _block_terms(block[1], d, norm_max)
            counts[block] = _block_counts(block, terms, d, norm_max)
            assert counts[block] == old_routes._block_counts(block, terms, norm_max), \
                (block, trunc)
        for n, a, m in mirrors:
            assert counts[n, a, m] == counts[n, -a % 1, m], (n, a, m, trunc)


def test_pruning_is_live():
    # at A15+, trunc 144, every block's pruned count makes fewer products
    d, norm_max = 4, 16 * 143 // 24
    for j in (0, 4, 8, 12):
        block = (16, F(j, 16), 0)
        terms = _block_terms(block[1], d, norm_max)
        new, pruned = _products(_block_counts, block, terms, d, norm_max)
        old, unpruned = _products(old_routes._block_counts, block, terms, norm_max)
        assert new == old and 0 < pruned < unpruned, (block, pruned, unpruned)


def test_mirror_pairs_counted_once(monkeypatch):
    counted = []
    count = lattices._block_counts
    monkeypatch.setattr(lattices, "_block_counts",
                        lambda block, *args: counted.append(block) or count(block, *args))
    for name in ("E7E7+", "A15+"):
        counted.clear()
        L = lattice_catalog(name)
        theta_series(L, 3 * GRID)
        assert len(counted) == len({b for coset in L.cosets for b in coset}) - 1 == 3


def test_budget_overrun_fails_before_counting():
    # every block's bound is charged before the first block is counted
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        theta_series(lattice_catalog("A15+"), 128 * GRID)
    assert time.perf_counter() - start < 0.1


def _count_nothing(*args):
    raise AssertionError("a block was counted")


@pytest.mark.parametrize("name,order", [("E7E7+", 232), ("D12+", 2399)])
def test_over_the_cap_refused_before_any_block_is_counted(monkeypatch, name, order):
    # the coset products are charged with the blocks, so the first order past
    # each cap is refused before counting, not after it (A15+'s q^128 is
    # test_budget_overrun_fails_before_counting)
    monkeypatch.setattr(lattices, "_block_counts", _count_nothing)
    with pytest.raises(EnumerationBudgetError):
        theta_series(lattice_catalog(name), order * GRID)


@pytest.mark.parametrize("name,order", [("E7E7+", 231), ("D12+", 2398), ("A15+", 127)])
def test_the_cap_edge_orders_still_count(monkeypatch, name, order):
    monkeypatch.setattr(lattices, "_block_counts", _count_nothing)
    with pytest.raises(AssertionError, match="counted"):
        theta_series(lattice_catalog(name), order * GRID)


@pytest.mark.parametrize("name", ["Z5", "D6", "D12+", "E8", "E7", "E7E7+", "A15+"])
def test_charge_covers_the_coset_products(monkeypatch, name):
    # the charge past the blocks' own bounds covers every product of coset
    # counts that theta_series makes; the refusal at a budget of -1 reports it
    L = lattice_catalog(name)
    d = lcm(*(F(a).denominator for coset in L.cosets for _, a, _ in coset))
    blocks = {block for coset in L.cosets for block in coset}
    made, mul, budget = [], lattices._mul_truncated, lattices.THETA_BUDGET
    monkeypatch.setattr(lattices, "_mul_truncated",
                        lambda x, y, norm_max: made.append(len(x) * len(y)) or mul(x, y, norm_max))
    for trunc in (1, 7, 30, 144, 482):
        norm_max = d * d * (trunc - 1) // 24
        charged = sum(_block_work(_block_terms(a, d, norm_max), n, m, d, norm_max)[0]
                      for n, a, m in blocks)
        monkeypatch.setattr(lattices, "THETA_BUDGET", -1)
        with pytest.raises(EnumerationBudgetError) as refusal:
            theta_series(L, trunc)
        work = int(re.search(r"needs up to (\d+) products", str(refusal.value)).group(1))
        monkeypatch.setattr(lattices, "THETA_BUDGET", budget)
        made.clear()
        theta_series(L, trunc)
        assert 0 < sum(made) <= work - charged, (trunc, sum(made), work - charged)


def test_large_dimension_is_fast():
    start = time.perf_counter()
    th = theta_series(lattice_catalog("Z200"), 2 * GRID)
    assert th == theta_series(lattice_catalog("Z1"), 2 * GRID) ** 200
    assert time.perf_counter() - start < 1


def test_huge_order_fails_fast(capsys):
    start = time.perf_counter()
    assert main(["--order", "100000", "theta", "--lattice", "A15+"]) == 1
    assert "budget" in capsys.readouterr().err
    assert time.perf_counter() - start < 0.1


CROSS_CHECKS = [("D12+", 12), ("E7E7+", 14), ("A15+", 15)]


@pytest.mark.parametrize("name,c", CROSS_CHECKS)
def test_svoa_character_matches_extremal(name, c):
    L = lattice_catalog(name)
    trunc = int(-2 * F(c)) + 10 * GRID + 1  # through q^10 past the leading term
    x = svoa_character(L, trunc)
    sol = extremal_svoa(c)
    assert agree(x.truncate(trunc), sol.series)


def test_svoa_character_values():
    L = lattice_catalog("A15+")
    x = svoa_character(L, -30 + 2 * GRID + 1)
    base = -30
    assert [x.coeff(base + o) for o in (0, 48, 72, 96)] == [1, 255, 3640, 27525]


def test_leech_theta_matches_padded_route():
    L = lattice_catalog("Leech")
    for t in list(range(1, 150)) + [480, 481, 960]:
        assert theta_series(L, t) == old_routes.padded_leech_theta(t).truncate(t), t


@pytest.mark.parametrize("name", ["Z1", "Z8", "Z13", "E8", "D12+", "E7E7+", "A15+",
                                  "D16+"])
def test_svoa_character_matches_two_step_route(name):
    L = lattice_catalog(name)
    for t in (1, 2, 47, 48, 97, 4 * GRID):
        assert svoa_character(L, t) == old_routes.two_step_svoa_character(L, t), t


def test_lattice_names_are_one_list():
    # every fixed name resolves; a family name resolves at one member
    assert lattice_names() == list(LATTICE_NAMES)
    for name in LATTICE_NAMES:
        if "n" in name:
            assert lattice_catalog(name.replace("n", "8")).dim == 8
        else:
            assert lattice_catalog(name).dim == {"E8": 8, "E7": 7, "E7E7+": 14,
                                                 "A15+": 15, "Leech": 24}[name]
    assert ", ".join(LATTICE_NAMES) in lattice_catalog.__doc__
    with pytest.raises(ValueError, match=re.escape(", ".join(LATTICE_NAMES))):
        lattice_catalog("Q8")
