"""Invariant polynomials, the group action, and the weight-enumerator solve."""

import random
from fractions import Fraction

import pytest

import old_routes
from helpers import agree
from svoa import invariants
from svoa.cyclo import power, sqrt2, zeta_pow
from svoa.invariants import (ConstraintError, DEFAULT_CONSTRAINTS, MultiPoly,
                             basis_invariants, check_invariance,
                             degree48_basis, evaluate_at_characters,
                             monster_polynomial, poly_act,
                             solve_monster_polynomial)
from svoa.linalg import gauss_jordan
from svoa.modrep import CycMatrix, character_rep
from svoa.qseries import QSeries, j_function


def basis_rank():
    """Rank of the coefficient matrix of the degree-48 basis (linear
    independence check)."""
    basis = degree48_basis()
    monomials = sorted(set().union(*[set(b.terms) for b in basis]))
    rows = [[b.terms.get(m, 0) for b in basis] for m in monomials]
    return len(gauss_jordan(rows)[1])


def test_multipoly_arithmetic():
    a = MultiPoly({(1, 0, 0): 1})
    b = MultiPoly({(0, 1, 0): 1})
    p = (a + b) ** 2
    assert p.coeff(2, 0, 0) == 1 and p.coeff(1, 1, 0) == 2
    assert ((a + b) * (a - b)).coeff(1, 1, 0) == 0
    assert p.degree() == 2 and p.is_homogeneous()
    assert not (p + MultiPoly.constant(1)).is_homogeneous()


def test_basis_polynomials_printed_values():
    p1, p2, p3, p4 = basis_invariants()
    assert p1.coeff(2, 0, 1) == 1 and p1.coeff(0, 2, 1) == -1
    assert p2.coeff(23, 1, 0) == -1
    assert p2.coeff(8, 8, 8) == -25740
    assert p3.coeff(0, 0, 24) == -256
    assert p3.coeff(13, 11, 0) == 312018
    assert p4.coeff(0, 0, 48) == 128 ** 3
    assert p4.coeff(48, 0, 0) == 1


def test_diagonal_action_phase():
    T, _ = character_rep(Fraction(1, 2))
    m = MultiPoly({(5, 2, 7): 1})
    res = poly_act(T, m)
    i, j, k = 5, 2, 7
    assert res.terms == {(5, 2, 7): zeta_pow(-(i + j + k) + 24 * j + 3 * k)}


def test_action_matches_brute_force():
    T, S = character_rep(Fraction(1, 2))
    rng = random.Random(11)

    def brute(g, P):
        imgs = [MultiPoly({(1, 0, 0): g.rows[s][0], (0, 1, 0): g.rows[s][1],
                           (0, 0, 1): g.rows[s][2]}) for s in range(3)]
        acc = MultiPoly.zero()
        for (i, j, k), c in P.terms.items():
            acc = acc + ((imgs[0] ** i) * (imgs[1] ** j) * (imgs[2] ** k)).scale(c)
        return acc

    for g in (S, T, S * T, T * S):
        for _ in range(3):
            P = MultiPoly({(rng.randint(0, 3), rng.randint(0, 3),
                            rng.randint(0, 3)): rng.randint(-5, 5)
                           for _ in range(4)})
            assert poly_act(g, P) == brute(g, P)


def test_identity_action():
    _, S = character_rep(Fraction(1, 2))
    p1 = basis_invariants()[0]
    assert poly_act(power(S, 4), p1) == p1


def test_generators_fix_the_invariants(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    for p in basis_invariants():
        assert poly_act(S, p) == p
        assert poly_act(T, p) == p
    assert check_invariance()
    a = MultiPoly({(1, 0, 0): 1})
    monkeypatch.setattr(invariants, "basis_invariants", lambda: (a, a, a, a))
    with pytest.raises(ArithmeticError, match="not fixed"):
        check_invariance()


def test_basis_linearly_independent():
    assert basis_rank() == 7


def test_solution_published_coefficients():
    P = monster_polynomial()
    assert monster_polynomial() is P  # solved once, then cached
    spots = {(48, 0, 0): 1, (44, 4, 0): 804, (42, 6, 0): 10560,
             (40, 8, 0): 174306, (24, 24, 0): 7891186524,
             (37, 3, 8): 1536, (21, 19, 8): 33843588096,
             (30, 2, 16): 16512, (16, 16, 16): 18596004864,
             (23, 1, 24): 168960, (13, 11, 24): 17642698752,
             (16, 0, 32): 9024, (8, 8, 32): 102007680,
             (7, 1, 40): 135168, (5, 3, 40): 946176,
             (0, 0, 48): 2048}
    for m, v in spots.items():
        assert P.coeff(*m) == v, m
    # nonnegative integers throughout, top coefficients 1
    assert all(isinstance(c, int) and c > 0 for c in P.terms.values())
    assert P.coeff(48, 0, 0) == 1 and P.coeff(0, 48, 0) == 1


def test_solution_symmetric_in_ab():
    P = monster_polynomial()
    for (i, j, k), c in P.terms.items():
        assert P.coeff(j, i, k) == c


def test_degree3_relation():
    P = monster_polynomial()
    assert P.coeff(7, 1, 40) == 9 * 2 ** 14 - 6 * P.coeff(0, 0, 48)


def test_solver_errors():
    with pytest.raises(ConstraintError):
        solve_monster_polynomial(DEFAULT_CONSTRAINTS[:5])
    bad = list(DEFAULT_CONSTRAINTS)
    bad[0] = ((47, 0, 0), 1)
    with pytest.raises(ConstraintError):
        solve_monster_polynomial(bad)
    # degenerate: same monomial twice
    dup = list(DEFAULT_CONSTRAINTS)
    dup[1] = dup[0]
    with pytest.raises(ConstraintError):
        solve_monster_polynomial(dup)
    # every basis product is a<->b symmetric, so a mirrored monomial repeats a row
    mirrored = list(DEFAULT_CONSTRAINTS[:-1]) + [((4, 44, 0), 804)]
    with pytest.raises(ConstraintError, match="singular"):
        solve_monster_polynomial(mirrored)
    wrong = list(DEFAULT_CONSTRAINTS) + [((24, 24, 0), 1)]
    with pytest.raises(ConstraintError, match="inconsistent"):
        solve_monster_polynomial(wrong)
    # consistent alternative constraint drawn from the solution still works
    P = monster_polynomial()
    alt = list(DEFAULT_CONSTRAINTS[:-1]) + [((24, 24, 0), P.coeff(24, 24, 0))]
    P2 = solve_monster_polynomial(alt)
    assert P2 == P


def test_evaluate_at_characters():
    trunc = 480
    P = monster_polynomial()
    j = j_function(trunc)
    assert agree(evaluate_at_characters(P, trunc), j - QSeries.one(trunc).scale(744))
    p4 = basis_invariants()[3]
    assert agree(evaluate_at_characters(p4, trunc), j)
    # degree-1 sanity: a evaluates to the weight-0 character
    from svoa.qseries import chi_ising_0
    a = MultiPoly({(1, 0, 0): 1})
    assert agree(evaluate_at_characters(a, trunc), chi_ising_0(trunc))


def test_json_dump():
    P = monster_polynomial()
    rows = P.to_json()
    assert rows == sorted(rows)
    assert MultiPoly.from_json(rows) == P


def test_basis_products_invariant():
    # every element of the degree-48 basis is itself fixed by the group
    T, S = character_rep(Fraction(1, 2))
    for b in degree48_basis()[:3]:
        assert poly_act(T, b) == b


@pytest.mark.parametrize("gname", ["S", "ST", "TS"])
def test_poly_act_matches_push_style_shear(gname, monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    g = {"S": S, "ST": S * T, "TS": T * S}[gname]
    _, p2, p3, p4 = basis_invariants()
    fused = [poly_act(g, p) for p in (p2, p3, p4)]
    monkeypatch.setattr(invariants, "_shear", old_routes.shear)
    assert fused == [poly_act(g, p) for p in (p2, p3, p4)]


def test_shear_matches_push_style_shear():
    rng = random.Random(1152)
    _, p2, p3, p4 = basis_invariants()
    lams = [zeta_pow(7), zeta_pow(6) + zeta_pow(42), Fraction(-3, 4), 5,
            zeta_pow(12) * Fraction(1, 2) + Fraction(1, 3)]
    cyc = MultiPoly({(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)):
                     zeta_pow(rng.randrange(48)) * rng.randint(-9, 9)
                     for _ in range(12)})
    for P in (p2, p3, cyc, MultiPoly.zero()):
        for s, t in ((0, 1), (1, 0), (2, 0), (1, 2)):
            for lam in lams:
                assert invariants._shear(P, s, t, lam) == old_routes.shear(P, s, t, lam)
    assert invariants._shear(p4, 2, 0, lams[1]) == old_routes.shear(p4, 2, 0, lams[1])


def test_balance_of_rank_half_s():
    _, S = character_rep(Fraction(1, 2))
    a, core, b = invariants._balance(S)
    r2 = sqrt2()
    assert a == [1, 1, r2]
    assert b == [Fraction(1, 2), Fraction(1, 2), r2 * Fraction(1, 2)]
    assert core == [[1, 1, 1], [1, 1, -1], [1, -1, 0]]
    assert CycMatrix([[x * y * z for y, z in zip(r, b)] for x, r in zip(a, core)]) == S


@pytest.mark.parametrize("gname", ["S", "T", "ST", "TS"])
def test_poly_act_matches_plu_route_on_basis(gname):
    T, S = character_rep(Fraction(1, 2))
    g = {"S": S, "T": T, "ST": S * T, "TS": T * S}[gname]
    for p in basis_invariants():
        assert poly_act(g, p) == old_routes.poly_act_plu(g, p)


def _irrational_core(g):
    return any(not x.is_rational() for r in invariants._balance(g)[1] for x in r)


def test_poly_act_matches_plu_route_on_group_elements():
    # 24 seeded words in S and T: 20 with a rational core R and 4 with an
    # irrational one, whose shears take the `dot` branch of `_shear`
    T, S = character_rep(Fraction(1, 2))
    rng = random.Random(48)
    rational, irrational = [], []
    while len(rational) < 20 or len(irrational) < 4:
        g = CycMatrix.identity(3)
        for _ in range(rng.randint(1, 10)):
            g = g * rng.choice((S, T))
        (irrational if _irrational_core(g) else rational).append(g)
    p2 = basis_invariants()[1]
    for g in rational[:20] + irrational[:4]:
        assert poly_act(g, p2) == old_routes.poly_act_plu(g, p2)


def test_poly_act_matches_plu_route_on_fraction_matrix():
    rng = random.Random(3)
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                for _ in range(3)]
        rows[0][0] = 0  # forces a row swap in the PLU step
        try:
            CycMatrix(rows).inv()
            break
        except ZeroDivisionError:
            continue
    g = CycMatrix(rows)
    P = MultiPoly({(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)):
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)})
    for p in (P, basis_invariants()[0]):
        assert poly_act(g, p) == old_routes.poly_act_plu(g, p)


@pytest.mark.parametrize("core", [
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # cyclic: swaps (0 2), then (1 2)
    [[0, 0, 1], [1, 1, 0], [2, 3, 1]],  # swap, a shear, then another swap
])
def test_poly_act_matches_plu_route_when_both_columns_pivot(core):
    # the elimination swaps rows at columns 0 and 1, so swaps and shears
    # interleave as poly_act applies them
    rng = random.Random(17)
    diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
            for _ in range(3)]
    g = CycMatrix([[x * d for x, d in zip(r, diag)] for r in core])
    P = MultiPoly({(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)):
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)})
    for p in basis_invariants() + (P,):
        assert poly_act(g, p) == old_routes.poly_act_plu(g, p)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],   # dependent rows, no zero row or column
    [[0, 0, 0], [1, 1, 0], [0, 1, 1]],   # zero row, no zero column
    [[1, 0, 2], [3, 0, 1], [0, 0, 1]],   # zero column
])
def test_singular_matrix_raises_on_both_routes(rows):
    g = CycMatrix(rows)
    p1 = basis_invariants()[0]
    for act in (poly_act, old_routes.poly_act_plu):
        with pytest.raises(ZeroDivisionError, match="singular substitution matrix"):
            act(g, p1)
