"""Extremal solutions, the inversion-formula cross-check, shadows and
verdicts."""

import re
import time
from fractions import Fraction as F

import pytest

import old_routes
from helpers import agree
from svoa import extremal
from svoa.extremal import (E_RANKS, ExtremalError, NotDecomposableError,
                           buermann_alpha, classify, classify_range,
                           decompose_character, extremal_svoa, extremal_voa,
                           hw_enumerator, orbifold_character, shadow)
from svoa.lattices import lattice_catalog, theta_series
from svoa.modrep import fusion_type
from svoa.qseries import GRID, QSeries, E4, delta, j_function, vacuum


def shadow_of(sol):
    return shadow(sol.c, sol.a, sol.series.trunc)


def series_rel(sol, offsets):
    base = int(-2 * sol.c)
    return [sol.series.coeff(base + o) for o in offsets]


# -- solutions -------------------------------------------------------------------


VOA_ROWS = {
    8: [1, 248, 4124, 34752, 213126, 1057504, 4530744],
    16: [1, 496, 69752, 2115008, 34670620, 394460000],
    24: [1, 0, 196884, 21493760, 864299970, 20245856256],
    32: [1, 0, 139504, 69332992, 6998296696, 330022830080],
    40: [1, 0, 20620, 86666240, 24243884350, 2347780456448],
    48: [1, 0, 1, 42987520, 40491909396, 8504046600192],
    72: [1, 0, 1, 1, 2593096794, 12756091394048, 9529321553850114],
}


@pytest.mark.parametrize("c", sorted(VOA_ROWS))
def test_extremal_voa_rows(c):
    sol = extremal_voa(c)
    row = VOA_ROWS[c]
    assert series_rel(sol, [GRID * n for n in range(len(row))]) == row
    assert sol.a[0] == 1
    assert sol.A[sol.k + 1] > 0
    assert sol.A[sol.k + 2] - sol.A[sol.k + 1] > 0


def test_extremal_voa_positivity_sweep():
    for c in range(8, 80, 8):
        sol = extremal_voa(c)
        assert sol.A[sol.k + 1] > 0
        assert sol.A[sol.k + 2] - sol.A[sol.k + 1] > 0


def test_extremal_voa_rank_errors():
    for bad in (7, 12, 0, F(1, 2)):
        with pytest.raises(ExtremalError):
            extremal_voa(bad)


def test_extremal_svoa_rows():
    b = extremal_svoa(F(47, 2))
    assert series_rel(b, [24 * n for n in range(7)]) == \
        [1, 0, 0, 4371, 96256, 1143745, 9646891]
    assert b.a == [1, -47, 0]
    d12 = extremal_svoa(12)
    assert series_rel(d12, [24 * n for n in range(8)]) == \
        [1, 0, 276, 2048, 11202, 49152, 184024, 614400]
    f4 = extremal_svoa(2)
    assert series_rel(f4, [24 * n for n in range(5)]) == [1, 4, 6, 8, 17]
    with pytest.raises(ExtremalError):
        extremal_svoa(F(1, 3))


def test_extremal_svoa_is_polynomial_character():
    # rank 12 solution is the theta quotient minus its constant: a = (1, -24)
    sol = extremal_svoa(12)
    assert sol.a == [1, -24]


# -- two independent routes ---------------------------------------------------------


def test_buermann_alpha1():
    for route in (buermann_alpha, old_routes.buermann_alpha):
        assert route(24, 1, "VOA") == -248 * 3
        assert route(48, 1, "VOA") == -248 * 6


@pytest.mark.parametrize("c,kind", [
    (24, "VOA"), (32, "VOA"), (48, "VOA"), (72, "VOA"),
    (F(47, 2), "SVOA"), (12, "SVOA"), (16, "SVOA"), (20, "SVOA"),
    (F(49, 2), "SVOA"), (30, "SVOA"),
])
def test_buermann_matches_linear_solve(c, kind):
    sol = extremal_voa(c) if kind == "VOA" else extremal_svoa(c)
    assert sol.k >= 1
    for r in range(1, sol.k + 1):
        assert buermann_alpha(c, r, kind) == sol.a[r], (c, r)
        assert old_routes.buermann_alpha(c, r, kind) == sol.a[r], (c, r)


def test_buermann_input_validation():
    for route in (buermann_alpha, old_routes.buermann_alpha):
        with pytest.raises(ValueError, match="r must be >= 1"):
            route(24, 0, "VOA")
        with pytest.raises(ValueError, match="kind must be VOA or SVOA"):
            route(24, 1, "XYZ")


def test_buermann_matches_derivative_loop():
    # every SVOA rank 8..56 with 1 <= r <= floor(c/8), every VOA rank 24..72
    # with 1 <= r <= floor(c/24): 355 coefficients
    items = [(F(h, 2), r, "SVOA") for h in range(16, 113) for r in range(1, h // 16 + 1)]
    items += [(c, r, "VOA") for c in range(24, 73, 8) for r in range(1, c // 24 + 1)]
    assert len(items) == 355
    for c, r, kind in items:
        assert buermann_alpha(c, r, kind) == old_routes.buermann_alpha(c, r, kind), \
            (c, r, kind)


def test_buermann_refuses_before_any_series(monkeypatch):
    def build(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(extremal, "vacuum", build)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="budget"):
        buermann_alpha(24, 10 ** 5, "VOA")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("c,r,kind", [
    (24, 1, "VOA"), (72, 3, "VOA"), (200, 5, "VOA"), (24, 200, "VOA"),
    (8, 1, "SVOA"), (56, 7, "SVOA"), (200, 40, "SVOA"), (56, 300, "SVOA"),
])
def test_buermann_charge_covers_its_series_work(monkeypatch, c, r, kind):
    # one charge, before the first series, covers every product and Miller
    # pass, and its span every operand's
    charged, spans = [], []
    monkeypatch.setattr(extremal, "check_work", lambda *args: charged.append(args))
    mul, miller = QSeries.__mul__, QSeries._miller
    monkeypatch.setattr(QSeries, "__mul__", lambda x, y: spans.append(
        max(x.trunc - x.lead, y.trunc - y.lead)) or mul(x, y))
    monkeypatch.setattr(QSeries, "_miller", lambda x, *args: spans.append(
        x.trunc - x.lead) or miller(x, *args))
    buermann_alpha(c, r, kind)
    [(products, span)] = charged
    assert len(spans) <= products and max(spans) <= span, (len(spans), max(spans))


# -- decomposition -------------------------------------------------------------------


def test_decompose_round_trip():
    for c, kind in ((24, "VOA"), (48, "VOA"), (F(47, 2), "SVOA"), (15, "SVOA")):
        sol = extremal_voa(c) if kind == "VOA" else extremal_svoa(c)
        assert decompose_character(sol.series, c, kind) == sol.a


def test_decompose_examples():
    j = j_function(480)
    assert decompose_character(j - QSeries.one(j.trunc).scale(744), 24, "VOA") == [1, -744]
    from svoa.qseries import cbrt_j
    assert decompose_character(cbrt_j(480), 8, "VOA") == [1]


def test_decompose_rejects_non_characters():
    x = vacuum(24, 480)  # not a polynomial in the generator
    with pytest.raises(NotDecomposableError):
        decompose_character(x, 24, "VOA")
    with pytest.raises(NotDecomposableError):
        decompose_character(j_function(480), 16, "VOA")  # wrong leading exponent


# -- shadows ------------------------------------------------------------------------


def test_shadow_values():
    # existence rank: stored expansion is twice the displayed module character
    rep12 = shadow_of(extremal_svoa(12))
    assert rep12.head() == [(F(1, 2), 24), (F(3, 2), 4096), (F(5, 2), 98304)]
    assert rep12.integral and rep12.nonneg
    # half-integral rank: the 1/sqrt(2)-normalized character itself
    rep = shadow_of(extremal_svoa(F(17, 2)))
    assert rep.head()[:2] == [(F(1, 16), F(17, 16)), (F(17, 16), F(3977, 16))]
    assert not rep.integral and rep.nonneg
    # integral rank beyond the existence range
    rep16 = shadow_of(extremal_svoa(16))
    assert rep16.head()[:2] == [(F(0), F(-15, 16)), (F(1), 527)]
    assert not rep16.integral and not rep16.nonneg
    rep20 = shadow_of(extremal_svoa(20))
    assert rep20.head()[:2] == [(F(1, 2), F(-35, 4)), (F(3, 2), 10310)]


def test_shadow_first_coeff_convention():
    assert shadow_of(extremal_svoa(F(49, 2))).first_coeff == F(1911, 2048)
    assert shadow_of(extremal_svoa(26)).first_coeff == F(377, 128)
    assert shadow_of(extremal_svoa(16)).first_coeff == F(-15, 16)


def test_shadow_reads_rank_coefficients_and_truncation():
    # no solve needed: the extremal rank-12 coefficients a = [1, -24] alone
    sol = extremal_svoa(12)
    assert sol.a == [1, -24]
    assert shadow(12, [1, -24], sol.series.trunc).B == shadow_of(sol).B


@pytest.mark.parametrize("c, a, trunc", [
    (F(1, 3), [1], 48),                # rank off the half-integer grid
    (F(12), [1], 48),                  # k = 1 needs a_0 and a_1
    (F(12), [1, -24, 0], 48),
    (F(12), [1, -24], -24),            # truncation at the lead
])
def test_shadow_rejects_inconsistent_inputs(c, a, trunc):
    with pytest.raises(ExtremalError):
        shadow(c, a, trunc)


def test_existence_shadows_clean():
    for c in sorted(E_RANKS):
        if c == 0:
            continue
        rep = shadow_of(extremal_svoa(c))
        assert rep.integral and rep.nonneg, c


# -- the per-kind routes as oracle -------------------------------------------------


def same_series(x, y):
    return x.coeffs == y.coeffs and x.trunc == y.trunc


def same_solution(new, old):
    assert (new.c, new.kind, new.k, new.a, new.A) == \
        (old.c, old.kind, old.k, old.a, old.A)
    assert same_series(new.series, old.series)


def same_decomposition(x, c, kind):
    try:
        old = old_routes.decompose_character(x, c, kind)
    except NotDecomposableError as exc:
        with pytest.raises(NotDecomposableError, match=re.escape(str(exc))):
            decompose_character(x, c, kind)
    else:
        assert decompose_character(x, c, kind) == old


def test_svoa_routes_match_oracle():
    for c in (F(n, 2) for n in range(1, 201)):
        sol = extremal_svoa(c)
        same_solution(sol, old_routes.extremal_svoa(c))
        new, old = shadow_of(sol), old_routes.shadow(sol)
        assert same_series(new.B, old.B)
        assert (new.c, new.s, new.first_coeff, new.integral, new.nonneg,
                new.first_negative, new.first_non_integral) == \
            (old.c, old.s, old.first_coeff, old.integral, old.nonneg,
             old.first_negative, old.first_non_integral), c
        same_decomposition(sol.series, c, "SVOA")
        same_decomposition(sol.series + QSeries({sol.series.trunc - 1: 1},
                                                sol.series.trunc),
                           c, "SVOA")


def test_voa_routes_match_oracle():
    for c in range(8, 241, 8):
        sol = extremal_voa(c)
        same_solution(sol, old_routes.extremal_voa(c))
        same_decomposition(sol.series, c, "VOA")
        same_decomposition(sol.series.truncate(sol.series.trunc - 2 * GRID),
                           c, "VOA")
        same_decomposition(sol.series, c, "SVOA")


def test_decompose_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        decompose_character(extremal_voa(8).series, 8, "XYZ")


# -- verdicts ------------------------------------------------------------------------


def test_classify_examples():
    v = classify(F(47, 2))
    assert v.status == "exists_known" and v.name == "VB"
    v20 = classify(20)
    assert v20.status == "ruled_out" and v20.arguments == frozenset("NG")
    assert classify(10).status == "conditional_L"
    v26 = classify(26)
    assert v26.status == "ruled_out" and v26.arguments == frozenset("G")
    assert v26.shadow.first_coeff == F(377, 128)


def test_classify_range_letters():
    # ranks strictly between 8 and 16
    letters = {F(17, 2): "G", F(9): "G", F(19, 2): "G", F(10): "L",
               F(21, 2): "G", F(11): "L", F(23, 2): "G", F(25, 2): "L",
               F(13): "L", F(27, 2): "L", F(29, 2): "L"}
    for c, want in letters.items():
        v = classify(c)
        if want == "L":
            assert v.status == "conditional_L", c
        else:
            assert v.status == "ruled_out" and v.arguments == frozenset(want), c


def test_classify_large_ranks_tail_signs():
    for c2 in range(96, 113):
        v = classify(F(c2, 2))
        assert v.status == "ruled_out"
        assert v.tail_signs is not None
        assert v.tail_signs[0] < 0 and v.tail_signs[1] < 0


def test_classify_bounds():
    with pytest.raises(ExtremalError):
        classify(57)
    with pytest.raises(ExtremalError):
        classify(-1)
    assert classify(0).status == "exists_known"


def test_classify_range_ordering():
    vs = classify_range(8, 10)
    assert [v.c for v in vs] == [F(8), F(17, 2), F(9), F(19, 2), F(10)]
    assert vs[0].to_json()["status"] == "exists_known"


def test_classify_range_rejects_empty_range():
    with pytest.raises(ExtremalError):
        classify_range(3, 1)


# -- highest-weight enumeration --------------------------------------------------------


def test_hw_enumerator_moonshine():
    sol = extremal_voa(24)
    h = hw_enumerator(sol.series, 24)
    # independent arithmetic: dim V_2 - 1 and dim V_3 - 1 - P_2
    assert h.P[F(2)] == 196884 - 1
    assert h.P[F(3)] == 21493760 - 1 - 196883
    assert h.mu == 2


def test_hw_enumerator_vacuum_and_errors():
    h = hw_enumerator(vacuum(24, 480), 24)
    assert h.mu is None
    assert all(v == 0 for w, v in h.P.items() if w >= F(1, 2))
    with pytest.raises(ValueError):
        hw_enumerator(vacuum(24, 480), F(1, 2))
    bad = vacuum(24, 480) - QSeries({0: 1}, 480)
    with pytest.raises(ValueError):
        hw_enumerator(bad, 24)


def test_minimal_weight_bound_for_extremal():
    for c in (8, 16, 24, 32, 48):
        sol = extremal_voa(c)
        h = hw_enumerator(sol.series, c)
        assert h.mu >= sol.k + 1
        assert h.P[F(sol.k + 1)] == sol.A[sol.k + 1]


def test_extremal_existence_ranks_no_low_states():
    # extremality kills the weight-1/2 states from rank 8 on and the
    # weight-1 states from rank 16 on (the known rank-8..15.5 theories all
    # keep their weight-1 current algebras)
    expected_dim1 = {F(8): 248, F(12): 276, F(14): 266, F(15): 255,
                     F(31, 2): 248, F(47, 2): 0}
    for c, dim1 in expected_dim1.items():
        sol = extremal_svoa(c)
        h = hw_enumerator(sol.series, c)
        assert h.P.get(F(1, 2), 0) == 0
        assert h.P.get(F(1), 0) == dim1
        if c >= 16:
            assert h.P.get(F(1), 0) == 0


# -- orbifold and fusion type ------------------------------------------------------------


def test_orbifold_moonshine():
    T = 480
    theta = E4(T) ** 3 - delta(T).scale(720)
    assert theta.coeff(0) == 1 and theta.coeff(48) == 0
    assert theta.coeff(96) == 196560
    x = orbifold_character(theta, 24)
    target = j_function(T) - QSeries.one(T).scale(744)
    assert agree(x.truncate(5 * GRID), target)
    assert x.coeff(0) == 0


def test_orbifold_leading_coefficient():
    T = 480
    theta = (E4(T)) ** 2  # some weight-8 theta-like series (E8+E8)
    x = orbifold_character(theta, 16)
    assert x.coeff(x.lead) == 1
    with pytest.raises(ValueError):
        orbifold_character(theta, 12)


@pytest.mark.parametrize("name", ["Leech", "D16+", "E8", "D8+"])
def test_orbifold_matches_oracle(name):
    L = lattice_catalog(name)
    for order in range(2, 11):
        theta = theta_series(L, order * GRID)
        new = orbifold_character(theta, L.dim)
        old = old_routes.orbifold_character(theta, L.dim)
        assert (new.coeffs, new.trunc) == (old.coeffs, old.trunc), (name, order)


def test_fusion_type():
    assert fusion_type(F(47, 2)) == "a"
    assert fusion_type(1) == "b"
    assert fusion_type(24) == "c"
    assert fusion_type(F(1, 2)) == "a"
