"""Modular representation matrices, group closure, Molien series, fusion."""

import time
from fractions import Fraction
from math import lcm

import pytest

import old_routes
from helpers import element_dets
from svoa import modrep
from svoa.cyclo import Cyclo, cyc_one, dot, power, sqrt2, zeta_pow
from svoa.modrep import (CycMatrix, MatrixGroup, _check_relations, _diag_matrix,
                         char_classes, character_rep, generate_group, molien,
                         verlinde)
from svoa.qseries import GRID


def test_half_integer_rep_entries():
    T, S = character_rep(Fraction(1, 2))
    assert T.rows[0][0] == zeta_pow(-1)
    assert T.rows[1][1] == zeta_pow(23)
    assert T.rows[2][2] == zeta_pow(2)
    half = Fraction(1, 2)
    s = sqrt2() * half
    assert S.rows[0] == (half, half, s) or list(S.rows[0]) == [half, half, s]
    assert S.rows[2][2] == 0


def test_integer_rank_cases():
    T1, S1 = character_rep(1)
    assert S1.n == 4
    i_half = zeta_pow(12) * Fraction(1, 2)
    assert S1.rows[2][2] in (i_half, -i_half)
    T2, S2 = character_rep(2)
    assert S2.rows[2][2] in (Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        character_rep(Fraction(1, 3))


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3, 2), Fraction(47, 2),
                               1, 3, 2, 4, 24])
def test_modular_relations_all_cases(c):
    T, S = character_rep(c)
    ST = S * T
    assert power(S, 4).is_identity()
    assert S * S == power(ST, 3)
    assert power(ST, 6).is_identity()
    # S symmetric, S^2 a permutation matrix
    assert S.rows == tuple(zip(*S.rows))
    S2 = S * S
    for row in S2.rows:
        nonzero = [x for x in row if not x.is_zero()]
        assert len(nonzero) == 1 and nonzero[0] == 1


def test_group_orders():
    ident = CycMatrix.identity(3)
    assert generate_group([ident]).order == 1
    T, S = character_rep(Fraction(1, 2))
    # order of the diagonal generator found by brute force on its entries
    assert generate_group([T]).order == 48
    G = generate_group([S, T])
    assert G.order == 1152


def test_singular_generator_is_rejected():
    # its closure would be {1, g} with g^2 = g, and Molien would read 3/2 at t^1
    with pytest.raises(ValueError, match="generator 1 is singular"):
        generate_group([CycMatrix.identity(2), CycMatrix([[1, 0], [0, 0]])])


def test_group_cap(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    monkeypatch.setattr(modrep, "CLOSURE_CAP", 100)
    with pytest.raises(RuntimeError):
        generate_group([S, T])


def test_molien_trivial_group():
    triv = generate_group([CycMatrix.identity(3)])
    rho = molien(triv, 6)
    assert [rho.coeff(GRID * k) for k in range(5)] == [1, 3, 6, 10, 15]


def test_molien_rejects_negative_degree():
    triv = generate_group([CycMatrix.identity(3)])
    with pytest.raises(ValueError):
        molien(triv, -1)


def test_molien_character_group():
    T, S = character_rep(Fraction(1, 2))
    G = generate_group([S, T])
    rho = molien(G, 48)
    coeffs = [rho.coeff(GRID * k) for k in range(49)]
    assert all(coeffs[k] == 1 for k in range(0, 22, 3))
    assert all(coeffs[k] == 3 for k in range(24, 46, 3))
    assert coeffs[48] == 7
    assert all(coeffs[k] == 0 for k in range(49) if k % 3)
    # Molien coefficients are nonnegative integers
    assert all(Fraction(x).denominator == 1 and x >= 0 for x in coeffs)


def test_verlinde_ising():
    _, S = character_rep(Fraction(1, 2))
    F = verlinde(S)
    assert F.N[1][1] == (1, 0, 0)       # eps x eps = vac
    assert F.N[1][2] == (0, 0, 1)       # eps x sigma = sigma
    assert F.N[2][2] == (1, 1, 0)       # sigma x sigma = vac + eps


def test_verlinde_cyclic4():
    _, S = character_rep(1)
    F = verlinde(S)
    # group ring of Z/4 under 0->0, 1->2, 2->1, 3->3 (the odd part squares
    # to the vacuum, the twisted objects generate)
    label = {0: 0, 1: 2, 2: 1, 3: 3}
    for i in range(4):
        for j in range(4):
            expect = [0, 0, 0, 0]
            for k in range(4):
                if (label[i] + label[j]) % 4 == label[k]:
                    expect[k] = 1
            assert list(F.N[i][j]) == expect, (i, j)


def test_verlinde_klein_four():
    _, S = character_rep(2)
    F = verlinde(S)
    label = {0: (0, 0), 1: (1, 1), 2: (1, 0), 3: (0, 1)}
    for i in range(4):
        for j in range(4):
            target = (label[i][0] ^ label[j][0], label[i][1] ^ label[j][1])
            expect = [1 if label[k] == target else 0 for k in range(4)]
            assert list(F.N[i][j]) == expect, (i, j)


def test_verlinde_rejects_non_fusion_matrix():
    bad = CycMatrix([[1, 1], [1, Fraction(1, 3)]])
    with pytest.raises(ValueError):
        verlinde(bad)


def test_quantum_dimensions():
    _, S = character_rep(Fraction(1, 2))
    # the ratios S_i0 / S_00
    qd = [S.rows[i][0] / S.rows[0][0] for i in range(S.n)]
    assert qd[0] == 1 and qd[1] == 1
    assert qd[2] == sqrt2()
    for c in (1, 2):
        _, S4 = character_rep(c)
        assert all(S4.rows[i][0] / S4.rows[0][0] == 1 for i in range(S4.n))


def test_matrix_inverse():
    for c in (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(47, 2)):
        T, S = character_rep(c)
        assert (S * S.inv()).is_identity()
        assert (T * T.inv()).is_identity()
    with pytest.raises(ZeroDivisionError):
        CycMatrix([[1, 2], [2, 4]]).inv()


def test_relations_take_five_products(monkeypatch):
    count = [0]
    mul = CycMatrix.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(CycMatrix, "__mul__", counted)
    for c in (Fraction(1, 2), 1, 2):
        count[0] = 0
        T, S = character_rep(c)  # checks the relations at every rank
        assert count[0] == 5
        count[0] = 0
        _check_relations(S, T)
        assert count[0] == 5


def test_broken_relations_are_arithmetic_errors():
    with pytest.raises(ArithmeticError, match="modular relations"):
        _check_relations(CycMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         CycMatrix.identity(3))


RANKS_MOD_24 = [Fraction(n, 2) for n in range(48)]


@pytest.mark.parametrize("c", RANKS_MOD_24)
def test_closed_form_sign_matches_sign_search(c):
    # S_22 = e^(-pi i c/2)/2 is the variant the search over both signs picked
    T, S = character_rep(c)
    oldT, oldS = old_routes.character_rep(c)
    assert (T, S) == (oldT, oldS)
    if S.n == 4:
        assert S.rows[2][2] == zeta_pow(-12 * int(c)) * Fraction(1, 2)
        # the other sign of the twisted block breaks the relations
        flip = [list(r) for r in S.rows]
        for i in (2, 3):
            for j in (2, 3):
                flip[i][j] = -flip[i][j]
        with pytest.raises(ArithmeticError, match="modular relations"):
            _check_relations(CycMatrix(flip), T)


# -- the fused kernel against the per-operation routes ---------------------------


def _coordinates(rows):
    return tuple(tuple((x.num, x.den) for x in r) for r in rows)


# one rank per group order
_ORDERS = {Fraction(1, 2): 1152, 1: 576, Fraction(3, 2): 384, 2: 72,
           Fraction(47, 2): 1152, 0: 6, 4: 18, 6: 24, 3: 192}


def _group(pairs):
    """The MatrixGroup of (CycMatrix, det) pairs, interned as a closure would."""
    entries, rows, values, elements = {}, {}, {}, {}
    for g, d in pairs:
        m = tuple(rows.setdefault(tuple(entries.setdefault(x, len(entries)) for x in r),
                                  len(rows)) for r in g.rows)
        elements[m] = values.setdefault(Cyclo.coerce(d), len(values))
    return MatrixGroup(tuple(entries), tuple(rows), tuple(values), elements)


def _assert_closure_matches(gens, order):
    G = generate_group(gens)
    oracle = old_routes.generate_group([old_routes.dense_matrix(g) for g in gens])
    assert G.order == order
    assert {_coordinates(g.rows) for g in element_dets(G)} == {_coordinates(g) for g in oracle}


@pytest.mark.parametrize("c", list(_ORDERS))
def test_group_elements_match_triple_loop_closure(c):
    T, S = character_rep(c)
    _assert_closure_matches([S, T], _ORDERS[c])


_OTHER_SETS = ["[T, S]", "[S, T, S*T]", "signed permutations", "identity",
               "4x4 diagonal"]


def _generators(case):
    """(generators, group order) for a rank in _ORDERS or a name in _OTHER_SETS."""
    if case not in _OTHER_SETS:
        T, S = character_rep(case)
        return [S, T], _ORDERS[case]
    T, S = character_rep(Fraction(1, 2))
    T1, S1 = character_rep(1)
    i = zeta_pow(12)
    return {
        "[T, S]": ([T, S], 1152),
        "[S, T, S*T]": ([S1, T1, S1 * T1], 576),
        "signed permutations": ([CycMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                                 CycMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                 CycMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])], 48),
        "identity": ([CycMatrix.identity(3)], 1),
        # diag(1, 1, -1, -1) and diag(i, -i, i, -i) share det 1 and trace 0
        # but not e_2 (-2 against 2)
        "4x4 diagonal": ([_diag_matrix([1, 1, -1, -1]), _diag_matrix([i, -i, i, -i])], 8),
    }[case]


@pytest.mark.parametrize("name", _OTHER_SETS)
def test_other_generator_sets_match_triple_loop_closure(name):
    _assert_closure_matches(*_generators(name))


@pytest.mark.parametrize("case", list(_ORDERS) + _OTHER_SETS)
def test_carried_determinants_match_cofactor_expansion(case):
    for g, d in element_dets(generate_group(_generators(case)[0])).items():
        oracle = old_routes.det(old_routes.dense_matrix(g))
        assert (d.num, d.den) == (oracle.num, oracle.den)


@pytest.mark.parametrize("case", list(_ORDERS) + _OTHER_SETS)
def test_upper_coefficients_are_conjugates_of_lower(case):
    # eigenvalues are roots of unity: e_{n-k} = det * sigma_-1(e_k), here
    # with e_k the sums of principal minors of the cofactor route
    for g, d in element_dets(generate_group(_generators(case)[0])).items():
        e = [cyc_one()] + [x.cyclo() for x in old_routes.minors(old_routes.dense_matrix(g))]
        assert all(e[g.n - k] == d * e[k].sigma(-1) for k in range(g.n + 1))


@pytest.mark.parametrize("case", list(_ORDERS) + _OTHER_SETS)
def test_class_tally_matches_per_element_minors(case):
    G = generate_group(_generators(case)[0])
    oracle = old_routes.char_classes([old_routes.dense_matrix(g) for g in element_dets(G)])
    assert ({_coordinates([cs]): k for cs, k in char_classes(G).items()}
            == {_coordinates([cs]): k for cs, k in oracle.items()})


@pytest.mark.parametrize("case", list(_ORDERS) + _OTHER_SETS)
def test_closure_and_tally_match_the_dot_routes(case):
    # the same elements, determinants and classes, bit for bit, as the
    # closure and tally that took a dot per new entry and per element
    G = generate_group(_generators(case)[0])
    dets = old_routes.dot_closure(_generators(case)[0])
    assert element_dets(G) == dets
    assert all((d.terms, d.den) == (dets[g].terms, dets[g].den)
               for g, d in element_dets(G).items())
    assert char_classes(G) == old_routes.power_sum_classes(dets)


def test_group_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        generate_group([CycMatrix.identity(3), CycMatrix.identity(4)])


def _record_widths(monkeypatch):
    """The set that collects every width modrep._width returns from now on."""
    used, width = set(), modrep._width

    def recorded(*args):
        bits = width(*args)
        used.add(bits)
        return bits

    monkeypatch.setattr(modrep, "_width", recorded)
    return used


@pytest.mark.parametrize("rows, widths", [
    ([[1, 1], [0, 1]], 1),
    ([[2, 1], [1, 1]], 4),
    ([[Fraction(1, 2)]], 4),
    ([[2]], 4),
], ids=["unipotent", "fibonacci", "half", "two"])
def test_group_cap_bounds_infinite_closure(monkeypatch, rows, widths):
    # entries growing without bound: the images widen as they grow, at least
    # `widths` times, and stay exact up to the cap
    monkeypatch.setattr(modrep, "CLOSURE_CAP", 500)
    used = _record_widths(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="cap 500"):
        generate_group([CycMatrix(rows)])
    assert time.perf_counter() - start < 1
    assert len(used) > widths


# every rank of _ORDERS; the first four lead, as their ids did before the rest
@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3, 2), 1, 2,
                               Fraction(47, 2), 0, 4, 6, 3])
def test_molien_matches_per_operation_route(c):
    T, S = character_rep(c)
    G = generate_group([S, T])
    rho = molien(G, 100)
    elements = [old_routes.dense_matrix(g) for g in element_dets(G)]
    assert [rho.coeff(GRID * k) for k in range(101)] == old_routes.molien(elements, 100)


def test_molien_rejects_a_set_that_is_not_a_group():
    signs = [(CycMatrix.identity(3), 1),
             (CycMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]), -1),
             (CycMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), -1)]
    # (1/3)(1/(1-t)^3 + 2/((1-t)^2 (1+t))) = 1 + 5/3 t + ..., on both routes
    for route in (molien, old_routes.dot_molien):
        with pytest.raises(ArithmeticError, match="5/3 of t\\^1"):
            route(_group(signs), 4)


def test_molien_reports_a_nonreal_sum_as_the_dot_recurrence_does():
    # 1 - 1 - i at t^1: a negative coordinate, read from the balanced residue
    units = _group([(CycMatrix([[1]]), 1), (CycMatrix([[-1]]), -1),
                    (CycMatrix([[zeta_pow(36)]]), zeta_pow(36))])
    for route in (molien, old_routes.dot_molien):
        with pytest.raises(ValueError, match=r"not a rational element: \(-1\*z\^12\)"):
            route(units, 3)


def test_molien_rejects_an_empty_group():
    with pytest.raises(ValueError, match="no elements"):
        molien(_group([]), 3)


def test_molien_rejects_coefficients_off_the_algebraic_integers():
    # [[1/2]] has infinite order: its characteristic polynomial 1 - t/2 has
    # no image in Z/Phi_48(2^B)
    halves = _group([(CycMatrix([[1]]), 1), (CycMatrix([[Fraction(1, 2)]]), Fraction(1, 2))])
    with pytest.raises(ArithmeticError, match="not a finite group"):
        molien(halves, 2)


def _closed_form(maxdeg):
    """(1 + t^24 + t^48)/((1 - t^3)(1 - t^24)(1 - t^48)) to t^maxdeg."""
    coeffs = [1 if k in (0, 24, 48) else 0 for k in range(maxdeg + 1)]
    for d in (3, 24, 48):
        for k in range(d, maxdeg + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(47, 2)])
def test_molien_matches_closed_form_to_degree_1000(c):
    T, S = character_rep(c)
    rho = molien(generate_group([S, T]), 1000)
    assert [rho.coeff(GRID * k) for k in range(1001)] == _closed_form(1000)


@pytest.mark.parametrize("c", [Fraction(1, 2), 1, Fraction(3, 2), 2])
def test_molien_matches_dot_recurrence(c):
    T, S = character_rep(c)
    G = generate_group([S, T])
    rho = molien(G, 400)
    assert [rho.coeff(GRID * k) for k in range(401)] == old_routes.dot_molien(G, 400)


def test_a_narrowed_digit_width_breaks_molien(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    G = generate_group([S, T])
    oracle = old_routes.dot_molien(G, 400)
    # a degree's sum over the group is |G| m_d, read as a base-2^B digit
    # that must stay below 2^(B-1)
    narrow = int(G.order * max(oracle)).bit_length()
    assert narrow < modrep._digit_bits(G.order, 3, 400)
    monkeypatch.setattr(modrep, "_digit_bits", lambda order, n, maxdeg: narrow)
    try:
        rho = molien(G, 400)
    except (ArithmeticError, ValueError):
        return
    assert [rho.coeff(GRID * k) for k in range(401)] != oracle


def test_a_narrowed_closure_width_breaks_the_closure(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    oracle = old_routes.generate_group([old_routes.dense_matrix(g) for g in (S, T)])
    used = _record_widths(monkeypatch)
    generate_group([S, T])
    # X = 8: D = 4 times an entry reaches a coordinate of 4, past a balanced digit
    narrow = 3
    assert narrow < min(used)
    monkeypatch.setattr(modrep, "_width", lambda bits, bound, den: narrow)
    try:
        G = generate_group([S, T])
    except (ArithmeticError, ValueError, RuntimeError):
        return
    assert {_coordinates(g.rows) for g in element_dets(G)} != {_coordinates(g) for g in oracle}


def test_a_narrowed_class_width_breaks_the_tally(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    G = generate_group([S, T])
    oracle = old_routes.char_classes([old_routes.dense_matrix(g) for g in element_dets(G)])
    # the entries' denominators divide D = 2, and the traces' coordinates
    # over D stay below 2 n D = 12; X = 8 leaves them no room
    narrow = 3
    assert lcm(*[x.den for x in G.entries]) == 2
    assert narrow < modrep._width(2, 12, 2)
    monkeypatch.setattr(modrep, "_width", lambda bits, bound, den: narrow)
    try:
        classes = char_classes(G)
    except (ArithmeticError, ValueError):
        return
    assert ({_coordinates([cs]): k for cs, k in classes.items()}
            != {_coordinates([cs]): k for cs, k in oracle.items()})


def test_width_skips_a_modulus_sharing_a_prime_with_the_denominator():
    # Phi_48(2^4) = 2^64 - 2^32 + 1 is prime; at width 8 it is a unit
    p = 2 ** 64 - 2 ** 32 + 1
    assert modrep._modulus(4) == p
    assert modrep._width(4, 1, p) == 8
    assert modrep._width(4, 1, 3 * 5 * 7 * 97) == 4


def test_classes_of_a_group_over_an_odd_prime():
    # a reflection with an entry over 97: the images invert 97 mod N, and
    # the class keys read p_1 back over D = 97
    g = CycMatrix([[-1, Fraction(2, 97)], [0, 1]])
    G = generate_group([g])
    assert G.order == 2
    assert char_classes(G) == old_routes.power_sum_classes(element_dets(G))
    rho = molien(G, 10)
    assert [rho.coeff(GRID * k) for k in range(11)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]


def test_classes_at_dimension_six_take_a_matrix_product():
    # n = 6 keys p_3 = tr(g^2 g), the one case with a product of images
    cycle = CycMatrix([[1 if j == (i + 1) % 6 else 0 for j in range(6)] for i in range(6)])
    G = generate_group([cycle, _diag_matrix([-1] * 6)])
    assert G.order == 12
    assert char_classes(G) == old_routes.power_sum_classes(element_dets(G))
    rho = molien(G, 12)
    elements = [old_routes.dense_matrix(g) for g in element_dets(G)]
    assert [rho.coeff(GRID * k) for k in range(13)] == old_routes.molien(elements, 12)


def test_closure_and_molien_dot_counts(monkeypatch):
    # exact work counts at rank 1/2: the closure sums on images, decoding
    # each new entry once, and Molien's one dot per class is its Newton sum
    count, decodes = [0], [0]

    def counted(*args):
        count[0] += 1
        return dot(*args)

    def decoded(*args):
        decodes[0] += 1
        return decode(*args)

    decode = modrep._decode
    T, S = character_rep(Fraction(1, 2))
    monkeypatch.setattr(modrep, "dot", counted)
    monkeypatch.setattr(modrep, "_decode", decoded)
    G = generate_group([S, T])
    # every entry but the identity's one and zero is decoded once
    assert (count[0], decodes[0], len(G.entries)) == (0, 239, 241)
    count[0] = 0
    molien(G, 48)
    assert count[0] == 70


def test_matrix_powers_skip_identity_products(monkeypatch):
    T, S = character_rep(Fraction(1, 2))
    ST = S * T
    count = [0]
    mul = CycMatrix.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(CycMatrix, "__mul__", counted)
    for base, k, products in ((S, 4, 2), (ST, 6, 3), (ST, 3, 2), (S, 1, 0)):
        count[0] = 0
        p = power(base, k)
        assert count[0] == products
        q = CycMatrix.identity(base.n)
        for _ in range(k):
            q = mul(q, base)
        assert p == q
