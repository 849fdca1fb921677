"""Acceptance suite: one criterion per test, exact equalities throughout.

Each test prints a single "criterion NN PASS/FAIL" line (visible with -s,
or in the failure report).  All expected values are exact integers or
rationals; there are no tolerances anywhere.
"""

import random
from fractions import Fraction as F

from helpers import agree, denominator_profile
from svoa import qseries as qs
from svoa.babymonster import baby_character
from svoa.cyclo import power
from svoa.extremal import (buermann_alpha, classify, extremal_svoa,
                           extremal_voa, orbifold_character, shadow)
from svoa.invariants import evaluate_at_characters, monster_polynomial
from svoa.lattices import lattice_catalog, svoa_character, theta_series
from svoa.modrep import character_rep, generate_group, molien, verlinde
from svoa.qseries import GRID, QSeries

T = 480

_SOL_CACHE = {}


def _svoa(c):
    c = F(c)
    if c not in _SOL_CACHE:
        _SOL_CACHE[c] = extremal_svoa(c)
    return _SOL_CACHE[c]


def _shadow(c):
    sol = _svoa(c)
    return shadow(sol.c, sol.a, sol.series.trunc)


def criterion(num, desc):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print("criterion %2d FAIL  %s" % (num, desc))
                raise
            print("criterion %2d PASS  %s" % (num, desc))
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = desc
        return wrapper
    return deco


@criterion(1, "j-expansion coefficients (q^-1, 1, q, q^2)")
def test_criterion_01_j():
    j = qs.j_function(T)
    assert [j.coeff(n) for n in (-48, 0, 48, 96)] == [1, 744, 196884, 21493760]


@criterion(2, "the three rank-1/2 minimal-model characters through q^5")
def test_criterion_02_ising():
    x0 = qs.chi_ising_0(T)
    xh = qs.chi_ising_half(T)
    x16 = qs.chi_ising_16(T)
    assert [x0.coeff(-1 + 48 * k) for k in range(6)] == [1, 0, 1, 1, 2, 2]
    assert [x0.coeff(-1 + 24 + 48 * k) for k in range(6)] == [0] * 6
    assert [xh.coeff(23 + 48 * k) for k in range(6)] == [1, 1, 1, 1, 2, 2]
    assert [xh.coeff(-1 + 48 * k) for k in range(6)] == [0] * 6
    assert [x16.coeff(2 + 48 * k) for k in range(5)] == [1, 1, 1, 2, 2]


@criterion(3, "matrix group of order 1152 with the modular relations")
def test_criterion_03_group():
    Tm, Sm = character_rep(F(1, 2))
    G = generate_group([Sm, Tm])
    assert G.order == 1152
    ST = Sm * Tm
    assert power(Sm, 4).is_identity()
    assert Sm * Sm == power(ST, 3)


@criterion(4, "Molien series 1 at t^0..t^21, 3 at t^24..t^45, 7 at t^48")
def test_criterion_04_molien():
    Tm, Sm = character_rep(F(1, 2))
    G = generate_group([Sm, Tm])
    rho = molien(G, 48)
    coeffs = [rho.coeff(GRID * k) for k in range(49)]
    assert all(coeffs[k] == 1 for k in range(0, 22, 3))
    assert all(coeffs[k] == 3 for k in range(24, 46, 3))
    assert coeffs[48] == 7
    assert all(coeffs[k] == 0 for k in range(49) if k % 3)


@criterion(5, "weight-enumerator solve reproduces every printed coefficient")
def test_criterion_05_monster_polynomial():
    # solve_monster_polynomial itself verifies the complete published
    # coefficient table; re-check the required spot set explicitly
    P = monster_polynomial()
    spots = {(44, 4, 0): 804, (42, 6, 0): 10560, (40, 8, 0): 174306,
             (24, 24, 0): 7891186524, (37, 3, 8): 1536,
             (21, 19, 8): 33843588096, (30, 2, 16): 16512,
             (16, 16, 16): 18596004864, (23, 1, 24): 168960,
             (13, 11, 24): 17642698752, (16, 0, 32): 9024,
             (8, 8, 32): 102007680, (7, 1, 40): 135168,
             (5, 3, 40): 946176, (0, 0, 48): 2048}
    for m, v in spots.items():
        assert P.coeff(*m) == v, m
    assert len(P.terms) == 82  # the printed monomials and nothing else


@criterion(6, "enumerator evaluated at the characters equals j - 744 through q^5")
def test_criterion_06_evaluation():
    ev = evaluate_at_characters(monster_polynomial(), T)
    target = qs.j_function(T) - QSeries.one(T).scale(744)
    assert agree(ev.truncate(5 * GRID + 1), target)


TABLE_51 = {
    8: [1, 248, 4124, 34752, 213126, 1057504, 4530744],
    16: [1, 496, 69752, 2115008, 34670620, 394460000],
    24: [1, 0, 196884, 21493760, 864299970, 20245856256],
    32: [1, 0, 139504, 69332992, 6998296696, 330022830080],
    40: [1, 0, 20620, 86666240, 24243884350, 2347780456448],
    48: [1, 0, 1, 42987520, 40491909396, 8504046600192],
    72: [1, 0, 1, 1, 2593096794, 12756091394048, 9529321553850114],
}


@criterion(7, "extremal VOA characters for c in {8,...,48,72} with positivity")
def test_criterion_07_extremal_voa():
    for c, row in TABLE_51.items():
        sol = extremal_voa(c)
        got = [sol.series.coeff(-2 * c + GRID * n) for n in range(len(row))]
        assert got == row, c
        assert sol.A[sol.k + 1] > 0
        assert sol.A[sol.k + 2] - sol.A[sol.k + 1] > 0


# rows: rank -> (half-step coefficients of the character, second line as
# (relative exponent, value) pairs or None for the pure-VOA rows)
TABLE_53 = {
    F(1, 2): ([1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2],
              [(F(1, 16), 1), (F(17, 16), 1), (F(33, 16), 1), (F(49, 16), 2),
               (F(65, 16), 2), (F(81, 16), 3), (F(97, 16), 4)]),
    F(1): ([1, 2, 1, 2, 4, 4, 5, 6, 9, 12, 13, 16],
           [(F(1, 8), 1), (F(9, 8), 2), (F(17, 8), 3), (F(25, 8), 6),
            (F(33, 8), 9), (F(41, 8), 14), (F(49, 8), 22)]),
    F(3, 2): ([1, 3, 3, 4, 9, 12, 15, 21, 30, 43, 54, 69],
              [(F(3, 16), 2), (F(19, 16), 6), (F(35, 16), 12), (F(51, 16), 26),
               (F(67, 16), 48), (F(83, 16), 84), (F(99, 16), 146)]),
    F(2): ([1, 4, 6, 8, 17, 28, 38, 56, 84, 124, 172],
           [(F(1, 4), 2), (F(5, 4), 8), (F(9, 4), 20), (F(13, 4), 48),
            (F(17, 4), 102), (F(21, 4), 200), (F(25, 4), 380)]),
    F(5, 2): ([1, 5, 10, 15, 30, 56, 85, 130, 205, 315, 465],
              [(F(5, 16), 4), (F(21, 16), 20), (F(37, 16), 60),
               (F(53, 16), 160), (F(69, 16), 380), (F(85, 16), 824)]),
    F(3): ([1, 6, 15, 26, 51, 102, 172, 276, 453, 728, 1128],
           [(F(3, 8), 4), (F(11, 8), 24), (F(19, 8), 84), (F(27, 8), 248),
            (F(35, 8), 648), (F(43, 8), 1536)]),
    F(7, 2): ([1, 7, 21, 42, 84, 175, 322, 547, 931, 1561, 2527],
              [(F(7, 16), 8), (F(23, 16), 56), (F(39, 16), 224),
               (F(55, 16), 728), (F(71, 16), 2072), (F(87, 16), 5320)]),
    F(4): ([1, 8, 28, 64, 134, 288, 568, 1024, 1809, 3152],
           [(F(1, 2), 8), (F(3, 2), 64), (F(5, 2), 288), (F(7, 2), 1024),
            (F(9, 2), 3152)]),
    F(9, 2): ([1, 9, 36, 93, 207, 459, 957, 1827, 3357, 6061],
              [(F(9, 16), 16), (F(25, 16), 144), (F(41, 16), 720),
               (F(57, 16), 2784), (F(73, 16), 9216), (F(89, 16), 27216)]),
    F(5): ([1, 10, 45, 130, 310, 712, 1555, 3130, 5990, 11190],
           [(F(5, 8), 16), (F(13, 8), 160), (F(21, 8), 880), (F(29, 8), 3680),
            (F(37, 8), 13040), (F(45, 8), 40992)]),
    F(11, 2): ([1, 11, 55, 176, 451, 1078, 2453, 5181, 10329, 19954],
               [(F(11, 16), 32), (F(27, 16), 352), (F(43, 16), 2112),
                (F(59, 16), 9504), (F(75, 16), 35904), (F(91, 16), 119680)]),
    F(6): ([1, 12, 66, 232, 639, 1596, 3774, 8328, 17283, 34520],
           [(F(3, 4), 32), (F(7, 4), 384), (F(11, 4), 2496), (F(15, 4), 12032),
            (F(19, 4), 48288), (F(23, 4), 170112)]),
    F(13, 2): ([1, 13, 78, 299, 884, 2314, 5681, 13052, 28158, 58136],
               [(F(13, 16), 64), (F(29, 16), 832), (F(45, 16), 5824),
                (F(61, 16), 29952), (F(77, 16), 127296), (F(93, 16), 472576)]),
    F(7): ([1, 14, 91, 378, 1197, 3290, 8386, 20008, 44800],
           [(F(7, 8), 64), (F(15, 8), 896), (F(23, 8), 6720), (F(31, 8), 36736),
            (F(39, 8), 164864), (F(47, 8), 643328)]),
    F(15, 2): ([1, 15, 105, 470, 1590, 4593, 12160, 30075, 69780],
               [(F(15, 16), 128), (F(31, 16), 1920), (F(47, 16), 15360),
                (F(63, 16), 88960), (F(79, 16), 420480), (F(95, 16), 1720704)]),
    F(8): ([1, 0, 248, 0, 4124, 0, 34752, 0, 213126, 0, 1057504, 0, 4530744],
           None),
    F(12): ([1, 0, 276, 2048, 11202, 49152, 184024, 614400, 1881471],
            [(F(1, 2), 12), (F(3, 2), 2048), (F(5, 2), 49152),
             (F(7, 2), 614400), (F(9, 2), 5373952), (F(11, 2), 37122048)]),
    F(14): ([1, 0, 266, 3136, 21035, 108416, 468846, 1777472, 6094557],
            [(F(3, 4), 56), (F(7, 4), 8416), (F(11, 4), 229936),
             (F(15, 4), 3327296), (F(19, 4), 33491752), (F(23, 4), 264189408)]),
    F(15): ([1, 0, 255, 3640, 27525, 154056, 713850, 2878920, 10432650],
            [(F(7, 8), 120), (F(15, 8), 17104), (F(23, 8), 494040),
             (F(31, 8), 7626000), (F(39, 8), 81775600), (F(47, 8), 685224960)]),
    F(31, 2): ([1, 0, 248, 3875, 31124, 181753, 871627, 3623869, 13496501],
               [(F(15, 16), 248), (F(31, 16), 34504), (F(47, 16), 1022752),
                (F(63, 16), 16275496), (F(79, 16), 179862248)]),
    F(47, 2): ([1, 0, 0, 4371, 96256, 1143745, 9646891, 64680601, 366845011],
               [(F(31, 16), 96256), (F(47, 16), 10602496),
                (F(63, 16), 420831232), (F(79, 16), 9685952512),
                (F(95, 16), 156435924992)]),
    F(24): ([1, 0, 0, 0, 196884, 0, 21493760, 0, 864299970, 0, 20245856256, 0,
             333202640600], None),
}


@criterion(8, "extremal SVOA characters match all 22 nontrivial table rows")
def test_criterion_08_extremal_svoa():
    assert len(TABLE_53) == 22
    for c, (line1, line2) in TABLE_53.items():
        sol = _svoa(c)
        base = int(-2 * c)
        got = [sol.series.coeff(base + 24 * n) for n in range(len(line1))]
        assert got == line1, ("line1", c, got)
        if line2 is None:
            continue
        rep = _shadow(c)
        # the table prints the single twisted-module character: for
        # integral rank that is half of the two-module sum
        div = 2 if c.denominator == 1 else 1
        for e, v in line2:
            got_v = F(rep.B.coeff(base + int(e * GRID)), div)
            assert got_v == v, ("line2", c, e, got_v)


TABLE_54 = {
    F(17, 2): ([1, 0, 255, 221, 4216, 4114, 35666],
               [(F(1, 16), F(17, 16)), (F(17, 16), F(3977, 16)),
                (F(33, 16), F(69989, 16))], "G"),
    F(9): ([1, 0, 261, 456, 4500, 8424, 40641],
           [(F(1, 8), F(9, 4)), (F(9, 8), F(997, 2)), (F(17, 8), F(36999, 4))],
           "G"),
    F(19, 2): ([1, 0, 266, 703, 4997, 13091, 49989],
               [(F(3, 16), F(19, 8)), (F(19, 16), F(4001, 8)),
                (F(35, 16), F(39007, 4))], "G"),
    F(10): ([1, 0, 270, 960, 5725, 18304, 64150],
            [(F(1, 4), 5), (F(5, 4), 1004), (F(9, 4), 20510)], "L"),
    F(21, 2): ([1, 0, 273, 1225, 6699, 24276, 83727],
               [(F(5, 16), F(21, 4)), (F(21, 16), F(4033, 4)),
                (F(37, 16), F(86079, 4))], "G"),
    F(11): ([1, 0, 275, 1496, 7931, 31240, 109516],
            [(F(3, 8), 11), (F(11, 8), 2026), (F(19, 8), 45067)], "L"),
    F(23, 2): ([1, 0, 276, 1771, 9430, 39445, 142531],
               [(F(7, 16), F(23, 2)), (F(23, 16), F(4073, 2)),
                (F(39, 16), 47104)], "G"),
    F(25, 2): ([1, 0, 275, 2325, 13250, 60630, 235500],
               [(F(9, 16), 25), (F(25, 16), 4121), (F(41, 16), 102425)], "L"),
    F(13): ([1, 0, 273, 2600, 15574, 74152, 298727],
            [(F(5, 8), 52), (F(13, 8), 8296), (F(21, 8), 213148)], "L"),
    F(27, 2): ([1, 0, 270, 2871, 18171, 89991, 375741],
               [(F(11, 16), 54), (F(27, 16), 8354), (F(43, 16), 221508)], "L"),
    F(29, 2): ([1, 0, 261, 3393, 24157, 129688, 580609],
               [(F(13, 16), 116), (F(29, 16), 16964), (F(45, 16), 476876)],
               "L"),
    F(16): ([1, 0, 0, 7936, 2296, 412672, 65536],
            [(F(0), F(-15, 16)), (F(1), 527), (F(2), F(139039, 2)),
             (F(3), 2116124)], "NG"),
    F(33, 2): ([1, 0, 0, 7766, 11220, 408507, 515251],
               [(F(1, 16), F(-231, 256)), (F(17, 16), F(138633, 256)),
                (F(33, 16), F(17969473, 256))], "NG"),
    F(17): ([1, 0, 0, 7582, 19907, 413678, 956573],
            [(F(1, 8), F(-221, 128)), (F(9, 8), F(71179, 64)),
             (F(17, 8), F(18149745, 128))], "NG"),
    F(35, 2): ([1, 0, 0, 7385, 28315, 427987, 1398635],
               [(F(3, 16), F(-105, 64)), (F(19, 16), F(73045, 64)),
                (F(35, 16), F(4584449, 32))], "NG"),
    F(18): ([1, 0, 0, 7176, 36405, 451152, 1850520],
            [(F(1, 4), F(-99, 32)), (F(5, 4), F(18729, 8)),
             (F(9, 4), F(4633405, 16))], "NG"),
    F(37, 2): ([1, 0, 0, 6956, 44141, 482813, 2321121],
               [(F(5, 16), F(-185, 64)), (F(21, 16), F(153587, 64)),
                (F(37, 16), F(18737217, 64))], "NG"),
    F(19): ([1, 0, 0, 6726, 51490, 522538, 2819011],
            [(F(3, 8), F(-171, 32)), (F(11, 8), F(78679, 16)),
             (F(19, 8), F(18948593, 32))], "NG"),
    F(39, 2): ([1, 0, 0, 6487, 58422, 569829, 3352323],
               [(F(7, 16), F(-39, 8)), (F(23, 16), F(40287, 8)),
                (F(39, 16), F(1197985, 2))], "NG"),
    F(20): ([1, 0, 0, 6240, 64910, 624128, 3928640],
            [(F(1, 2), F(-35, 4)), (F(3, 2), 10310), (F(5, 2), 1212171)],
            "NG"),
    F(41, 2): ([1, 0, 0, 5986, 70930, 684823, 4554895],
               [(F(9, 16), F(-123, 16)), (F(25, 16), F(168797, 16)),
                (F(41, 16), F(19629545, 16))], "NG"),
    F(21): ([1, 0, 0, 5726, 76461, 751254, 5237281],
            [(F(5, 8), F(-105, 8)), (F(13, 8), F(86331, 4)),
             (F(21, 8), F(19872217, 8))], "NG"),
    F(43, 2): ([1, 0, 0, 5461, 81485, 822719, 5981171],
               [(F(11, 16), F(-43, 4)), (F(27, 16), F(88279, 4)),
                (F(43, 16), F(5030697, 2))], "NG"),
    F(22): ([1, 0, 0, 5192, 85987, 898480, 6791048],
            [(F(3, 4), F(-33, 2)), (F(7, 4), 45122), (F(11, 4), 5095325)],
            "NG"),
    # third shadow entry recomputed: the printed table duplicates the
    # rank-23 cell (wrong exponent) at this spot
    F(45, 2): ([1, 0, 0, 4920, 89955, 977769, 7670445],
               [(F(13, 16), F(-45, 4)), (F(29, 16), F(184455, 4)),
                (F(45, 16), F(20647801, 4))], "NG"),
    F(23): ([1, 0, 0, 4646, 93380, 1059794, 8621895],
            [(F(7, 8), F(-23, 2)), (F(15, 8), 94231),
             (F(23, 8), F(20922345, 2))], "NG"),
}

TABLE_55 = {
    F(49, 2): F(1911, 2048), F(25): F(1775, 1024), F(51, 2): F(3281, 2048),
    F(26): F(377, 128), F(53, 2): F(689, 256), F(27): F(1251, 256),
    F(55, 2): F(2255, 512), F(28): F(63, 8), F(57, 2): F(893, 128),
    F(29): F(783, 64), F(59, 2): F(1357, 128), F(30): F(145, 8),
    F(61, 2): F(61, 4), F(31): F(403, 16), F(63, 2): F(651, 32),
    F(32): F(-73967, 65536), F(65, 2): F(-67989, 65536),
    F(33): F(-31135, 16384), F(67, 2): F(-56815, 32768),
    F(34): F(-12907, 4096), F(69, 2): F(-5839, 2048),
    F(35): F(-42069, 8192), F(71, 2): F(-9425, 2048),
    F(36): F(-33605, 4096), F(73, 2): F(-29783, 4096), F(37): F(-3279, 256),
    F(75, 2): F(-22949, 2048), F(38): F(-9965, 512), F(77, 2): F(-8585, 512),
    F(39): F(-14663, 512), F(79, 2): F(-6201, 256), F(40): F(86155, 65536),
    F(81, 2): F(627945, 524288), F(41): F(285213, 131072),
    F(83, 2): F(1033171, 524288), F(42): F(29145, 8192),
    F(85, 2): F(839041, 262144), F(43): F(376073, 65536),
    F(87, 2): F(335859, 65536), F(44): F(74689, 8192),
    F(89, 2): F(132319, 16384), F(45): F(7293, 512),
    F(91, 2): F(409677, 32768), F(46): F(44723, 2048),
    F(93, 2): F(310803, 16384), F(47): F(134231, 4096),
    F(95, 2): F(28811, 1024),
}


@criterion(9, "shadow tables: every printed entry, verdict letters, all B*")
def test_criterion_09_shadow_tables():
    for c, (line1, line2, letters) in TABLE_54.items():
        sol = _svoa(c)
        base = int(-2 * c)
        got = [sol.series.coeff(base + 24 * n) for n in range(len(line1))]
        assert got == line1, ("line1", c)
        rep = _shadow(c)
        for e, v in line2:
            assert rep.B.coeff(base + int(e * GRID)) == v, ("line2", c, e)
        verdict = classify(c)
        if letters == "L":
            assert verdict.status == "conditional_L", c
        else:
            assert verdict.status == "ruled_out", c
            assert verdict.arguments == frozenset(letters), c
    assert len(TABLE_55) == 47
    for c, bstar in TABLE_55.items():
        rep = _shadow(c)
        assert rep.first_coeff == bstar, c
        assert not rep.integral, c


@criterion(10, "component characters and the closed-form identity")
def test_criterion_10_baby():
    lead = -47
    x0 = baby_character(0, T)
    x1 = baby_character(1, T)
    x2 = baby_character(2, T)
    assert [x0.coeff(lead + o) for o in (0, 96, 144, 192, 240)] == \
        [1, 96256, 9646891, 366845011, 8223700027]
    assert [x1.coeff(lead + o) for o in (72, 120, 168, 216)] == \
        [4371, 1143745, 64680601, 1829005611]
    assert [x2.coeff(lead + o) for o in (93, 141, 189, 237)] == \
        [96256, 10602496, 420831232, 9685952512]
    # sector 0 plus sector 1 equals both closed forms in the weight-1/2
    # generator x and the weight-8 generator y: x^47 - 47 x^23 and
    # -(31/16) x^47 + (47/16) x^31 y
    total = x0 + x1
    ch = qs.chi_half(T + 96)
    closed = ch ** 47 - (ch ** 23).scale(47)
    alt = (ch ** 47).scale(F(-31, 16)) + \
        ((ch ** 31) * qs.cbrt_j(T + 96)).scale(F(47, 16))
    assert agree(total, closed)
    assert agree(total, alt)


@criterion(11, "fusion rings from the three S-matrices")
def test_criterion_11_verlinde():
    _, Sa = character_rep(F(1, 2))
    Fa = verlinde(Sa)
    assert Fa.N[2][2] == (1, 1, 0) and Fa.N[1][1] == (1, 0, 0)
    _, Sb = character_rep(1)
    Fb = verlinde(Sb)
    lab4 = {0: 0, 1: 2, 2: 1, 3: 3}
    for i in range(4):
        for j in range(4):
            expect = tuple(1 if (lab4[i] + lab4[j]) % 4 == lab4[k] else 0
                           for k in range(4))
            assert Fb.N[i][j] == expect
    _, Sc = character_rep(2)
    Fc = verlinde(Sc)
    lab22 = {0: (0, 0), 1: (1, 1), 2: (1, 0), 3: (0, 1)}
    for i in range(4):
        for j in range(4):
            t = (lab22[i][0] ^ lab22[j][0], lab22[i][1] ^ lab22[j][1])
            expect = tuple(1 if lab22[k] == t else 0 for k in range(4))
            assert Fc.N[i][j] == expect


@criterion(12, "lattice cross-checks: E8 theta and three glued lattices")
def test_criterion_12_lattices():
    assert agree(theta_series(lattice_catalog("E8"), 240), qs.E4(240))
    for name, c in (("D12+", 12), ("E7E7+", 14), ("A15+", 15)):
        trunc = int(-2 * F(c)) + 10 * GRID + 1
        x = svoa_character(lattice_catalog(name), trunc)
        assert agree(x.truncate(trunc), _svoa(c).series), name


@criterion(13, "Leech orbifold character equals j - 744 through q^4")
def test_criterion_13_orbifold():
    theta = theta_series(lattice_catalog("Leech"), T)
    x = orbifold_character(theta, 24)
    target = qs.j_function(T) - QSeries.one(T).scale(744)
    assert agree(x.truncate(4 * GRID + 1), target)


@criterion(14, "property suites: ring laws, identities, dual routes, signs")
def test_criterion_14_properties():
    # ring laws on random truncated series
    rng = random.Random(2024)
    for _ in range(20):
        def rand():
            return QSeries({rng.randint(-3, 8) * 24: F(rng.randint(-9, 9),
                                                       rng.randint(1, 4))
                            for _ in range(5)}, 240)
        a, b, c = rand(), rand(), rand()
        assert agree((a * b) * c, a * (b * c))
        assert agree(a * (b + c), a * b + a * c)
    # generator identities
    ch = qs.chi_half(T)
    assert agree(ch ** 24, qs.j_theta(T))
    assert agree(ch ** 16 - (ch ** 8).inv().scale(16), qs.cbrt_j(T))
    # two independent computations of the expansion coefficients
    samples = [(24, "VOA"), (32, "VOA"), (48, "VOA"), (72, "VOA"),
               (F(47, 2), "SVOA"), (12, "SVOA"), (16, "SVOA"), (20, "SVOA"),
               (F(49, 2), "SVOA"), (30, "SVOA")]
    assert len(samples) == 10
    for c, kind in samples:
        sol = extremal_voa(c) if kind == "VOA" else _svoa(c)
        for r in range(1, sol.k + 1):
            assert buermann_alpha(c, r, kind) == sol.a[r], (c, r)
    # denominator growth vs boundedness of fractional roots
    bounded = qs.j_theta(T).pow_rational(F(1, 24))
    assert set(denominator_profile(bounded)) == {1}
    growth = denominator_profile(
        qs.j_theta(48 * 31).shift(24).pow_rational(F(1, 5)))
    assert growth[-1] > growth[10] > 1
    # existence-case shadows are clean
    from svoa.extremal import E_RANKS
    for c in sorted(E_RANKS):
        if c == 0:
            continue
        rep = _shadow(c)
        assert rep.integral and rep.nonneg, c
    # negative tail coefficients for ranks 48..56
    c = F(48)
    while c <= 56:
        sol = _svoa(c)
        assert sol.a[sol.k] < 0 and sol.a[sol.k - 1] < 0, c
        c += F(1, 2)
