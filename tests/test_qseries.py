"""q-series engine: ring laws, catalog expansions, fractional powers,
derivatives, Ising sectors, denominator profiles."""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import old_routes
from helpers import agree, denominator_profile
from svoa import qseries as qs
from svoa.cyclo import zeta_pow
from svoa.qseries import GRID, GridError, QSeries

T = 480


def rel(x, base, offsets):
    return [x.coeff(base + o) for o in offsets]


# -- catalog ------------------------------------------------------------------


def test_j_expansion():
    j = qs.j_function(T)
    assert rel(j, -48, [0, 48, 96, 144]) == [1, 744, 196884, 21493760]


def test_eta_delta():
    eta = qs.eta(T)
    assert eta.lead == 2 and eta.coeff(2) == 1
    delta = qs.delta(T)
    assert rel(delta, 48, [0, 48, 96, 144]) == [1, -24, 252, -1472]
    # eta * eta^23 equals the directly built discriminant
    assert agree(eta * eta ** 23, delta)


def test_theta_series_of_Z():
    th = qs.theta_Z(T)
    assert [th.coeff(i) for i in (0, 24, 96, 216)] == [1, 2, 2, 2]
    th2 = qs.theta_Z_half(T)
    assert th2.coeff(6) == 2 and th2.coeff(54) == 2


def test_E4():
    e = qs.E4(T)
    assert rel(e, 0, [0, 48, 96]) == [1, 240, 2160]


def test_ising_characters():
    x0 = qs.chi_ising_0(T)
    xh = qs.chi_ising_half(T)
    x16 = qs.chi_ising_16(T)
    assert rel(x0, -1, [48 * k for k in range(6)]) == [1, 0, 1, 1, 2, 2]
    assert rel(xh, 23, [48 * k for k in range(6)]) == [1, 1, 1, 1, 2, 2]
    assert rel(x16, 2, [48 * k for k in range(5)]) == [1, 1, 1, 2, 2]
    ch = qs.chi_half(T)
    assert agree(x0 + xh, ch)
    assert agree(x0 - xh, qs.chi_half_minus(T))
    # the cusp-1 product formula gives the same 1/16-sector series
    assert agree(qs.cusp1_chi_half(T), x16)


def test_chi_half_expansion():
    ch = qs.chi_half(T)
    assert rel(ch, -1, [0, 24, 72, 96, 120, 144, 168, 192]) == [1, 1, 1, 1, 1, 1, 1, 2]


def test_vacuum_and_generic_module():
    v = qs.vacuum(24, T)
    assert v.lead == -48
    assert rel(v, -48, [0, 48, 96, 144, 192]) == [1, 0, 1, 1, 2]
    g = qs.generic_module(24, 2, T)
    assert g.lead == 48
    assert rel(g, 48, [0, 48, 96]) == [1, 1, 2]


def test_standard_series_dispatch():
    assert agree(qs.standard_series("j", T), qs.j_function(T))
    assert agree(qs.standard_series("vacuum", T, c=24), qs.vacuum(24, T))
    assert agree(qs.standard_series("generic_module", T, c=24, h=2),
                 qs.generic_module(24, 2, T))
    with pytest.raises(ValueError):
        qs.standard_series("nonsense", T)
    with pytest.raises(ValueError):
        qs.standard_series("vacuum", T)


@pytest.mark.parametrize("name, params", [
    ("j", {"c": 3}),
    ("j", {"h": Fraction(1, 7)}),
    ("vacuum", {"c": 24, "h": 2}),
    ("generic_module", {"c": 24}),
    ("generic_module", {"h": 2}),
])
def test_standard_series_takes_exactly_its_parameters(name, params):
    with pytest.raises(ValueError):
        qs.standard_series(name, T, **params)


# -- ring operations -----------------------------------------------------------


def test_simple_products():
    one_plus = QSeries({0: 1, 48: 1}, T)
    one_minus = QSeries({0: 1, 48: -1}, T)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1 and prod.coeff(48) == 0 and prod.coeff(96) == -1


def test_inverse():
    geo = QSeries({0: 1, 48: -1}, T).inv()
    assert all(geo.coeff(48 * k) == 1 for k in range(T // 48))
    phi = qs.j_function(T).inv()
    assert phi.coeff(48) == 1 and phi.coeff(96) == -744
    u = QSeries({-48: 1, 0: 3}, T)
    assert u.inv().lead == 48
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(T).inv()


def _random_series(rng, trunc=240):
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        coeffs[rng.randint(-4, trunc // 24) * 24] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 4))
    return QSeries(coeffs, trunc)


def test_ring_laws_random():
    rng = random.Random(99)
    for _ in range(40):
        a, b, c = (_random_series(rng) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert agree(lhs, rhs)
        assert agree(a * (b + c), a * b + a * c)
        assert agree(a + b, b + a)


def test_leibniz_rule_random():
    rng = random.Random(3)
    for _ in range(25):
        a, b = _random_series(rng), _random_series(rng)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert agree(lhs, rhs)


def test_derivative_basics():
    assert QSeries({96: 1}, T).derivative().coeff(48) == 2
    assert QSeries({0: 7}, T).derivative().is_zero()
    d = QSeries({24: 1}, T).derivative()
    assert d.coeff(-24) == Fraction(1, 2)


# -- fractional powers ------------------------------------------------------------


def test_integer_pow_rational_agrees():
    a = QSeries({0: 1, 48: 1}, T)
    assert agree(a.pow_rational(2), a * a)
    assert (a ** 2).coeff(48) == 2


def test_sqrt_binomial_oracle():
    # (1+p)^(1/2) against directly computed binomial coefficients, p = q
    a = QSeries({0: 1, 48: 1}, 48 * 21)
    got = a.pow_rational(Fraction(1, 2))
    r = Fraction(1, 2)
    coeff = Fraction(1)
    for n in range(20):
        assert got.coeff(48 * n) == coeff, n
        coeff = coeff * (r - n) / (n + 1)
    # denominators grow as powers of 2
    prof = denominator_profile(got)
    assert prof[1] == 2 and prof[10] > prof[5] > 2
    assert all(p & (p - 1) == 0 for p in prof)  # powers of two


def test_pow_rational_grid_and_monic_errors():
    jt = qs.j_theta(T)
    with pytest.raises(GridError):
        jt.pow_rational(Fraction(1, 5))
    with pytest.raises(ValueError):
        QSeries({0: 2, 48: 1}, T).pow_rational(Fraction(1, 2))


def test_chi_half_is_24th_root_of_j_theta():
    jt = qs.j_theta(T)
    ch = qs.chi_half(T)
    assert agree(jt.pow_rational(Fraction(1, 24)), ch)
    assert agree(ch ** 24, jt)


def test_cbrt_j_routes_agree():
    cb = qs.cbrt_j(T)
    assert agree(cb ** 3, qs.j_function(T))
    assert agree(qs.j_function(T).pow_rational(Fraction(1, 3)), cb)


def test_chi8_identity():
    ch = qs.chi_half(T)
    chi8 = ch ** 16 - (ch ** 8).inv().scale(16)
    assert agree(chi8, qs.cbrt_j(T))


# -- denominator profiles -----------------------------------------------------------


def test_denominator_profiles():
    assert denominator_profile(qs.j_function(T)) == \
        [1] * len(qs.j_function(T).coeffs)
    root24 = qs.j_theta(T).pow_rational(Fraction(1, 24))
    assert set(denominator_profile(root24)) == {1}
    # the unit part of the theta quotient to a non-divisor-of-24 power
    u5 = qs.j_theta(48 * 31).shift(24).pow_rational(Fraction(1, 5))
    prof = denominator_profile(u5)
    assert prof[11] > prof[10] or prof[10] > prof[9]
    assert prof[-1] > prof[20] > prof[10] > 1


# -- Ising sectors against the T-twist route ------------------------------------------


def test_sector_split_via_twist():
    # (1 +- zeta^(n+1))/2 * c over chi_half's terms: the T-twist of the
    # free-fermion character with its phase zeta^1, added or subtracted
    for trunc in (1, 23, 24, 25, 97, 200, T, 1000):
        ch = qs.chi_half(trunc)
        for sign, sector in ((1, qs.chi_ising_0(trunc)),
                             (-1, qs.chi_ising_half(trunc))):
            split = {}
            for n, c in ch.coeffs.items():
                x = (1 + zeta_pow(n + 1) * sign) * c * Fraction(1, 2)
                if not x.is_zero():
                    split[n] = qs._norm_coeff(x.rational())
            assert sector.coeffs == split and sector.trunc == ch.trunc, (trunc, sign)


# -- serialization ------------------------------------------------------------------


def test_json_round_trip():
    j = qs.j_function(240)
    obj = j.to_json()
    assert obj["grid"] == GRID
    back = QSeries.from_json(obj)
    assert back == j
    x = QSeries({-24: Fraction(1, 3), 0: 2}, 100)
    assert QSeries.from_json(x.to_json()) == x
    # copy and pickle rebuild a series through the dict constructor
    for y in (j, x, QSeries.zero(7)):
        assert copy.deepcopy(y) == y == pickle.loads(pickle.dumps(y))


def test_str_format():
    j = qs.j_function(144)
    s = str(j)
    assert s.startswith("q^-1 + 744 + 196884 q + 21493760 q^2")
    assert "q^(25/48)" in str(QSeries({25: 1}, 48))


def test_pow_rational_domain_errors_survive_optimize():
    half = Fraction(1, 2)
    with pytest.raises(ZeroDivisionError, match="zero series"):
        QSeries.zero(T).pow_rational(half)
    with pytest.raises(ValueError, match="leading coefficient 1"):
        QSeries({0: 2, 48: 1}, T).pow_rational(half)
    with pytest.raises(GridError, match="leaves the 1/48 grid"):
        QSeries({1: 1, 48: 1}, T).pow_rational(half)
    code = ("from fractions import Fraction\n"
            "from svoa import qseries as qs\n"
            "for coeffs, error in (({}, ZeroDivisionError),\n"
            "                      ({0: 2, 48: 1}, ValueError),\n"
            "                      ({1: 1, 48: 1}, qs.GridError)):\n"
            "    try:\n"
            "        qs.QSeries(coeffs, 96).pow_rational(Fraction(1, 2))\n"
            "    except error:\n"
            "        continue\n"
            "    raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(qs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


# -- stride kernels against the 1/48-grid kernels they replaced -----------------------


def _grid_mul(self, other):
    t = min(self.trunc + (other.trunc if other.is_zero() else other.lead),
            other.trunc + (self.trunc if self.is_zero() else self.lead))
    out = {}
    a = self.coeffs
    b = other.coeffs
    if len(a) > len(b):
        a, b = b, a
    bitems = sorted(b.items())
    for i, x in a.items():
        for j, y in bitems:
            n = i + j
            if n >= t:
                break
            out[n] = out.get(n, 0) + x * y
    return QSeries(out, t)


def _grid_inv(self):
    e = self.lead
    t = self.trunc - 2 * e
    u0 = self.coeffs[e]
    u0inv = qs._coeff_div(1, u0)
    rest = sorted((n - e, c) for n, c in self.coeffs.items() if n != e)
    out = {0: u0inv}
    for n in range(1, self.trunc - e):
        # coefficient of index n in (unit part) * (partial inverse) must vanish
        s = 0
        for m, c in rest:
            if m > n:
                break
            y = out.get(n - m)
            if y is not None:
                s += c * y
        if s:
            v = qs._norm_coeff(-(s * u0inv))
            if v != 0:
                out[n] = v
    return QSeries({n - e: c for n, c in out.items()}, t)


def _grid_exp(v):
    t = v.trunc
    src = sorted(v.coeffs.items())
    out = {0: 1}
    # E' = v' E  =>  n E_n = sum_i i v_i E_{n-i}
    for n in range(v.lead, t):
        s = 0
        for i, vc in src:
            if i > n:
                break
            y = out.get(n - i)
            if y is not None:
                s += vc * y * i
        if s:
            c = qs._norm_coeff(s * Fraction(1, n))
            if c != 0:
                out[n] = c
    return QSeries(out, t)


def _grid_pow_rational(a, r):
    """The log/exp pow_rational route with the grid kernels in place of mul,
    inv and _exp."""
    e = a.lead
    u = QSeries({n - e: c for n, c in a.coeffs.items()}, a.trunc - e)
    du = u.derivative()
    v = _grid_mul(du, _grid_inv(u))
    log = QSeries({n + GRID: c * Fraction(GRID, n + GRID)
                   for n, c in v.coeffs.items()}, v.trunc + GRID)
    return _grid_exp(log.scale(r)).shift(int(r * e))


STRIDES = (1, 2, 3, 6, 8, 16, 24, 48)


def _coefficient(rng, kind):
    x = rng.choice([c for c in range(-9, 10) if c])
    if kind == "int":
        return x
    return Fraction(x, rng.randint(1, 6))


def _strided_series(rng, stride, kind, lead=None, terms=6, monic=False):
    """Random series on lead + stride*Z up to a random truncation."""
    if lead is None:
        lead = rng.randint(-60, 60)
    trunc = lead + stride * rng.randint(4, 24) + rng.randint(1, stride)
    coeffs = {lead + stride * rng.randint(1, (trunc - lead - 1) // stride):
              _coefficient(rng, kind) for _ in range(terms)}
    coeffs[lead] = 1 if monic else _coefficient(rng, kind)
    return QSeries(coeffs, trunc)


def _same(x, y):
    return x.trunc == y.trunc and x.coeffs == y.coeffs


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_stride_kernels_match_grid_kernels(kind):
    rng = random.Random(4817)
    for trial in range(60):
        a = _strided_series(rng, rng.choice(STRIDES), kind)
        b = _strided_series(rng, rng.choice(STRIDES), kind)
        assert _same(a * b, _grid_mul(a, b)), (trial, a, b)
        assert _same(a.inv(), _grid_inv(a)), (trial, a)
        v = _strided_series(rng, rng.choice(STRIDES), kind, lead=rng.randint(1, 60))
        # made monic, to a power r with r * lead = +-1 on the grid
        v = QSeries({**v.coeffs, v.lead: 1}, v.trunc)
        r = Fraction((-1) ** trial, v.lead)
        assert _same(v.pow_rational(r), _grid_pow_rational(v, r)), (trial, v, r)
        assert _same(v.pow_rational(r), old_routes.pow_rational(v, r)), (trial, v, r)


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4)])
def test_pow_rational_matches_grid_kernels(r):
    rng = random.Random(int(r * 12))
    for trial in range(12):
        lead = r.denominator * rng.randint(-15, 15)
        a = _strided_series(rng, rng.choice(STRIDES), "fraction", lead=lead, monic=True)
        assert _same(a.pow_rational(r), _grid_pow_rational(a, r)), (trial, a)
        assert _same(a.pow_rational(r), old_routes.pow_rational(a, r)), (trial, a)


def test_stride_is_the_gcd_of_the_whole_support():
    # a stride-24 series with one stray stride-1 term: a kernel that took
    # its stride from the first steps only would miss index 1 and its echoes
    a = QSeries({0: 1, 24: 2, 48: -1, 73: 3}, 480)
    b = QSeries({-24: 1, 24: 5}, 400)
    assert _same(a * b, _grid_mul(a, b)) and (a * b).coeff(49) == 3
    assert _same(a.inv(), _grid_inv(a)) and a.inv().coeff(73) == -3
    v = QSeries({24: 1, 97: Fraction(1, 2)}, 480)
    for r in (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 24)):
        assert _same(v.pow_rational(r), _grid_pow_rational(v, r)), r
        assert _same(v.pow_rational(r), old_routes.pow_rational(v, r)), r
    assert v.pow_rational(Fraction(1, 2)).coeff(85) == Fraction(1, 4)
    # single terms: the kernels need no stride at all
    assert _same(QSeries({5: 2}, 300) * QSeries({-7: 3}, 100),
                 _grid_mul(QSeries({5: 2}, 300), QSeries({-7: 3}, 100)))
    assert _same(QSeries({5: 2}, 300).inv(), _grid_inv(QSeries({5: 2}, 300)))
    c = QSeries({-5: 1, 40: 2}, 400)
    assert _same(QSeries({5: 2}, 300) * c, _grid_mul(QSeries({5: 2}, 300), c))


# -- the slot form against the dict-backed series it replaced ------------------


def _check(x, oracle):
    """x has the oracle's coefficients and trunc, in canonical slot form."""
    assert (x.coeffs, x.trunc) == (oracle.coeffs, oracle.trunc)
    if x.lead is None:
        assert (x.step, x.slots) == (0, [])
        return
    assert x.slots[0] and x.slots[-1]
    assert x.step == gcd(*[n - x.lead for n in x.coeffs])
    assert x.lead + x.step * (len(x.slots) - 1) < x.trunc
    assert not [c for c in x.slots if type(c) is Fraction and c.denominator == 1]


def _dict(x):
    return old_routes.DictQSeries(x.coeffs, x.trunc)


def _against_oracle(a, b, rng, kind):
    """Every kernel on a (and b) against the dict-backed series."""
    da, db = _dict(a), _dict(b)
    s, d, step = _coefficient(rng, kind), rng.randint(-60, 60), rng.choice(STRIDES)
    cut = rng.randint(-70, a.trunc + 5)
    _check(a * b, da * db)
    _check(a + b, da + db)
    _check(a - b, da - db)
    _check(a.shift(d), da.shift(d))
    _check(a.truncate(cut), da.truncate(cut))
    _check(a.scale(s), da.scale(s))
    _check(a.scale(0), da.scale(0))
    _check(a.derivative(step), da.derivative(step))
    if not a.is_zero():
        _check(a.inv(), da.inv())


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_slot_kernels_match_dict_backed_series(kind):
    rng = random.Random(2718 + len(kind))
    for trial in range(80):
        a = _strided_series(rng, rng.choice(STRIDES), kind)
        b = _strided_series(rng, rng.choice(STRIDES), kind)
        _against_oracle(a, b, rng, kind)
        r = Fraction(rng.choice([1, -1, 3]), rng.choice([2, 3, 4]))
        v = _strided_series(rng, rng.choice(STRIDES), kind,
                            lead=r.denominator * rng.randint(-15, 15), monic=True)
        _check(v.pow_rational(r), _dict(v).pow_rational(r))


def test_slot_kernels_on_zero_single_term_and_edge_series():
    rng = random.Random(31)
    specials = [QSeries.zero(300), QSeries.zero(-40), QSeries({5: 2}, 300),
                QSeries({-7: Fraction(3, 2)}, 100), QSeries({-48: 1, 0: 1}, 1)]
    for stride in STRIDES:
        lead = rng.randint(-60, 60)
        trunc = lead + 5 * stride
        # the term at trunc - 1 is kept, the one at trunc dropped
        edge = QSeries({lead: 1, trunc - 1: 3, trunc: 5}, trunc)
        assert edge.coeff(trunc - 1) == 3 and edge.coeff(trunc) == 0
        _check(edge, old_routes.DictQSeries({lead: 1, trunc - 1: 3, trunc: 5}, trunc))
        specials.append(edge)
    # a product whose last term lands at trunc - 1, and one where it is cut
    for t in (11, 10):
        x, y = QSeries({0: 1, 5: 2}, t), QSeries({0: 1, 5: 3}, 11)
        _check(x * y, _dict(x) * _dict(y))
    for a in specials:
        for b in specials:
            _against_oracle(a, b, rng, "fraction")


def test_canonical_form_is_route_independent():
    # -2 + 46 + 142 on the 1/48 grid: step 48, with a zero slot at 94
    made = [
        QSeries({-2: 3, 46: Fraction(4, 2), 142: -1}, 300),
        # the cancelled q^(22/48) coarsens the stride from 24 to 48
        QSeries({-2: 3, 22: 5, 46: 2, 142: -1}, 300) + QSeries({22: -5}, 300),
        QSeries({0: 3, 48: 2, 144: -1}, 302) * QSeries({-2: 1}, 400),
        QSeries({-2: Fraction(3, 2), 46: 1, 142: Fraction(-1, 2)}, 300).scale(2),
    ]
    for x in made:
        assert (x.lead, x.step, x.slots, x.trunc) == (-2, 48, [3, 2, 0, -1], 300)
        assert [type(c) for c in x.slots] == [int] * 4
        assert x == made[0]
    single = QSeries({0: 1, 7: 1}, 100) - QSeries({0: 1}, 100)
    assert (single.lead, single.step, single.slots) == (7, 0, [1])
    zero = single - QSeries({7: 1}, 100)
    assert (zero.lead, zero.step, zero.slots, zero.trunc) == (None, 0, [], 100)


# -- Miller's power recurrence against the replaced log/exp route --------------


def test_roots_of_j_theta_match_log_exp_route():
    # the weight-1/2 generator as the 24th root, and the q^31 fifth root of
    # the theta quotient's unit part from the denominator criterion
    for t in list(range(1, 61)) + [100, 300]:
        jt = qs.j_theta(48 * t)
        assert _same(jt.pow_rational(Fraction(1, 24)),
                     old_routes.pow_rational(jt, Fraction(1, 24))), t
    u = qs.j_theta(48 * 31).shift(24)
    assert _same(u.pow_rational(Fraction(1, 5)),
                 old_routes.pow_rational(u, Fraction(1, 5)))


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4),
                               Fraction(-7, 2), Fraction(1, 24)])
def test_pow_rational_matches_log_exp_route(r):
    rng = random.Random(int(r * 48))
    for trial in range(40):
        lead = r.denominator * rng.randint(-4, 4)
        a = _strided_series(rng, rng.choice(STRIDES), ("int", "fraction")[trial % 2],
                            lead=lead, monic=True)
        assert _same(a.pow_rational(r), old_routes.pow_rational(a, r)), (trial, a)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_inverse_runs_the_shared_miller_recurrence(kind):
    # inv is the recurrence at p/q = -1 started at 1/u_0: the loop it replaced
    # for every unit u_0; the square root of the monic unit part squares back,
    # which the (p+q)*k weights carry
    rng = random.Random(7 + len(kind))
    for u0 in (1, -1, 2, Fraction(3, 2)):
        for stride in (1, 24, 48):
            for trial in range(8):
                x = _strided_series(rng, stride, kind)
                x = QSeries({**x.coeffs, x.lead: u0}, x.trunc)
                _check(x.inv(), old_routes.inv(x))
                unit = x.shift(-x.lead).scale(qs._coeff_div(1, u0))
                root = unit.pow_rational(Fraction(1, 2))
                assert _same(root, old_routes.pow_rational(unit, Fraction(1, 2)))
                assert agree(root * root, unit), (u0, stride, trial)
    for route, message in ((QSeries.inv, "inverse of the zero series"),
                           (old_routes.inv, "inverse of the zero series"),
                           (lambda x: x.pow_rational(Fraction(1, 2)),
                            "fractional power of the zero series")):
        with pytest.raises(ZeroDivisionError) as exc:
            route(QSeries.zero(T))
        assert str(exc.value) == message


def test_pow_rational_errors_match_log_exp_route():
    for a, r in ((QSeries.zero(T), Fraction(1, 2)),
                 (QSeries({0: 2, 48: 1}, T), Fraction(1, 2)),
                 (QSeries({0: Fraction(1, 3)}, T), Fraction(-1, 3)),
                 (QSeries({5: 1, 53: 2}, T), Fraction(1, 2)),
                 (qs.j_theta(T), Fraction(1, 5))):
        errors = []
        for route in (QSeries.pow_rational, old_routes.pow_rational):
            with pytest.raises((ZeroDivisionError, ValueError)) as exc:
                route(a, r)
            errors.append((exc.type, str(exc.value)))
        assert errors[0] == errors[1], (a, r)


# -- eta quotients against the replaced product routes -------------------------

ORACLE_TRUNCS = list(range(1, 300)) + [4800, 9600]


def _outcome(f, *args):
    """Coefficients and trunc of f(*args), or the error it raises."""
    try:
        x = f(*args)
    except ZeroDivisionError as exc:
        return "raises", str(exc)
    return x.coeffs, x.trunc


def test_dilated_euler_product_matches_pentagonal_oracle():
    for t in ORACLE_TRUNCS:
        assert _outcome(qs.euler_product, t) == _outcome(old_routes.euler_product, t)
        for step in (1, 24, 96, 144):
            old = old_routes.euler_product(-(-GRID * t // step))
            dilated = QSeries({n // GRID * step: c for n, c in old.coeffs.items()}, t)
            assert _outcome(qs.euler_product, t, step) == (dilated.coeffs, t), (t, step)


def test_eta_quotients_match_replaced_routes():
    routes = [
        (qs.chi_half, lambda t: old_routes._prod_half_steps(t + 1, +1).shift(-1)),
        (qs.chi_half_minus, lambda t: old_routes._prod_half_steps(t + 1, -1).shift(-1)),
        (qs.cusp1_chi_half, lambda t: old_routes._prod_one_plus_qn(t - 2).shift(2)),
        (qs.chi_ising_16, lambda t: old_routes.chi_ising_16(t).truncate(t)),
    ]
    for new, old in routes:
        for t in ORACLE_TRUNCS:
            want = _outcome(old, t)
            if want[0] == "raises":  # an empty window: the old route inverted zero
                want = ({}, t)
            assert _outcome(new, t) == want, (new.__name__, t)


def test_catalog_series_end_at_their_trunc():
    params = {"c": 24, "h": 2}
    wrong = []
    for name, f in qs._CATALOG.items():
        args = [params[p] for p in qs.SERIES_PARAMS.get(name, ())]
        for t in (1, 2, 24, 47, 48, 49, 95, 96, 97, 480, 4800):
            if f(*args, t).trunc != t:
                wrong.append((name, t))
    assert wrong == []


def test_exact_catalog_matches_padded_routes():
    routes = [
        (qs.delta, old_routes.padded_delta),
        (qs.j_function, old_routes.padded_j_function),
        (qs.cbrt_j, old_routes.padded_cbrt_j),
        (qs.j_theta, old_routes.padded_j_theta),
        (qs.eta, old_routes.eta),
    ]
    for new, old in routes:
        for t in list(range(1, 150)) + [480, 481, 960]:
            _check(new(t), old(t).truncate(t))


def test_eta_quotient_of_one_factor_is_its_euler_product():
    assert qs.eta_quotient(((GRID, 1),), 100) == qs.euler_product(98).shift(2)
    assert qs.eta_quotient(((24, -1),), 100) == qs.euler_product(101, 24).inv().shift(-1)


CATALOG_QUOTIENTS = [((GRID, 1),), qs.HALF_STEPS_PLUS, qs.HALF_STEPS_MINUS, qs.ONE_PLUS_QN]


@pytest.mark.parametrize("scale", [1, -1, 8, -8, 24, -24])
def test_eta_quotient_prefactor_matches_shifted_route(scale):
    # the prefactor at index sum e*step/24 is the shift every caller made
    for exps in CATALOG_QUOTIENTS:
        exps = [(step, scale * e) for step, e in exps]
        lead = sum(step * e for step, e in exps) // 24
        for t in [lead + d for d in (-30, -1, 0, 1, 2, 23, 24, 25, 49, 97)] + [480]:
            new = qs.eta_quotient(exps, t)
            if t <= lead:
                assert new == QSeries.zero(t), (exps, t)
            else:
                _check(new, old_routes.eta_quotient(exps, t - lead).shift(lead))


def test_eta_quotient_prefactor_off_the_grid():
    with pytest.raises(GridError):
        qs.eta_quotient(((16, 1),), 100)


# -- one `**` against the inverse-then-binary powers and pow_rational -----------


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_negative_powers_match_inverse_then_binary(kind):
    rng = random.Random(11 + len(kind))
    for u0 in (1, -1, 2, Fraction(3, 2)):
        for stride in (1, 24, 48):
            for trial in range(3):
                x = _strided_series(rng, stride, kind)
                x = QSeries({**x.coeffs, x.lead: u0}, x.trunc)
                for n in range(-7, 1):
                    _check(x ** n, old_routes.binary_pow(x, n))


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4),
                               Fraction(-3, 2)])
def test_fractional_powers_match_pow_rational(r):
    rng = random.Random(int(r * 24))
    for trial in range(24):
        a = _strided_series(rng, rng.choice((1, 24, 48)), ("int", "fraction")[trial % 2],
                            lead=r.denominator * rng.randint(-15, 15), monic=True)
        _check(a ** r, old_routes.miller_pow_rational(a, r))
        assert a.pow_rational(r) == a ** r


def test_power_errors_match_inv_and_pow_rational():
    for a, r in ((QSeries.zero(T), -1), (QSeries.zero(T), -3),
                 (QSeries.zero(T), Fraction(1, 2)),
                 (QSeries({0: 2, 48: 1}, T), Fraction(1, 2)),
                 (QSeries({5: 1, 53: 2}, T), Fraction(1, 2))):
        errors = []
        for route in (QSeries.__pow__, old_routes.miller_pow_rational):
            with pytest.raises((ZeroDivisionError, ValueError)) as exc:
                route(a, r)
            errors.append((exc.type, str(exc.value)))
        assert errors[0] == errors[1], (a, r)
