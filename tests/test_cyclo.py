"""Field arithmetic in Q(zeta_48): canonical form, inverses, axioms."""

import random
from fractions import Fraction
from math import gcd

import pytest

import old_routes
from old_routes import Dense
from svoa.cyclo import Cyclo, cyc_zero, dot, power, sqrt2, zeta_pow


def test_zeta_identities():
    assert zeta_pow(0) == 1
    assert zeta_pow(24) == -1
    assert zeta_pow(48) == 1
    assert zeta_pow(1) * zeta_pow(47) == 1


def test_sqrt2():
    s = sqrt2()
    assert s * s == 2
    # (zeta_8 + zeta_8^-1)^2 expanded in the power basis and reduced
    assert (zeta_pow(6) + zeta_pow(-6)) ** 2 == 2
    assert s.inv() == s * Fraction(1, 2)
    assert s.inv() * s == 1


def test_power_basis_reduction():
    # zeta^16 = zeta^8 - 1 modulo the 48th cyclotomic polynomial
    expected = Cyclo([-1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert zeta_pow(8) * zeta_pow(8) == expected
    assert zeta_pow(16) == expected


def test_inverses():
    assert zeta_pow(1).inv() == zeta_pow(47)
    assert Cyclo.from_rational(2).inv() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Cyclo.from_rational(0).inv()
    with pytest.raises(ZeroDivisionError):
        (1 + zeta_pow(24)).inv()


def _inverse_cases():
    rng = random.Random(48)
    yield sqrt2()
    for k in range(48):
        yield zeta_pow(k)
        if k != 24:
            yield 1 + zeta_pow(k)
    for _ in range(30):
        yield Cyclo([rng.randint(-10 ** 6, 10 ** 6) for _ in range(16)],
                    rng.randint(2, 10 ** 4))


def test_galois_norm_inverse_oracle():
    # closed forms: zeta^-k and sqrt2/2; otherwise a * a^-1 = 1 and a^-1^-1 = a
    assert all(zeta_pow(k).inv() == zeta_pow(-k) for k in range(48))
    assert sqrt2().inv() == sqrt2() * Fraction(1, 2)
    for a in _inverse_cases():
        assert a * a.inv() == 1
        assert a.inv().inv() == a


def _order(x):
    y = x
    for n in range(1, 100):
        if y == 1:
            return n
        y = y * x
    raise AssertionError("order > 99")


@pytest.mark.parametrize("k", list(range(1, 48)))
def test_root_of_unity_orders(k):
    assert _order(zeta_pow(k)) == 48 // gcd(k, 48)


def _random_element(rng):
    return Cyclo([rng.randint(-4, 4) for _ in range(16)], rng.randint(1, 6))


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(60):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == 1


_UNITS = [k for k in range(1, 48) if gcd(k, 48) == 1]


def test_galois_automorphisms_are_ring_maps():
    rng = random.Random(4747)
    for _ in range(20):
        a, b = _random_element(rng), _random_element(rng)
        for k in _UNITS + [-1]:
            assert (a + b).sigma(k) == a.sigma(k) + b.sigma(k)
            assert (a * b).sigma(k) == a.sigma(k) * b.sigma(k)
        assert a.sigma(1) == a
        assert a.sigma(-1).sigma(-1) == a
        assert a.sigma(5).sigma(29) == a.sigma(5 * 29)


def test_galois_conjugation():
    for j in range(48):
        assert zeta_pow(j).sigma(-1) == zeta_pow(-j) == zeta_pow(j).sigma(47)
        assert zeta_pow(j).sigma(5) == zeta_pow(5 * j)
    assert sqrt2().sigma(-1) == sqrt2()
    assert sqrt2().sigma(5) == -sqrt2()
    assert Cyclo.from_rational(Fraction(-3, 7)).sigma(13) == Fraction(-3, 7)
    with pytest.raises(ValueError):
        zeta_pow(1).sigma(2)


def test_rational_subfield_stable():
    rng = random.Random(7)
    for _ in range(40):
        a = Cyclo.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = Cyclo.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert (a * b).is_rational()
        assert (a + b).is_rational()
        assert (a * b).rational() == a.rational() * b.rational()


def test_canonical_hashing():
    # same value built two ways hashes identically
    a = zeta_pow(10) + zeta_pow(10)
    b = zeta_pow(10) * 2
    assert a == b and hash(a) == hash(b)
    assert len({zeta_pow(k % 48) for k in range(96)}) == 48


def test_rational_hash_agrees_with_eq():
    # a rational element is interchangeable with the int or Fraction it equals
    for r in (0, 2, -7, Fraction(1, 2), Fraction(-22, 3), 10 ** 30 + 1):
        x = Cyclo.from_rational(r)
        assert x == r and hash(x) == hash(r)
        assert r in {x} and x in {r} and {x: 1}[r] == 1
    assert 0 in {Cyclo([0])} and 2 in {zeta_pow(24) * -2}
    half = (zeta_pow(8) + zeta_pow(40)) * Fraction(1, 2)  # cos(pi/3)
    assert Fraction(1, 2) in {half} and half in {Fraction(1, 2)}
    assert zeta_pow(1) not in {Fraction(0)}


def test_mixed_scalar_ops():
    z = zeta_pow(5)
    assert z * 0 == Cyclo.from_rational(0)
    assert (z + 1) - 1 == z
    assert 2 / (z * z.inv() * 2) == 1
    assert (Fraction(3, 2) * z) / z == Fraction(3, 2)


# -- the fused kernel against the per-operation route ---------------------------


def _random_factor(rng):
    """A Cyclo, int or Fraction; zero about one time in eight."""
    kind = rng.randrange(8)
    big = 10 ** 6
    if kind == 0:
        return rng.choice([0, Fraction(0), cyc_zero()])
    if kind == 1:
        return rng.randint(-big, big)
    if kind == 2:
        return Fraction(rng.randint(-big, big), rng.randint(1, 12))
    nnz = rng.randint(1, 16)
    vec = [0] * 16
    for i in rng.sample(range(16), nnz):
        vec[i] = rng.randint(-big, big)
    return Cyclo(vec, rng.randint(1, 12))


def _naive(pairs, minus=()):
    acc = old_routes.ZERO
    for x, y in pairs:
        acc = acc + Dense.of(x) * Dense.of(y)
    for x, y in minus:
        acc = acc - Dense.of(x) * Dense.of(y)
    return acc


def _same(x, d):
    return isinstance(x, Cyclo) and (x.num, x.den) == (d.num, d.den)


def test_dot_matches_naive_sums():
    rng = random.Random(4848)
    for trial in range(300):
        pairs = [(_random_factor(rng), _random_factor(rng))
                 for _ in range(rng.randint(0, 6))]
        minus = [(_random_factor(rng), _random_factor(rng))
                 for _ in range(rng.randint(0, 3))]
        assert _same(dot(pairs, minus), _naive(pairs, minus)), trial
        assert _same(dot(iter(pairs)), _naive(pairs)), trial


def test_ring_operations_match_per_operation_route():
    rng = random.Random(96)
    for _ in range(200):
        x, y = _random_factor(rng), _random_factor(rng)
        if not isinstance(x, Cyclo):
            x = Cyclo.coerce(x)
        dx, dy = Dense.of(x), Dense.of(y)
        assert _same(x + y, dx + dy) and _same(y + x, dx + dy)
        assert _same(x - y, dx - dy) and _same(y - x, dy - dx)
        assert _same(x * y, dx * dy) and _same(y * x, dx * dy)
        assert _same(-x, -dx)


def test_zero_sum_is_canonical_zero():
    z = zeta_pow(5) * Fraction(7, 12) + 3
    for s in (dot([(z, 2)], [(z, 2)]), dot([(z, 1), (z, -1)]), z - z,
              dot([]), dot([(0, z), (z, Fraction(0))]), z * 0):
        assert s == Cyclo([0]) and hash(s) == hash(Cyclo([0]))
        assert s is cyc_zero() and s.num == (0,) * 16 and s.den == 1


def test_dense_num_round_trip():
    rng = random.Random(16)
    for _ in range(100):
        x = _random_factor(rng)
        x = Cyclo.coerce(x)
        assert Cyclo(x.num, x.den) == x
        assert x.terms == tuple((i, v) for i, v in enumerate(x.num) if v)


def test_mixing_other_types_is_a_type_error():
    with pytest.raises(TypeError):
        zeta_pow(1) + 1.5
    with pytest.raises(TypeError):
        dot([(zeta_pow(1), "2")])


class _Counted:
    """An integer that counts the multiplications made with it."""

    count = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        _Counted.count += 1
        return _Counted(self.v * other.v)


def test_power_uses_the_minimal_binary_chain():
    for n in range(1, 130):
        _Counted.count = 0
        assert power(_Counted(3), n).v == 3 ** n
        # squarings up to the top bit, one product per further set bit
        assert _Counted.count == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_cyclo_power_matches_repeated_products():
    z = sqrt2() + zeta_pow(7) * Fraction(1, 3)
    acc = Cyclo([1])
    for n in range(0, 40):
        assert z ** n == acc
        assert z ** -n == acc.inv()
        acc = acc * z
