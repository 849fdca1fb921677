"""Field arithmetic in Q(zeta_48): canonical form, inverses, axioms."""

import random
from fractions import Fraction
from math import gcd

import pytest

from svoa.cyclo import Cyclo, sqrt2, zeta_pow


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


def test_mixed_scalar_ops():
    z = zeta_pow(5)
    assert z * 0 == Cyclo.from_rational(0)
    assert (z + 1) - 1 == z
    assert 2 / (z * z.inv() * 2) == 1
    assert (Fraction(3, 2) * z) / z == Fraction(3, 2)
