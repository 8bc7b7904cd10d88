"""Finite-field tables: frozen products, moduli, and exhaustive axioms."""

from __future__ import annotations

import pytest

from design_forge import FiniteField, NotPrimePower, field_create, prime_power
from tests.conftest import reference_field

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]

# every prime power up to 64, then two odd squares, a cube and 2^7
REFERENCE_ORDERS = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
    43, 47, 49, 53, 59, 61, 64, 81, 121, 125, 128,
]


def test_prime_power_factors():
    assert prime_power(2) == (2, 1)
    assert prime_power(3) == (3, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(5) == (5, 1)
    assert prime_power(7) == (7, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(16) == (2, 4)
    assert prime_power(25) == (5, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(49) == (7, 2)


def test_prime_power_rejects_composites():
    for q in (0, 1, 6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 100):
        assert prime_power(q) is None


def test_field_create_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 15):
        with pytest.raises(NotPrimePower):
            field_create(q)


def test_moduli_are_the_smallest_encodings():
    # Monic irreducible of degree m over GF(p) with the least little-endian
    # constant-part encoding, confirmed by hand against the full list of
    # irreducibles of these degrees.
    assert field_create(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_create(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert field_create(9).modulus == (1, 0, 1)  # x^2 + 1
    assert field_create(16).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_frozen_products():
    # Worked out by hand from the tabulated moduli: labels are little-endian
    # base-p digit vectors, e.g. in GF(4) label 2 = x and label 3 = x + 1.
    f4 = field_create(4)
    assert f4.mul(2, 2) == 3  # x * x = x + 1
    assert f4.mul(2, 3) == 1  # x(x + 1) = x^2 + x = 1
    assert f4.mul(3, 3) == 2  # (x + 1)^2 = x

    f8 = field_create(8)
    assert f8.mul(2, 4) == 3  # x * x^2 = x + 1
    assert f8.mul(4, 4) == 6  # x^4 = x^2 + x

    f9 = field_create(9)
    assert f9.mul(3, 3) == 2  # x * x = -1 = 2
    assert f9.add(4, 7) == 2  # (1 + x) + (1 + 2x) = 2


def test_prime_fields_are_modular_arithmetic():
    for q in (2, 3, 5, 7):
        f = field_create(q)
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == (a + b) % q
                assert f.mul(a, b) == (a * b) % q


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_create(q)
    elems = list(f.elements)
    assert elems == list(range(q))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", REFERENCE_ORDERS)
def test_tables_equal_schoolbook_arithmetic(q):
    f = field_create(q)
    add, mul, neg, inv = reference_field(f.p, f.modulus)
    # no zero divisors: the modulus is irreducible and the reference a field
    assert all(sorted(row) == list(range(q)) for row in mul[1:])
    assert f.add_table == add
    assert f.mul_table == mul
    assert f.neg_table == neg
    assert f.inv_table == inv


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_characteristic(q):
    f = field_create(q)
    total = 0
    for _ in range(f.p):
        total = f.add(total, 1)
    assert total == 0


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        field_create(5).inv(0)


def test_repr_names_the_order():
    assert repr(FiniteField(9)) == "FiniteField(9)"
