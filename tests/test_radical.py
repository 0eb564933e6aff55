import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinnet.radical import Radical

rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(10_000), max_denominator=200
)
signed = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


@given(rationals)
def test_sqrt_squares_back(q):
    root = Radical.sqrt(q)
    assert root * root == Radical(q)
    assert math.isclose(float(root), math.sqrt(q), abs_tol=1e-12)


def test_large_prime_squares_back():
    # No factoring: a root of a large prime is as cheap as any other.
    p = 2**61 - 1
    root = Radical.sqrt(p)
    assert root * root == Radical(p)
    assert not root.is_rational()
    assert abs(float(root) - math.sqrt(p)) <= math.ulp(math.sqrt(p))


def test_product_collapses_to_rational():
    assert Radical.sqrt(2) * Radical.sqrt(8) == Radical(4)
    assert Radical.sqrt(Fraction(2, 3)) * -Radical.sqrt(6) == Radical(-2)


def test_division_by_single_term():
    x = Radical(-5) * Radical.sqrt(3)
    assert (x / Radical.sqrt(3)) * Radical.sqrt(3) == x
    assert x / Radical.sqrt(12) == Radical(Fraction(-5, 2))
    with pytest.raises(ZeroDivisionError):
        x / Radical(0)


def test_sum_of_incommensurable_roots_is_refused():
    with pytest.raises(ValueError):
        Radical.sqrt(2) + Radical.sqrt(3)
    with pytest.raises(ValueError):
        Radical(1) - Radical.sqrt(2)


def test_as_fraction_only_for_rationals():
    assert Radical(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert Radical(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
    assert (Radical.sqrt(2) * Radical.sqrt(18)).as_fraction() == 6
    with pytest.raises(ValueError):
        Radical.sqrt(2).as_fraction()


def test_equality_and_hash():
    assert Radical.sqrt(Fraction(1, 2)) == Radical.sqrt(2) / Radical(2)
    assert Radical(5) == Fraction(5)
    assert hash(Radical.sqrt(12)) == hash(Radical(2) * Radical.sqrt(3))
    assert Radical(0).is_zero() and not Radical.sqrt(7).is_zero()


@given(signed)
def test_hash_agrees_with_rationals_it_equals(q):
    # Equal values must hash alike, or sets and dicts hold both.
    assert Radical(q) == q and hash(Radical(q)) == hash(q)
    assert len({Radical(q), q}) == 1


def test_hash_of_a_rational_root():
    assert len({Radical(5), 5}) == len({Radical(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(Radical.sqrt(4)) == hash(2) and hash(-Radical.sqrt(Fraction(1, 9))) == hash(Fraction(-1, 3))


@given(rationals, signed, signed)
def test_commensurable_sums(a, s, t):
    # sqrt(a s^2) + sqrt(a t^2) == sqrt(a (s + t)^2), each root signed
    root = Radical.sqrt(a)
    assert Radical(s) * root + Radical(t) * root == Radical(s + t) * root
    assert Radical(s) * root - Radical(t) * root == Radical(s - t) * root


@given(rationals, rationals, signed, signed)
def test_field_identities(a, b, s, t):
    x = Radical.sqrt(b)
    y, z = Radical(s) * Radical.sqrt(a), Radical(t) * Radical.sqrt(a)
    assert x * (y + z) == x * y + x * z
    assert y + z == z + y
    assert (y - z) + z == y
    assert y + 0 == 0 + y == y
    assert math.isclose(float(x * y), math.sqrt(b) * float(s) * math.sqrt(a), abs_tol=1e-9)


@given(st.fractions(min_value=0, max_value=10**300, max_denominator=10**300))
def test_float_within_an_ulp_of_math_sqrt(q):
    expected = math.sqrt(q)
    assert abs(float(Radical.sqrt(q)) - expected) <= math.ulp(expected)
    assert float(-Radical.sqrt(q)) == -float(Radical.sqrt(q))


def test_float_of_roots_beyond_the_float_range_of_their_squares():
    assert float(Radical.sqrt(Fraction(1, 10**400))) == 1e-200
    assert float(Radical.sqrt(10**400)) == 1e200
    assert float(-Radical.sqrt(10**400)) == -1e200
