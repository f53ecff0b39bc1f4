import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdissect.rings import (
    RATIONAL,
    CyclicLaurent,
    RingError,
    cyclic_ring,
    ring_from_tag,
)
from qdissect.series import Series, SeriesError

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def R(x):
    """x as a constant series over the rational ring."""
    return Series.constant(RATIONAL, x, 3)


def test_rational_add_example():
    assert R(Fraction(1, 3)) + R(Fraction(1, 6)) == R(Fraction(1, 2))


@given(rationals)
def test_rational_mul_identity(x):
    one = Series.one(RATIONAL, 3)
    assert R(x) * one == R(x)
    assert one * R(x) == R(x)


def test_rational_sub_matches_partition_cross_check():
    # p(4) = 5 minus a count of 4
    assert R(5) - R(4) == Series.one(RATIONAL, 3)


def test_rational_div_by_zero_is_an_error():
    with pytest.raises(RingError):
        RATIONAL.invert_unit(Fraction(0), 0)
    with pytest.raises(SeriesError):
        R(0).invert()


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(x, y, z):
    assert R(x) + R(y) == R(y) + R(x)
    assert (R(x) + R(y)) + R(z) == R(x) + (R(y) + R(z))
    assert R(x) * (R(y) + R(z)) == R(x) * R(y) + R(x) * R(z)


@given(rationals, rationals)
def test_rational_results_in_lowest_terms(x, y):
    for r in (R(x) + R(y), R(x) - R(y), R(x) * R(y)):
        c = r.coeff(0)
        assert type(c) is Fraction
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0


def test_cyclic_wraparound():
    z = CyclicLaurent.z_power
    assert z(1, 4) * z(3, 4) == CyclicLaurent.one(4)


def test_cyclic_all_ones_squared():
    x = CyclicLaurent(5, (1, 1, 1, 1, 1))
    assert (x * x).counts == (5, 5, 5, 5, 5)


def test_cyclic_z_plus_zinv_squared():
    # (z + z^-1)^2 = z^2 + 2 + z^-2 = 2 + z + z^2 in Z[z]/(z^3-1)
    x = CyclicLaurent(3, (0, 1, 1))
    expected = {}
    for i in (1, 2):
        for j in (1, 2):
            k = (i + j) % 3
            expected[k] = expected.get(k, 0) + 1
    assert (x * x).counts == tuple(expected.get(r, 0) for r in range(3))
    assert (x * x).counts == (2, 1, 1)


def test_cyclic_z_power_examples():
    z = CyclicLaurent.z_power
    assert z(0, 7) == CyclicLaurent.one(7)
    assert z(-1, 4) == CyclicLaurent(4, (0, 0, 0, 1))
    assert z(10, 4) == CyclicLaurent(4, (0, 0, 1, 0))


def test_cyclic_modulus_mismatch():
    with pytest.raises(RingError):
        CyclicLaurent.one(3) * CyclicLaurent.one(4)
    with pytest.raises(RingError):
        CyclicLaurent.one(3) + CyclicLaurent.one(5)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_cyclic_mul_commutative(m, data):
    vec = st.lists(st.integers(min_value=-50, max_value=50), min_size=m, max_size=m)
    x = CyclicLaurent(m, data.draw(vec))
    y = CyclicLaurent(m, data.draw(vec))
    assert x * y == y * x


@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_cyclic_mul_associative_and_augmentation(m, data):
    vec = st.lists(st.integers(min_value=-20, max_value=20), min_size=m, max_size=m)
    x, y, z = (CyclicLaurent(m, data.draw(vec)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert (x * y).augmentation() == x.augmentation() * y.augmentation()
    assert (x + y).augmentation() == x.augmentation() + y.augmentation()


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=9),
)
def test_cyclic_z_power_is_a_homomorphism(a, b, m):
    z = CyclicLaurent.z_power
    assert z(a, m) * z(b, m) == z(a + b, m)


def test_ring_tags_round_trip():
    for ring in (cyclic_ring(5), cyclic_ring(11)):
        assert ring_from_tag(ring.tag()) is ring
    assert ring_from_tag("integer").tag() == "integer"
    assert ring_from_tag("rational").tag() == "rational"


def test_cyclic_rotate_matches_z_power_multiplication():
    x = CyclicLaurent(6, (1, 2, 3, 4, 5, 6))
    for e in range(-7, 8):
        assert x.rotate(e) == x * CyclicLaurent.z_power(e, 6)
