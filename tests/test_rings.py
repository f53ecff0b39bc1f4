import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdissect.rings import (
    INTEGER,
    RATIONAL,
    CyclicLaurent,
    RingError,
    cyclic_ring,
)
from qdissect.series import Series, SeriesError

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def R(x):
    """x as a constant series over the rational ring."""
    return Series.monomial(RATIONAL, 0, 3, x)


def test_rational_add_example():
    assert R(Fraction(1, 3)) + R(Fraction(1, 6)) == R(Fraction(1, 2))


@given(rationals)
def test_rational_mul_identity(x):
    one = Series.one(RATIONAL, 3)
    assert R(x) * one == R(x)
    assert one * R(x) == R(x)


def test_rational_sub_matches_partition_cross_check():
    # p(4) = 5 minus a count of 4
    assert R(5) + R(4).scale(-1) == Series.one(RATIONAL, 3)


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
    for r in (R(x) + R(y), R(x) + R(y).scale(-1), R(x) * R(y)):
        c = r.coeff(0)
        assert type(c) is Fraction
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0


def test_count_vectors_have_no_arithmetic():
    ring = cyclic_ring(4)
    x = CyclicLaurent(4, (1, -1, 0, 2))
    assert x == CyclicLaurent(4, [1, -1, 0, 2]) and hash(x) == hash(CyclicLaurent(4, x.counts))
    assert x != CyclicLaurent(5, (1, -1, 0, 2, 0)) and x != 1
    assert x and not CyclicLaurent.zero(4) and ring.zero == CyclicLaurent.zero(4)
    assert repr(x) == "CyclicLaurent(4, (1, -1, 0, 2))"
    with pytest.raises(ValueError):
        CyclicLaurent(4, (1, 2, 3))
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "rotate", "augmentation"):
        assert not hasattr(CyclicLaurent, op), op
    with pytest.raises(TypeError):
        x + x
    with pytest.raises(RingError):
        ring.one
    with pytest.raises(RingError):
        ring.invert_unit(CyclicLaurent(4, (1, 0, 0, 0)), 0)
    with pytest.raises(RingError):
        ring.coerce(1)
    with pytest.raises(RingError):
        ring.coerce(CyclicLaurent(3, (1, 0, 0)))


def test_ring_tags():
    for modulus in (5, 11):
        assert cyclic_ring(modulus) is cyclic_ring(modulus)
        assert cyclic_ring(modulus).tag() == f"cyclic-laurent({modulus})"
    assert INTEGER.tag() == "integer"
    assert RATIONAL.tag() == "rational"
