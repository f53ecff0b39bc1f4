import json
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdissect.rings import INTEGER, RATIONAL, Ring, RingError, cyclic_ring, CyclicLaurent
from qdissect.series import Comparison, PrecisionError, Series, SeriesError
from qdissect import theta
from qdissect.partitions import count_series, deviation_series

import oracles


def S(coeffs, min_exp=0, prec=None, ring=INTEGER):
    """The series with these leading coefficients, padded with zeros up
    to prec (by default, no padding)."""
    if prec is None:
        prec = min_exp + len(coeffs)
    pad = [ring.zero] * (prec - min_exp - len(coeffs))
    return Series(ring, min_exp, list(coeffs) + pad, prec)


def test_add_zero_keeps_precision():
    f = S([1, 2, 3], prec=10)
    z = Series.zero(INTEGER, 10)
    assert (f + z) == f
    assert (f + z).prec == 10


def test_add_cancels():
    one_minus_q = S([1, -1], prec=8)
    q = Series.monomial(INTEGER, 1, 8)
    assert (one_minus_q + q) == Series.one(8)


def test_add_of_conjugate_thetas_matches_product_oracle():
    # j(q;q^2) + j(-q;q^2): the odd-exponent coefficients cancel and the
    # result is twice the even part; both sides checked against direct
    # factor-by-factor product expansion.
    prec = 21
    plus = oracles.product_expansion(
        [oracles.binomial(-1, e) for e in range(1, prec, 2)]
        + [oracles.binomial(-1, e) for e in range(1, prec, 2)]
        + [oracles.binomial(-1, e) for e in range(2, prec, 2)],
        prec,
    )
    minus = oracles.product_expansion(
        [oracles.binomial(1, e) for e in range(1, prec, 2)]
        + [oracles.binomial(1, e) for e in range(1, prec, 2)]
        + [oracles.binomial(-1, e) for e in range(2, prec, 2)],
        prec,
    )
    lhs = theta.theta_j(theta.J(1, 2), prec) + theta.theta_j(theta.Jbar(1, 2), prec)
    expected = oracles.poly_add(plus, minus)
    assert oracles.series_to_poly(lhs) == expected
    assert all(e % 2 == 0 for e in expected)


def test_mul_identity_and_shifted_monomials():
    f = S([2, 0, -1], prec=9)
    assert f * Series.one(9) == f.truncate(9)
    qinv = Series.monomial(INTEGER, -1, 5)
    q = Series.monomial(INTEGER, 1, 5)
    prod = qinv * q
    assert prod.coeff(0) == 1
    assert prod.min_exp == 0 and prod.prec == 4


def test_mul_window_rule():
    a = S([1, 1], min_exp=2, prec=10)
    b = S([1, -1], min_exp=-1, prec=7)
    prod = a * b
    assert prod.min_exp == 1
    assert prod.prec == min(10 + (-1), 7 + 2)


def test_theta_product_identity_to_100():
    lhs = theta.eta_quotient([theta.J(1, 5), theta.J(2, 5)], prec=101)
    rhs = theta.eta_quotient([theta.eta_atom(1), theta.eta_atom(5)], prec=101)
    assert lhs.compare(rhs).equal


def test_invert_geometric():
    inv = S([1, -1], prec=12).invert()
    assert [inv.coeff(i) for i in range(11)] == [1] * 11


def test_invert_monomial():
    inv = Series.monomial(INTEGER, 3, 10).invert()
    assert inv.coeff(-3) == 1
    assert inv.min_exp == -3


def test_invert_partition_generating_function():
    pgf = theta.theta_j(theta.eta_atom(1), 40).invert()
    assert pgf.coeff(4) == 5
    assert pgf.coeff(9) == len(oracles.partitions_of(9))
    assert pgf.coeff(9) == 30


def test_invert_requires_unit_lead():
    with pytest.raises(RingError, match="exponent 0"):
        S([2, 1], prec=6).invert()
    with pytest.raises(SeriesError):
        Series.zero(INTEGER, 6).invert()


def test_shift_examples():
    f = S([1, 2], prec=7)
    assert f.shift(0) is f
    q5 = Series.one(1).shift(5)
    assert q5.coeff(5) == 1 and q5.min_exp == 5 and q5.prec == 6


def test_shift_of_g_series_window():
    g = theta.mock_g(theta.GSpec(1, 2, 16), 20)
    assert g.min_exp == -2
    assert g.shift(2).min_exp == 0


def test_dissect_examples():
    f = S([1, 2, 3, 4, 5], prec=5)
    assert f.dissect(1, 0) == f
    total = Series.zero(INTEGER, 5)
    for r in range(3):
        total = total + f.dissect(3, r)
    assert total == f
    parts = [f.dissect(3, r) for r in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = {e for e, _ in parts[i].nonzero_items()} & {
                e for e, _ in parts[j].nonzero_items()
            }
            assert not overlap


def test_deflate_examples():
    f = Series.monomial(INTEGER, 2, 8) + Series.monomial(INTEGER, 6, 8)
    d = f.deflate(4, 2)
    assert d.coeff(0) == 1 and d.coeff(1) == 1
    g = S([1, 2, 3], prec=6)
    assert g.dissect(1, 0).deflate(1, 0) == g


def test_deflate_rejects_stray_coefficients():
    f = S([1, 0, 1, 1], prec=4)
    with pytest.raises(SeriesError, match="q\\^3"):
        f.deflate(2, 0)


def test_deflated_partition_progression_is_divisible():
    pgf = theta.theta_j(theta.eta_atom(1), 120).invert()
    fifth = pgf.dissect(5, 4).deflate(5, 4)
    for e, c in fifth.nonzero_items():
        assert c % 5 == 0


def test_dissect_deflate_inflate_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        prec = rng.randrange(5, 30)
        f = S([rng.randrange(-9, 10) for _ in range(prec + 2)], min_exp=-2, prec=prec)
        t = rng.randrange(1, 6)
        r = rng.randrange(t)
        part = f.dissect(t, r)
        for e in range(part.min_exp, part.prec):
            assert part.coeff(e) == (f.coeff(e) if e % t == r else 0)
        deflated = part.deflate(t, r)
        assert t * (deflated.prec - 1) + r < f.prec <= t * deflated.prec + r
        for n in range(deflated.min_exp, deflated.prec):
            assert deflated.coeff(n) == f.coeff(t * n + r)


def test_compare_reports_first_mismatch():
    a = Series.one(100)
    b = Series.one(100) + Series.monomial(INTEGER, 50, 100)
    cmp = a.compare(b)
    assert not cmp.equal
    assert (cmp.exponent, cmp.lhs, cmp.rhs) == (50, 0, 1)


def test_compare_equal_and_empty_window():
    f = S([1, 2], prec=30)
    assert f.compare(f).equal
    assert f.compare(f).verified_through == 30
    with pytest.raises(PrecisionError):
        Series.zero(INTEGER, 5).compare(Series.zero(INTEGER, 9))


def test_compare_ring_mismatch():
    with pytest.raises(RingError):
        Series.one(5).compare(Series.monomial(RATIONAL, 0, 5, Fraction(1)))


def test_constructor_checks_every_coefficient():
    with pytest.raises(RingError):
        Series(INTEGER, 0, [Fraction(1, 2)], 1)
    with pytest.raises(RingError):
        Series(INTEGER, 0, [1, 2, "3"], 3)
    with pytest.raises(RingError):  # the last slot is checked too
        Series(INTEGER, 0, [1] * 40 + [Fraction(1, 2)], 41)
    # nothing is converted: an integral Fraction is no int, an int no rational
    with pytest.raises(RingError, match=re.escape("Fraction(3, 1) is not in the integer ring")):
        Series(INTEGER, 0, [1, Fraction(3)], 2)
    with pytest.raises(RingError):
        Series(INTEGER, 0, [Fraction(3, 1), 5, 7], 3)
    with pytest.raises(RingError, match="^1 is not in the rational ring"):
        Series(RATIONAL, 0, [1, Fraction(1, 2)], 2)
    f = Series(RATIONAL, 0, [Fraction(1), Fraction(1, 2)], 2)
    assert f.coeffs == (Fraction(1), Fraction(1, 2))
    assert all(type(c) is Fraction for c in f.coeffs)
    ring = cyclic_ring(4)
    vector = CyclicLaurent(4, (1, 0, 0, 0))
    f = Series(ring, 0, [vector, CyclicLaurent(4, (2, 0, 0, 0))], 2)
    assert all(type(c) is CyclicLaurent for c in f.coeffs)
    with pytest.raises(RingError):
        Series(ring, 0, [vector, 2], 2)
    with pytest.raises(RingError):
        Series(ring, 0, [vector, CyclicLaurent(5, (1, 0, 0, 0, 0))], 2)


# a value outside each ring, for each way a value gets into a series:
# nothing is converted, so an integral Fraction is no int, an int is no
# rational, and a bool or a float is in no ring
REFUSED = [
    (INTEGER, True), (INTEGER, Fraction(3)), (INTEGER, 2.0),
    (RATIONAL, 1), (RATIONAL, True),
    (cyclic_ring(4), 2), (cyclic_ring(4), CyclicLaurent(5, (1, 0, 0, 0, 0))),
]


@pytest.mark.parametrize("ring, value", REFUSED,
                         ids=lambda x: x.tag() if isinstance(x, Ring) else type(x).__name__)
def test_every_ring_refuses_a_value_of_another_type(ring, value):
    own = _bumped(ring, ring.zero)

    def refused():
        message = f"{value!r} is not in the {ring.tag()} ring"
        return pytest.raises(RingError, match="^" + re.escape(message))

    for window in ([value], [own, value, own], [own] * 40 + [value]):
        with refused():
            Series(ring, 0, window, len(window))
    with refused():  # the first value that does not belong is named
        Series(ring, 0, [own, value, 2.5], 3)
    with refused():
        Series(ring, 0, [own], 1).extend([own, value])
    for exponent in (0, 5):  # checked even where the window ends below it
        with refused():
            Series.monomial(ring, exponent, 3, value)
    assert Series(ring, 0, [own, own], 2).coeffs == (own, own)


@pytest.mark.parametrize("min_exp, prec", [(0, 2.0), (0.0, 2), (False, 2), (0, True)])
def test_window_bounds_must_be_ints(min_exp, prec):
    with pytest.raises(SeriesError, match="must be ints"):
        Series(INTEGER, min_exp, [1, 2][: int(prec) - int(min_exp)], prec)


def test_window_coefficients_are_checked_again_under_another_ring():
    # a window method spares the constructor's scan for its own ring only;
    # the coefficients a series stores, passed in again, are outside input
    s = Series(INTEGER, -1, [3, -1, 4, 1, 5, 9], 5)
    for window in (s.truncate(3), s.shift(2), s.dissect(2, 1), s.extend([2, 6]),
                   Series.monomial(INTEGER, 1, 4, 7)):
        with pytest.raises(RingError, match="is not in the rational ring"):
            Series(RATIONAL, window.min_exp, window.coeffs, window.prec)
    counts = count_series("rank", 5, 12)
    for window in (counts.truncate(6), counts.shift(1), counts.dissect(3, 0), counts):
        with pytest.raises(RingError):
            Series(INTEGER, window.min_exp, window.coeffs, window.prec)
    # a bad value stays bad after a window of its own ring was built from it
    values = (Fraction(1), Fraction(1, 2), Fraction(2))
    window = Series(RATIONAL, 0, values, 3).truncate(2).shift(1)
    assert window.coeffs == (Fraction(1), Fraction(1, 2))
    for coeffs in (values, list(values)):
        with pytest.raises(RingError):
            Series(INTEGER, 0, coeffs, 3)
    # extend checks the coefficients it appends, and converts none of them
    assert s.extend([4]).coeffs == s.coeffs + (4,)
    with pytest.raises(RingError):
        s.extend([Fraction(4)])
    with pytest.raises(RingError):
        s.extend([1, Fraction(1, 2)])
    with pytest.raises(RingError):
        counts.extend([CyclicLaurent(4, (1, 0, 0, 0))])
    with pytest.raises(RingError):
        Series.monomial(INTEGER, 0, 3, Fraction(1, 2))


def test_coeff_window_discipline():
    f = S([1, 2], min_exp=3, prec=9)
    assert f.coeff(0) == 0  # below the window: known zero
    assert f.coeff(3) == 2 - 1
    with pytest.raises(PrecisionError):
        f.coeff(9)


def test_substitute_neg_q():
    f = S([1, 1, 1, 1], min_exp=-1, prec=3)
    g = f.substitute_neg_q()
    assert [g.coeff(e) for e in range(-1, 3)] == [-1, 1, -1, 1]


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=10)


@given(coeff_lists, coeff_lists, coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80)
def test_ring_axioms_on_series(xs, ys, zs, sh1, sh2):
    a = S(xs, min_exp=sh1, prec=sh1 + 12)
    b = S(ys, min_exp=sh2, prec=sh2 + 12)
    c = S(zs, prec=12)
    w = min((a + b).prec, c.prec)
    assert ((a + b) + c).truncate(w) == (a + (b + c)).truncate(w)
    assert a * b == b * a
    lhs = a * (b + c)
    rhs = a * b + a * c
    w = min(lhs.prec, rhs.prec)
    assert lhs.truncate(w) == rhs.truncate(w)
    prod = (a * b) * c
    prod2 = a * (b * c)
    w = min(prod.prec, prod2.prec)
    assert prod.truncate(w) == prod2.truncate(w)


def test_invert_round_trip_500_random_unit_series():
    rng = random.Random(20250810)
    for _ in range(500):
        prec = rng.randrange(4, 14)
        coeffs = [rng.choice([1, -1])] + [
            rng.randrange(-6, 7) for _ in range(prec - 1)
        ]
        f = S(coeffs, prec=prec)
        prod = f * f.invert()
        assert prod == Series.one(prod.prec)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_precision_never_overstated(xs, ys):
    # every stated coefficient of a truncated product must agree with the
    # same computation carried at higher precision
    a_hi = S(xs, prec=24)
    b_hi = S(ys, prec=24)
    hi = a_hi * b_hi
    lo = a_hi.truncate(12) * b_hi.truncate(10)
    for e in range(lo.min_exp, lo.prec):
        assert lo.coeff(e) == hi.coeff(e)
    inv_src = Series.one(20) + S(xs, min_exp=1, prec=20)
    for e in range(inv_src.truncate(9).invert().prec):
        assert inv_src.truncate(9).invert().coeff(e) == inv_src.invert().coeff(e)


# -- the product and inverse kernels against the dict oracles ------------------

# the arithmetic runs over the integers alone; rational and count-vector
# series are stored, compared and printed, never added or multiplied
KERNEL_RINGS = [INTEGER]
WINDOW_RINGS = KERNEL_RINGS + [RATIONAL, cyclic_ring(3)]
DENSITIES = [0.05, 0.3, 1.0]


def _random_coeff(rng, ring, bits=70):
    """+-1 (the add/sub rows of the product) or a nonzero value of up to
    `bits` bits; in the cyclic ring, a vector of such counts."""

    def big():
        return rng.choice([-1, 1]) * rng.randrange(1, 2**bits)

    if ring.kind == "cyclic-laurent":
        return CyclicLaurent(ring.modulus, [big() for _ in range(ring.modulus)])
    if rng.random() < 0.3:
        unit = rng.choice([1, -1])
        return Fraction(unit) if ring == RATIONAL else unit
    if ring == RATIONAL:
        return Fraction(big(), rng.randrange(1, 2**16))
    return big()


def _bumped(ring, c):
    """A coefficient other than c: c + 1, or c with one more count in
    class 0."""
    if ring.kind == "cyclic-laurent":
        return CyclicLaurent(ring.modulus, (c.counts[0] + 1,) + c.counts[1:])
    return c + 1


def _random_series(rng, ring, min_exp, length, density):
    coeffs = [
        _random_coeff(rng, ring) if rng.random() < density else ring.zero
        for _ in range(length)
    ]
    return Series(ring, min_exp, coeffs, min_exp + length)


def _check_product(a, b):
    prod = a * b
    assert prod.min_exp == a.min_exp + b.min_exp
    assert prod.prec == min(a.prec + b.min_exp, b.prec + a.min_exp)
    want = oracles.poly_mul(
        oracles.series_to_poly(a), oracles.series_to_poly(b), prod.prec
    )
    assert oracles.series_to_poly(prod) == want


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
def test_mul_matches_oracle(ring, density):
    rng = random.Random(f"mul {ring.tag()} {density}")
    for _ in range(20):
        a = _random_series(rng, ring, rng.randint(-3, 3), rng.randint(1, 50), density)
        b = _random_series(
            rng, ring, rng.randint(-3, 3), rng.randint(1, 50), rng.choice(DENSITIES)
        )
        _check_product(a, b)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
def test_mul_binomial_matches_oracle(ring):
    # (1 + c*q^e) is exact: only a negative e moves the window, down by |e|
    rng = random.Random(f"mul_binomial {ring.tag()}")
    for _ in range(30):
        a = _random_series(rng, ring, rng.randint(-3, 3), rng.randint(1, 40),
                           rng.choice(DENSITIES))
        c, e = _random_coeff(rng, ring), rng.choice([-7, -1, 1, 2, 13, 45])
        got = a.mul_binomial(c, e)
        drop = min(0, e)
        assert (got.min_exp, got.prec) == (a.min_exp + drop, a.prec + drop)
        want = oracles.poly_mul(
            oracles.series_to_poly(a), {0: 1, e: c}, got.prec
        )
        assert oracles.series_to_poly(got) == want
    with pytest.raises(SeriesError):
        a.mul_binomial(c, 0)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
def test_mul_by_zero_and_single_monomials(ring):
    rng = random.Random(f"monomials {ring.tag()}")
    a = _random_series(rng, ring, -2, 40, 0.3)
    zero = Series(ring, 1, [ring.zero] * 30, 31)
    _check_product(a, zero)
    _check_product(zero, a)
    for c in (1, -1, _random_coeff(rng, ring)):
        for e in (-3, 0, 5):
            monomial = Series.monomial(ring, e, e + 35, c)
            _check_product(a, monomial)
            _check_product(monomial, a)


# -- the two product paths: pairs of nonzeros, and slice rows -------------------


def _with_nonzeros(rng, min_exp, length, at):
    """A window of `length` whose nonzero coefficients sit at offsets `at`:
    +-1 or scaled values of up to 70 bits."""
    coeffs = [0] * length
    for i in at:
        coeffs[i] = _random_coeff(rng, INTEGER)
    return Series(INTEGER, min_exp, coeffs, min_exp + length)


def _factors(rng, length, dense_n, rows_n):
    """Two factors whose product window has `length`: the denser one with
    dense_n nonzeros, the sparser with rows_n, each with a nonzero at the
    window's last offset, so rows meet pairs that run past the window end.
    The sparser factor's window is longer, with nonzeros past `length`
    that the product never reads."""
    def offsets(n):
        return sorted({length - 1, *rng.sample(range(length - 1), n - 1)})

    dense = _with_nonzeros(rng, rng.randint(-5, 2), length, offsets(dense_n))
    rows = _with_nonzeros(rng, rng.randint(-5, 2), length + 7,
                          offsets(rows_n) + [length + 2, length + 6])
    return dense, rows


@pytest.mark.parametrize("length", [12, 13, 60, 61, 203])
def test_mul_paths_match_oracle_in_both_orders(length):
    # the denser factor sits just below the sparse rule (4 * nonzeros <
    # length: pairs of nonzeros) and at or just above it (slice rows); the
    # sparser factor has one nonzero or as many as the denser one, and
    # each product runs in both operand orders, so the factors swap
    rng = random.Random(f"mul paths {length}")
    for dense_n in ((length - 1) // 4, (length + 3) // 4):
        for rows_n in (1, 2, dense_n):
            for _ in range(3):
                a, b = _factors(rng, length, dense_n, rows_n)
                _check_product(a, b)
                _check_product(b, a)


@pytest.mark.parametrize("length, slices", [(41, False), (40, True),
                                            (401, False), (400, True)])
def test_mul_path_follows_the_sparse_rule(monkeypatch, length, slices):
    # with length // 4 nonzeros in the denser factor, 4 * nonzeros < length
    # walks the pairs of nonzeros, and 4 * nonzeros == length adds slice
    # rows, which alone call the operator functions of the series module
    calls = []

    def counted(op):
        def wrapped(x, y):
            calls.append(op)
            return op(x, y)
        return wrapped

    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(f"qdissect.series.{name}", counted(getattr(operator, name)))
    rng = random.Random(f"sparse rule {length}")
    a, b = _factors(rng, length, length // 4, 3)
    for x, y in ((a, b), (b, a)):
        calls.clear()
        _check_product(x, y)
        assert bool(calls) == slices


# -- addition and comparison against the dict oracle ---------------------------


def _poly(series):
    """Nonzero coefficients read straight off the stored window."""
    return {series.min_exp + i: c for i, c in enumerate(series.coeffs) if c}


def _window_of(ring, poly, lo, hi):
    return Series(ring, lo, [poly.get(e, ring.zero) for e in range(lo, hi)], hi)


def _oracle_first_mismatch(a, b):
    zero = a.ring.zero
    pa, pb = _poly(a), _poly(b)
    for e in range(min(a.min_exp, b.min_exp), min(a.prec, b.prec)):
        if pa.get(e, zero) != pb.get(e, zero):
            return e, pa.get(e, zero), pb.get(e, zero)
    return None


def _window_pairs(ring, rng):
    """Pairs over random windows, then the edge cases by name."""
    pairs = []
    for _ in range(40):
        base = {e: _random_coeff(rng, ring) for e in range(-6, 30)
                if rng.random() < 0.4}
        other = dict(base)
        if rng.random() < 0.6:
            other[rng.randrange(-6, 30)] = _random_coeff(rng, ring)
        lo_a, lo_b = rng.randint(-6, 8), rng.randint(-6, 8)
        pairs.append((
            _window_of(ring, base, lo_a, lo_a + rng.randint(0, 20)),
            _window_of(ring, other, lo_b, lo_b + rng.randint(0, 20)),
        ))
    f = {e: _random_coeff(rng, ring) for e in range(3, 25)}
    g = dict(f)
    g[1] = _random_coeff(rng, ring)
    h = dict(f)
    h[19] = _bumped(ring, h[19])
    named = [
        (_window_of(ring, f, -3, 12), _window_of(ring, f, 2, 15)),  # offset starts
        (_window_of(ring, f, 0, 10), _window_of(ring, f, 10, 20)),  # b at a's prec
        (_window_of(ring, f, 0, 10), _window_of(ring, f, 14, 20)),  # b beyond it
        (_window_of(ring, f, 0, 10), Series.zero(ring, 7)),  # an empty window
        (Series.zero(ring, 5), Series.zero(ring, 9)),  # two empty windows
        (_window_of(ring, f, 3, 20), _window_of(ring, g, 0, 20)),  # below a's start
        (_window_of(ring, f, 0, 20), _window_of(ring, h, -2, 25)),  # at upper - 1
        (_window_of(ring, f, -2, 20), _window_of(ring, f, 3, 20)),  # equal, padded
    ]
    pairs += named
    return pairs + [(b, a) for a, b in pairs]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
def test_add_matches_oracle(ring):
    for a, b in _window_pairs(ring, random.Random(f"add {ring.tag()}")):
        total = a + b
        prec = min(a.prec, b.prec)
        assert total.prec == prec
        assert total.min_exp == min(a.min_exp, b.min_exp, prec)
        want = {}
        for e, c in list(_poly(a).items()) + list(_poly(b).items()):
            if e < prec:
                want[e] = want[e] + c if e in want else c
        assert _poly(total) == {e: c for e, c in want.items() if c}


# -- the weighted-sum kernel -----------------------------------------------------


def test_combine_window_rule():
    a = S([1, 2, 3], min_exp=-2, prec=10)
    muted = S([5, 5], min_exp=-4, prec=7)
    wide = S([1] * 30, prec=30)
    out = Series.combine(8, [(2, a), (0, muted), (-1, wide)])
    # the zero-weight term still bounds the window at both ends
    assert (out.min_exp, out.prec) == (-4, 7)
    assert out.coeffs == (0, 0, 2, 4, 5, -1, -1, -1, -1, -1, -1)
    # prec bounds a term wider than it
    out = Series.combine(5, [(3, wide)])
    assert (out.min_exp, out.prec) == (0, 5) and out.coeffs == (3,) * 5
    out = Series.combine(5, [(1, S([7], min_exp=9, prec=12))])
    assert (out.min_exp, out.prec) == (5, 5)


def test_combine_of_no_terms_is_zero_through_prec():
    out = Series.combine(6, [])
    assert (out.ring, out.min_exp, out.prec, out.coeffs) == (INTEGER, 6, 6, ())


def test_combine_rejects_a_term_over_another_ring():
    one, half = Series.one(5), Series.monomial(RATIONAL, 0, 5, Fraction(1))
    with pytest.raises(RingError, match="ring mismatch: integer vs rational"):
        Series.combine(5, [(1, one), (0, half)])
    # the arithmetic names the integer ring it needs, whichever side is off
    for op in (lambda: half + one, lambda: one * half, lambda: half * one):
        with pytest.raises(RingError, match="ring mismatch: integer vs rational"):
            op()
    # compare reads two windows over any one ring, and names its own first
    with pytest.raises(RingError, match="ring mismatch: rational vs integer"):
        half.compare(one)


def test_combine_checks_each_scalar():
    zero, one = Series.zero(INTEGER, 4), Series.one(4)
    # the scalar itself is checked, even on a term with no coefficients, and
    # only an int is a scalar: Fraction(6, 3) is refused like 1/2
    for c in (Fraction(1, 2), Fraction(6, 3), True, 1.0):
        calls = [lambda: Series.combine(4, [(c, zero)]),
                 lambda: Series.combine(4, [(2, one), (c, one)]),
                 lambda: one.scale(c),
                 lambda: one.mul_binomial(c, 1),
                 lambda: one.div_binomial(c, 1)]
        for call in calls:
            with pytest.raises(RingError, match="^" + re.escape(f"{c!r} is not in the integer ring")):
                call()
    out = Series.combine(4, [(2, one)])
    assert out.coeffs == (2, 0, 0, 0) and all(type(c) is int for c in out.coeffs)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_combine_matches_folded_add_and_scale(ring, data):
    coeff = st.one_of(st.just(0), st.sampled_from([1, -1]), BIG_INTS)
    terms = []
    for _ in range(data.draw(st.integers(0, 5))):
        lo = data.draw(st.integers(-4, 6))
        coeffs = data.draw(st.lists(coeff, max_size=12))
        s = Series(ring, lo, coeffs, lo + len(coeffs))
        terms.append((data.draw(st.one_of(st.sampled_from([0, 1, -1]), BIG_INTS)), s))
    prec = data.draw(st.integers(-2, 20))
    folded = Series.zero(ring, prec)
    for c, s in terms:
        folded = folded + s.scale(c)
    out = Series.combine(prec, terms)
    assert (out.min_exp, out.prec, out.coeffs) == (folded.min_exp, folded.prec, folded.coeffs)
    for e in range(out.min_exp, out.prec):
        assert out.coeff(e) == sum((c * s.coeff(e) for c, s in terms), ring.zero)
    assert all(type(c) is type(ring.zero) for c in out.coeffs)


def _weighted_terms(rng, count, starts, prec):
    """count integer terms, each starting at a choice of starts and known
    through prec or a little further (one in 50 ends a little below it),
    weighted 0, +-1 or otherwise."""
    terms = []
    for _ in range(count):
        lo = rng.choice(starts)
        top = max(lo, prec) + rng.randint(0, 4)
        if rng.random() < 0.02:
            top = max(lo, prec - rng.randint(1, 6))
        coeffs = [rng.choice([0, 1, -1, rng.randint(-10**20, 10**20)]) for _ in range(lo, top)]
        weight = rng.choice([0, 1, -1, 2, -3, rng.randint(-10**20, 10**20)])
        terms.append((weight, Series(INTEGER, lo, coeffs, top)))
    return terms


@pytest.mark.parametrize("starts", [[-3], list(range(-20, 70))], ids=["aligned", "staggered"])
def test_combine_matches_the_weighted_sum_oracle(starts):
    # 500 terms: more than one chain's depth of aligned terms, or many
    # groups with staggered starts, some at or past prec
    rng = random.Random(f"combine {len(starts)}")
    for prec in (60, 1):
        terms = _weighted_terms(rng, 500, starts, prec)
        out = Series.combine(prec, terms)
        assert out.min_exp == min([prec, *(s.min_exp for _, s in terms)])
        assert out.prec == min([prec, *(s.prec for _, s in terms)])
        want = oracles.weighted_sum([(c, oracles.series_to_poly(s)) for c, s in terms], out.prec)
        assert oracles.series_to_poly(out) == want
        assert type(out.coeffs) is tuple and all(type(c) is int for c in out.coeffs)
    # one group that does not start at the window's start
    rng = random.Random("combine late group")
    late = _weighted_terms(rng, 40, [7], 30)
    out = Series.combine(30, [(0, Series.one(30)), *late])
    assert out.min_exp == 0 and out.coeffs[:7] == (0,) * 7
    assert oracles.series_to_poly(out) == oracles.weighted_sum(
        [(c, oracles.series_to_poly(s)) for c, s in late], out.prec)


def test_combine_sums_any_number_of_aligned_terms():
    # read as one chain, 150,000 nested maps would overflow the C stack
    s = S([1, -2, 3])
    out = Series.combine(3, [(1, s), (-1, s), (2, s)] * 50_000)
    assert out.coeffs == (100_000, -200_000, 300_000)


def test_dissect_reads_the_zero_once(monkeypatch):
    counts = count_series("rank", 5, 300)
    built = []
    real = CyclicLaurent.__init__

    def counting(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(CyclicLaurent, "__init__", counting)
    part = counts.dissect(3, 0)
    assert len(built) <= 1
    zero = CyclicLaurent.zero(5)
    assert part.coeffs == tuple(c if e % 3 == 0 else zero
                                for e, c in enumerate(counts.coeffs))


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=lambda r: r.tag())
def test_compare_matches_oracle(ring):
    for a, b in _window_pairs(ring, random.Random(f"compare {ring.tag()}")):
        upper = min(a.prec, b.prec)
        if upper <= min(a.min_exp, b.min_exp):
            with pytest.raises(PrecisionError):
                a.compare(b)
            continue
        cmp = a.compare(b)
        assert cmp.verified_through == upper
        first = _oracle_first_mismatch(a, b)
        if first is None:
            assert cmp == Comparison(True, upper)
        else:
            assert cmp == Comparison(False, upper, *first)


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=lambda r: r.tag())
def test_eq_matches_oracle(ring):
    pairs = _window_pairs(ring, random.Random(f"eq {ring.tag()}"))
    for a, b in pairs:
        assert (a == b) == (a.prec == b.prec and _poly(a) == _poly(b))
        w = min(a.prec, b.prec)
        a, b = a.truncate(w), b.truncate(w)
        assert (a == b) == (_poly(a) == _poly(b))
        assert (a == b) == (_oracle_first_mismatch(a, b) is None)
    a, b = pairs[-1]  # the padded pair: equal, though the windows differ
    assert a == b and a.min_exp != b.min_exp
    other = RATIONAL if ring != RATIONAL else INTEGER
    assert Series.zero(ring, 5) != Series.zero(other, 5)


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=lambda r: r.tag())
def test_compare_first_mismatch_edges(ring):
    one = _bumped(ring, ring.zero)
    two = _bumped(ring, one)
    f = {e: one for e in range(3, 25)}
    c = _random_coeff(random.Random(f"edges {ring.tag()}"), ring)
    lhs = _window_of(ring, f, 3, 20)
    rhs = _window_of(ring, {**f, 1: c}, 0, 20)
    # below lhs's start, where lhs is a known zero
    assert lhs.compare(rhs) == Comparison(False, 20, 1, ring.zero, c)
    assert rhs.compare(lhs) == Comparison(False, 20, 1, c, ring.zero)
    # at upper - 1, the last exponent both windows know
    rhs = _window_of(ring, {**f, 19: two}, -2, 25)
    assert lhs.compare(rhs) == Comparison(False, 20, 19, one, two)
    assert lhs != rhs.truncate(20)
    assert lhs.truncate(19).compare(rhs) == Comparison(True, 19)


def _check_inverse(f):
    inv = f.invert()
    v = f.valuation()
    assert inv.min_exp == -v
    assert inv.prec == f.prec - 2 * v
    lead = f.coeff(v)  # +-1, its own inverse
    g = {e - v: c * lead for e, c in oracles.series_to_poly(f).items()}
    want = {
        k - v: c * lead
        for k, c in oracles.poly_invert(g, f.prec - v).items()
    }
    assert oracles.series_to_poly(inv) == want


@pytest.mark.parametrize("density", [0.0] + DENSITIES)
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
def test_invert_matches_oracle(ring, density):
    # valuation v in 0..3 below a window that may start at a negative
    # exponent; density 0.0 inverts the single monomial lead * q^v
    rng = random.Random(f"invert {ring.tag()} {density}")
    for _ in range(20):
        v = rng.randint(0, 3)
        min_exp = rng.randint(-3, v)
        tail = _random_series(rng, ring, v + 1, rng.randint(0, 50), density)
        lead = rng.choice([1, -1])
        coeffs = [ring.zero] * (v - min_exp) + [lead] + list(tail.coeffs)
        _check_inverse(Series(ring, min_exp, coeffs, tail.prec))


# -- exact division against the dict oracles -----------------------------------


# nonzero integers of up to 70 bits
BIG_INTS = st.integers(1, 2**70).flatmap(lambda n: st.sampled_from([n, -n]))


@st.composite
def _division_case(draw, ring):
    """(dividend, divisor): a divisor with valuation v in -4..7, a unit
    lead, and a tail that is sparse (at most three nonzeros) or dense."""
    coeff = BIG_INTS
    window = st.lists(st.one_of(st.just(ring.zero), coeff), max_size=30)
    lo = draw(st.integers(-4, 4))
    coeffs = draw(window)
    dividend = Series(ring, lo, coeffs, lo + len(coeffs))

    lo = draw(st.integers(-4, 4))
    zeros = draw(st.integers(0, 3))
    lead = draw(st.sampled_from([1, -1]))
    length = draw(st.integers(0, 30))
    tail = [ring.zero] * length
    if draw(st.sampled_from(["sparse", "dense"])) == "dense":
        tail = draw(st.lists(coeff, min_size=length, max_size=length))
    elif length:
        for j, c in draw(st.dictionaries(st.integers(0, length - 1), coeff,
                                         max_size=3)).items():
            tail[j] = c
    coeffs = [ring.zero] * zeros + [lead] + tail
    return dividend, Series(ring, lo, coeffs, lo + len(coeffs))


def _check_division(a, d):
    b = a.divide(d)
    v = d.valuation()
    assert b.min_exp == a.min_exp - v
    assert b.prec == min(a.prec - v, d.prec - 2 * v + a.min_exp)
    # b * d is exact below b.prec + v, and equals a there
    want = oracles.series_to_poly(a, a.min_exp, b.prec + v)
    got = oracles.poly_mul(
        oracles.series_to_poly(b), oracles.series_to_poly(d), b.prec + v
    )
    assert got == want
    assert d.invert() == Series.one(d.prec - v).divide(d)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_divide_matches_oracle(ring, data):
    _check_division(*data.draw(_division_case(ring)))


def test_divide_error_paths():
    one = Series.one(20)
    for vanishing in (Series.zero(INTEGER, 6), S([0, 0, 0], min_exp=-2, prec=1)):
        with pytest.raises(SeriesError, match="vanishes"):
            one.divide(vanishing)
        with pytest.raises(SeriesError):
            vanishing.invert()
    # j(-1; q^4) = 2 + 2q^4 + ...: its lead 2 is no unit over the integers
    jbar = theta.theta_j(theta.Jbar(0, 4), 20)
    with pytest.raises(RingError, match="leading coefficient 2 at exponent 0"):
        one.divide(jbar)
    with pytest.raises(RingError, match="exponent 3"):
        one.divide(jbar.shift(3))
    with pytest.raises(RingError, match="ring mismatch"):
        Series.monomial(RATIONAL, 0, 20, Fraction(1)).divide(jbar)


@pytest.mark.parametrize("lead", [1, -1])
def test_divide_phases_match_oracle(lead):
    # the recurrence runs in phases between the divisor's nonzero offsets:
    # long windows with many phases, a first phase of length 1, scaled
    # rows, offsets at and past the window's end, and divisors with no
    # offset inside the window at all
    rng = random.Random(f"divide phases {lead}")

    def divisor(min_exp, v, length, offsets):
        coeffs = [0] * v + [lead] + [0] * (length - 1)
        for j in offsets:
            coeffs[v + j] = _random_coeff(rng, INTEGER)
        return Series(INTEGER, min_exp, coeffs, min_exp + v + length)

    def dividend(min_exp, length):
        return _random_series(rng, INTEGER, min_exp, length, 0.6)

    window = 230
    many = sorted(rng.sample(range(2, window), 40))
    cases = [
        (dividend(-3, window), divisor(-2, 3, window + 5, [1] + many)),
        (dividend(0, 200), divisor(0, 0, 200, rng.sample(range(1, 200), 30))),
        # the dividend's window is the shorter: offsets 49 (a last phase of
        # one coefficient), 50 (the window's end) and 51, 70 past it
        (dividend(-1, 50), divisor(1, 1, 80, [3, 49, 50, 51, 70])),
        # the divisor's window is the shorter: its offsets run to its end
        (dividend(2, 90), divisor(0, 2, 40, [5, 17, 39])),
        # no offset inside the window: a lone lead, then offsets past it
        (dividend(-2, 30), divisor(0, 0, 40, [])),
        (dividend(-2, 30), divisor(-1, 2, 40, [30, 33, 39])),
    ]
    for a, d in cases:
        _check_division(a, d)


# every method that computes a coefficient, with the series s in each
# operand slot the method has; `one` is an integer series
INTEGER_ONLY = {
    "+": lambda s, one: [lambda: s + one, lambda: one + s],
    "scale": lambda s, one: [lambda: s.scale(2)],
    "combine": lambda s, one: [lambda: Series.combine(s.prec, [(1, one), (0, s)])],
    "*": lambda s, one: [lambda: s * one, lambda: one * s],
    "divide": lambda s, one: [lambda: s.divide(one), lambda: one.divide(s)],
    "invert": lambda s, one: [lambda: s.invert()],
    "mul_binomial": lambda s, one: [lambda: s.mul_binomial(1, 2)],
    "div_binomial": lambda s, one: [lambda: s.div_binomial(1, 2)],
    "substitute_neg_q": lambda s, one: [lambda: s.substitute_neg_q()],
}
# the stored series of the other two rings, as the library hands them out
STORED = {
    "rational": lambda: deviation_series("crank", 1, 5, 12),
    "cyclic-laurent(5)": lambda: count_series("rank", 5, 12),
}


@pytest.mark.parametrize("method", INTEGER_ONLY)
@pytest.mark.parametrize("ring", [RATIONAL, cyclic_ring(5)], ids=lambda r: r.tag())
def test_arithmetic_refuses_other_rings(ring, method):
    s = STORED[ring.tag()]()
    assert s.ring == ring
    for call in INTEGER_ONLY[method](s, Series.one(s.prec)):
        with pytest.raises(RingError, match=re.escape(f"ring mismatch: integer vs {ring.tag()}")):
            call()


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=lambda r: r.tag())
def test_window_methods_work_on_every_ring(ring):
    rng = random.Random(f"window {ring.tag()}")
    poly = {e: _random_coeff(rng, ring) for e in range(-3, 20) if rng.random() < 0.5}
    f = _window_of(ring, poly, -3, 20)
    assert dict(f.nonzero_items()) == poly
    assert f.valuation() == min(poly)
    assert f.shift(4).coeff(7) == f.coeff(3) and f.shift(4).ring == ring
    assert f.truncate(9) == _window_of(ring, poly, -3, 9)
    part = f.dissect(3, 1)
    assert dict(part.nonzero_items()) == {e: c for e, c in poly.items() if e % 3 == 1}
    deflated = part.deflate(3, 1)
    for n in range(deflated.min_exp, deflated.prec):
        assert deflated.coeff(n) == f.coeff(3 * n + 1)
    # the default coefficient 1 is an int, so only the integer ring takes it;
    # every ring takes a coefficient of its own type
    one = _bumped(ring, ring.zero)
    assert Series.monomial(ring, 0, 2, one).coeffs == (one, ring.zero)
    if ring == INTEGER:
        assert Series.monomial(ring, 0, 2).coeffs == (1, 0)
    else:
        with pytest.raises(RingError, match="^1 is not in the"):
            Series.monomial(ring, 0, 2)


def test_kernels_through_q800():
    eta = theta.theta_j(theta.eta_atom(1), 800)
    jbar = theta.theta_j(theta.Jbar(1, 2), 800)
    prod = eta.invert() * jbar
    assert (prod.min_exp, prod.prec) == (0, 800)
    want = oracles.poly_mul(
        oracles.poly_invert(oracles.series_to_poly(eta), 800),
        oracles.series_to_poly(jbar),
        800,
    )
    assert oracles.series_to_poly(prod) == want
    assert jbar.divide(eta) == prod


def test_json_and_text_output_all_rings():
    samples = [
        (
            S([1, -2, 0, 3], min_exp=-2, prec=4),
            {"ring": "integer", "min_exp": -2, "prec": 4,
             "coeffs": [1, -2, 0, 3, 0, 0]},
            "ring=integer min_exp=-2 prec=4\n"
            "q^-2: 1\nq^-1: -2\nq^0: 0\nq^1: 3\nq^2: 0\nq^3: 0",
        ),
        (
            S([Fraction(1, 3), Fraction(-5, 2)], prec=3, ring=RATIONAL),
            {"ring": "rational", "min_exp": 0, "prec": 3,
             "coeffs": ["1/3", "-5/2", "0/1"]},
            "ring=rational min_exp=0 prec=3\nq^0: 1/3\nq^1: -5/2\nq^2: 0/1",
        ),
        (
            Series(
                cyclic_ring(3),
                0,
                [CyclicLaurent(3, (1, 0, -2)), CyclicLaurent(3, (0, 4, 0)),
                 CyclicLaurent.zero(3)],
                3,
            ),
            {"ring": "cyclic-laurent(3)", "min_exp": 0, "prec": 3,
             "coeffs": [[1, 0, -2], [0, 4, 0], [0, 0, 0]]},
            "ring=cyclic-laurent(3) min_exp=0 prec=3\n"
            "q^0: (1,0,-2)\nq^1: (0,4,0)\nq^2: (0,0,0)",
        ),
    ]
    for s, obj, text in samples:
        assert json.loads(json.dumps(s.to_json_obj())) == obj
        assert s.to_text() == text


def test_text_serialization_format():
    s = S([Fraction(3, 4), Fraction(-1, 2)], prec=2, ring=RATIONAL)
    text = s.to_text()
    assert text.splitlines()[0] == "ring=rational min_exp=0 prec=2"
    assert "q^0: 3/4" in text and "q^1: -1/2" in text


def test_golden_text_dump(pytestconfig):
    golden = pytestconfig.rootpath / "tests" / "golden" / "jbar_1_4_prec13.txt"
    s = theta.theta_j(theta.Jbar(1, 4), 13)
    assert s.to_text() + "\n" == golden.read_text()


def test_golden_json_dump(pytestconfig):
    from qdissect.partitions import deviation_series

    golden = pytestconfig.rootpath / "tests" / "golden" / "dev_crank_1_4_prec8.json"
    d = deviation_series("crank", 1, 4, 8)
    assert d.to_json_obj() == json.loads(golden.read_text())
