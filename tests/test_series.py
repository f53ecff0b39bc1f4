import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdissect.rings import INTEGER, RATIONAL, RingError, cyclic_ring, CyclicLaurent
from qdissect.series import Comparison, PrecisionError, Series, SeriesError
from qdissect import theta

import oracles


def S(coeffs, min_exp=0, prec=None, ring=INTEGER):
    return Series.from_coeffs(ring, min_exp, coeffs, prec)


def test_add_zero_keeps_precision():
    f = S([1, 2, 3], prec=10)
    z = Series.zero(INTEGER, 10)
    assert (f + z) == f
    assert (f + z).prec == 10


def test_add_cancels():
    one_minus_q = S([1, -1], prec=8)
    q = Series.monomial(INTEGER, 1, 8)
    assert (one_minus_q + q) == Series.one(INTEGER, 8)


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
    assert f * Series.one(INTEGER, 9) == f.truncate(9)
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
    q5 = Series.one(INTEGER, 1).shift(5)
    assert q5.coeff(5) == 1 and q5.min_exp == 5 and q5.prec == 6


def test_shift_of_g_series_window():
    g = theta.mock_g(theta.GSpec(1, 2, 16), 20)
    assert g.min_exp == -2
    assert g.shift(2).min_exp == 0


def test_inflate_examples_and_rule():
    f = S([1, 1], prec=5)
    assert f.inflate(1) is f
    g = S([1, 1], prec=2).inflate(3)
    assert g.coeff(0) == 1 and g.coeff(3) == 1
    assert g.prec == 3 * (2 - 1) + 1
    h = S([5, 7], min_exp=-1, prec=4).inflate(2)
    assert h.prec == 2 * (4 - 1) + 1 and h.min_exp == -2


def test_inflate_eta_matches_direct_product():
    j1 = theta.theta_j(theta.eta_atom(1), 16)
    j2 = theta.theta_j(theta.eta_atom(2), 31)
    infl = j1.inflate(2)
    assert oracles.series_to_poly(infl) == oracles.series_to_poly(j2)
    assert oracles.series_to_poly(j2) == oracles.pochhammer_product(1, 2, 2, 31)


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
        rebuilt = part.deflate(t, r).inflate(t).shift(r)
        assert rebuilt.truncate(min(rebuilt.prec, part.prec)) == part.truncate(
            min(rebuilt.prec, part.prec)
        )


def test_compare_reports_first_mismatch():
    a = Series.one(INTEGER, 100)
    b = Series.one(INTEGER, 100) + Series.monomial(INTEGER, 50, 100)
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
        Series.one(INTEGER, 5).compare(Series.one(RATIONAL, 5))


def test_constructor_checks_every_coefficient():
    with pytest.raises(RingError):
        Series(INTEGER, 0, [Fraction(1, 2)], 1)
    with pytest.raises(RingError):
        Series(INTEGER, 0, [1, 2, "3"], 3)
    with pytest.raises(RingError):  # the last slot is checked too
        Series(INTEGER, 0, [1] * 40 + [Fraction(1, 2)], 41)
    f = Series(INTEGER, 0, [1, Fraction(3)], 2)
    assert f.coeffs == (1, 3) and type(f.coeffs[1]) is int
    f = Series(INTEGER, 0, [Fraction(3, 1), 5, 7], 3)
    assert f.coeffs == (3, 5, 7) and all(type(c) is int for c in f.coeffs)
    f = Series(RATIONAL, 0, [1, Fraction(1, 2)], 2)
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
        assert prod == Series.one(INTEGER, prod.prec)


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
    inv_src = Series.one(INTEGER, 20) + S(xs, min_exp=1, prec=20)
    for e in range(inv_src.truncate(9).invert().prec):
        assert inv_src.truncate(9).invert().coeff(e) == inv_src.invert().coeff(e)


# -- the product and inverse kernels against the dict oracles ------------------

KERNEL_RINGS = [INTEGER, RATIONAL]
# the cyclic ring holds count vectors: compared, never added or multiplied
WINDOW_RINGS = KERNEL_RINGS + [cyclic_ring(3)]
DENSITIES = [0.05, 0.3, 1.0]


def _random_coeff(rng, ring, bits=70):
    """+-1 (the add/sub rows of the product) or a nonzero value of up to
    `bits` bits; in the cyclic ring, a vector of such counts."""

    def big():
        return rng.choice([-1, 1]) * rng.randrange(1, 2**bits)

    if ring.kind == "cyclic-laurent":
        return CyclicLaurent(ring.modulus, [big() for _ in range(ring.modulus)])
    if rng.random() < 0.3:
        return rng.choice([ring.one, -ring.one])
    if ring == RATIONAL:
        return Fraction(big(), rng.randrange(1, 2**16))
    return big()


def _bumped(ring, c):
    """A coefficient other than c: c + 1, or c with one more count in
    class 0."""
    if ring.kind == "cyclic-laurent":
        return CyclicLaurent(ring.modulus, (c.counts[0] + 1,) + c.counts[1:])
    return c + ring.one


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
def test_mul_by_zero_and_single_monomials(ring):
    rng = random.Random(f"monomials {ring.tag()}")
    a = _random_series(rng, ring, -2, 40, 0.3)
    zero = Series(ring, 1, [ring.zero] * 30, 31)
    _check_product(a, zero)
    _check_product(zero, a)
    for c in (ring.one, -ring.one, _random_coeff(rng, ring)):
        for e in (-3, 0, 5):
            monomial = Series.monomial(ring, e, e + 35, c)
            _check_product(a, monomial)
            _check_product(monomial, a)


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
    lead = f.coeff(v)
    lead_inv = lead if f.ring == INTEGER else 1 / lead
    g = {e - v: c * lead_inv for e, c in oracles.series_to_poly(f).items()}
    want = {
        k - v: c * lead_inv
        for k, c in oracles.poly_invert(g, f.prec - v).items()
    }
    assert oracles.series_to_poly(inv) == want


@pytest.mark.parametrize("density", [0.0] + DENSITIES)
@pytest.mark.parametrize("ring", [INTEGER, RATIONAL], ids=lambda r: r.tag())
def test_invert_matches_oracle(ring, density):
    # valuation v in 0..3 below a window that may start at a negative
    # exponent; density 0.0 inverts the single monomial lead * q^v
    rng = random.Random(f"invert {ring.tag()} {density}")
    for _ in range(20):
        v = rng.randint(0, 3)
        min_exp = rng.randint(-3, v)
        tail = _random_series(rng, ring, v + 1, rng.randint(0, 50), density)
        if ring == INTEGER:
            lead = rng.choice([1, -1])
        else:
            lead = _random_coeff(rng, ring)
        coeffs = [ring.zero] * (v - min_exp) + [lead] + list(tail.coeffs)
        _check_inverse(Series(ring, min_exp, coeffs, tail.prec))


# -- exact division against the dict oracles -----------------------------------


def _hyp_coeffs(ring):
    """Nonzero values of up to 70 bits, with a denominator over RATIONAL."""
    big = st.integers(1, 2**70).flatmap(lambda n: st.sampled_from([n, -n]))
    if ring == INTEGER:
        return big
    return st.builds(Fraction, big, st.integers(1, 2**16))


@st.composite
def _division_case(draw, ring):
    """(dividend, divisor): a divisor with valuation v in -4..7, a unit
    lead, and a tail that is sparse (at most three nonzeros) or dense."""
    coeff = _hyp_coeffs(ring)
    window = st.lists(st.one_of(st.just(ring.zero), coeff), max_size=30)
    lo = draw(st.integers(-4, 4))
    coeffs = draw(window)
    dividend = Series(ring, lo, coeffs, lo + len(coeffs))

    lo = draw(st.integers(-4, 4))
    zeros = draw(st.integers(0, 3))
    lead = draw(st.sampled_from([1, -1]) if ring == INTEGER else coeff)
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
    assert d.invert() == Series.one(d.ring, d.prec - v).divide(d)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.tag())
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_divide_matches_oracle(ring, data):
    _check_division(*data.draw(_division_case(ring)))


def test_divide_error_paths():
    one = Series.one(INTEGER, 20)
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
        Series.one(RATIONAL, 20).divide(jbar)


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
            Series.from_coeffs(
                cyclic_ring(3),
                0,
                [CyclicLaurent(3, (1, 0, -2)), CyclicLaurent(3, (0, 4, 0))],
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
