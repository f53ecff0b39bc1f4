from functools import reduce
from operator import mul

import pytest

from qdissect.rings import INTEGER, RingError
from qdissect.series import Series, SeriesError
from qdissect import partitions, theta
from qdissect.identities import G, build_side, verify_all, verify_identity
from qdissect.registry import _eq, build_registry, deviation, family, terms
from qdissect.theta import (
    GSpec,
    J,
    Jbar,
    ThetaAtom,
    eta_atom,
    eta_quotient,
    eulerian_sum,
    mock_g,
    theta_j,
    theta_j_sum,
)

import oracles


def test_theta_j_product_rearrangements():
    lhs = theta_j(J(1, 2), 51)
    rhs = eta_quotient([(eta_atom(1), 2)], [eta_atom(2)], prec=51)
    assert lhs.compare(rhs).equal
    lhs = theta_j(Jbar(1, 3), 51)
    rhs = eta_quotient(
        [eta_atom(2), (eta_atom(3), 2)], [eta_atom(1), eta_atom(6)], prec=51
    )
    assert lhs.compare(rhs).equal


def test_theta_j_eta_alias():
    assert theta_j(J(1, 3), 60) == theta_j(eta_atom(1), 60)


def test_theta_j_vanishing_case():
    z = theta_j(J(8, 8), 30)
    assert z.valuation() is None
    z = theta_j(J(0, 5), 30)
    assert z.valuation() is None


def test_theta_sum_telescopes_at_one():
    assert theta_j_sum(J(0, 4), 80).valuation() is None


def test_theta_sum_lowest_terms():
    s = theta_j_sum(J(5, 25), 30)
    assert oracles.series_to_poly(s) == {0: 1, 5: -1, 20: -1}


def _canonical(atom):
    """(unit, shift, canonical atom) of the atom's normal form, so that
    j(atom) = unit * q^shift * j(canonical atom)."""
    unit, shift, ((sign, a, m, k),) = theta._normal_form([atom], (), 0)
    assert k == 1 and 0 <= 2 * a <= m
    return unit, shift, ThetaAtom(sign, a, m)


def _assert_canonical_matches_product(atom, prec):
    """theta_j of the atom's canonical form equals the triple product,
    over the whole window the folded atom asks of the kernel."""
    if theta._normal_form([atom], (), 0) is None:
        # j(q^(mk); q^m) vanishes: so does the product, through (1; q^m)
        assert oracles.triple_product(atom.sign, atom.a % atom.m, atom.m, prec) == {}
        return
    _, d, canonical = _canonical(atom)
    got = theta_j(canonical, prec - d)
    expected = oracles.triple_product(
        canonical.sign, canonical.a, canonical.m, prec - d
    )
    assert oracles.series_to_poly(got) == expected, atom


def test_sum_equals_product_for_folded_and_unfolded_atoms():
    for atom in (Jbar(1, 4), J(3, 2), Jbar(23, 16), J(-2, 5), Jbar(0, 8)):
        assert theta_j_sum(atom, 201).compare(theta_j(atom, 201)).equal
        _assert_canonical_matches_product(atom, 201)


def test_sum_bound_through_q800():
    for atom in (J(1, 1), Jbar(0, 2), J(1, 5), Jbar(130, 16), J(5, 64)):
        assert theta_j_sum(atom, 801).compare(theta_j(atom, 801)).equal
        _assert_canonical_matches_product(atom, 801)


def test_folding_prefactor_is_exact():
    # j(q^(a+m) x; q^m) = -x^-1 j(x;q^m) iterated: check the monomial
    for atom in (J(9, 4), Jbar(-5, 3), J(-1, 6), Jbar(130, 16)):
        scale, d, canonical = _canonical(atom)
        lhs = theta_j_sum(atom, 40)  # the unfolded atom
        rhs = theta_j_sum(canonical, 40 - d).shift(d).scale(scale)
        assert lhs.compare(rhs).equal
        assert theta_j(atom, 40).compare(lhs).equal
        # the denominator folds by the same law, inverted
        sign, a, m = canonical.sign, canonical.a, canonical.m
        assert theta._normal_form((), [atom], 0) == (scale, -d, ((sign, a, m, -1),))


def test_eta_quotient_cancellation():
    one = eta_quotient(
        [J(1, 5), J(2, 5)], [eta_atom(1), eta_atom(5)], prec=101
    )
    assert one == Series.one(101)
    one = eta_quotient(
        [J(1, 7), J(2, 7), J(3, 7)], [eta_atom(1), (eta_atom(7), 2)], prec=101
    )
    assert one == Series.one(101)


def test_eta_quotient_empty_is_one(monkeypatch):
    assert eta_quotient(prec=10) == Series.one(10)
    # with no factor left, unit * q^shift is built as the monomial window
    # and the memo stores nothing: j(q^3;q^2)/j(q;q^2) = -q^-1
    monkeypatch.setattr(theta, "_memo", {})
    assert eta_quotient(shift=3, prec=10) == Series.monomial(INTEGER, 3, 10)
    assert eta_quotient([J(3, 2)], [J(1, 2)], prec=10) == Series.monomial(INTEGER, -1, 10, -1)
    assert theta._memo == {}


def test_eta_quotient_zero_numerator_and_bad_denominator():
    z = eta_quotient([J(4, 4)], prec=20)
    assert z.valuation() is None
    with pytest.raises(SeriesError):
        eta_quotient([eta_atom(1)], [J(10, 5)], prec=20)


def test_zero_over_zero_raises():
    # every atom is read before the quotient is called zero, so a vanishing
    # denominator raises even where a numerator atom vanishes too
    for num, den in (([J(0, 5)], [J(5, 5)]), ([J(5, 5), J(1, 3)], [J(1, 4), J(0, 3)])):
        with pytest.raises(SeriesError):
            eta_quotient(num, den, prec=20)
    assert eta_quotient([J(0, 5)], [J(1, 5)], prec=20).valuation() is None


def test_mock_g_leading_terms():
    # x = -q^2, base q^16: x^-1(-1 + 1/(1-x) + ...) = 1 - q^2 + q^4 - ...
    g = mock_g(GSpec(-1, 2, 16), 14)
    inner = oracles.poly_invert({0: 1, 2: 1}, 16)  # 1/(1+q^2)
    inner = oracles.poly_add(inner, {0: -1})
    expected = {e - 2: -c for e, c in inner.items()}  # times -q^-2
    assert oracles.series_to_poly(g) == {e: c for e, c in expected.items() if e < 14}
    assert g.min_exp == -2
    assert (g.shift(2) + Series.monomial(INTEGER, 0, 16, -1)).coeff(0) == -1


def test_mock_g_term_bound_is_sound():
    for spec in (GSpec(1, 2, 10), GSpec(-1, 6, 16), GSpec(1, 10, 25)):
        lo = mock_g(spec, 60)
        hi = mock_g(spec, 120)
        assert hi.truncate(60) == lo


def test_mock_g_agrees_with_the_appell_lerch_form():
    specs = {part.spec for entry in build_registry() for side in entry.sides
             for _, part in side if type(part) is G}
    assert len(specs) == 58
    for spec in specs:
        got = oracles.series_to_poly(mock_g(spec, 300))
        assert got == oracles.g_appell_lerch(spec.sign, spec.a, spec.m, 300), spec


def test_the_appell_lerch_form_refuses_a_flipped_sign():
    for spec in (GSpec(1, 2, 10), GSpec(-1, 6, 16), GSpec(1, 1, 4)):
        got = oracles.series_to_poly(mock_g(spec, 100))
        assert got != oracles.g_appell_lerch(-spec.sign, spec.a, spec.m, 100), spec


def test_mock_g_precondition():
    with pytest.raises(ValueError):
        GSpec(1, 0, 4)
    with pytest.raises(ValueError):
        GSpec(1, 5, 5)


def test_eulerian_constant_terms():
    assert eulerian_sum("f0", 40).coeff(0) == 1
    assert eulerian_sum("f1", 40).coeff(0) == 1


def test_eulerian_sums_match_term_oracle():
    prec = 17
    for kind, exponent in (("f0", lambda n: n * n), ("f1", lambda n: n * n + n)):
        expected = {0: 1}
        for n in range(1, 5):
            denom = oracles.product_expansion(
                [oracles.binomial(1, i) for i in range(1, n + 1)], prec
            )
            term = oracles.poly_invert(denom, prec)
            term = {e + exponent(n): c for e, c in term.items() if e + exponent(n) < prec}
            expected = oracles.poly_add(expected, term)
        got = eulerian_sum(kind, prec)
        assert oracles.series_to_poly(got) == expected


def test_mock_theta_f0_expression():
    f0 = eulerian_sum("f0", 101)
    rhs = mock_g(GSpec(1, 2, 10), 99).shift(2).scale(-2) + eta_quotient(
        [J(5, 10), J(2, 5)], [eta_atom(1)], prec=101
    )
    assert f0.compare(rhs).equal


def test_gsplit_instance_matches_direct_evaluation():
    # the lost-notebook split at x = q, base q^4
    prec = 81
    lhs = mock_g(GSpec(1, 1, 4), prec)
    rhs = (
        Series.monomial(INTEGER, -1, prec, -1)
        + mock_g(GSpec(-1, 2, 16), prec - 1).shift(1)
        + mock_g(GSpec(-1, 6, 16), prec - 4).shift(4).scale(-1)
        + eta_quotient(
            [eta_atom(8), (J(8, 16), 2)],
            [J(1, 4), Jbar(6, 8)],
            shift=-1,
            prec=prec,
        )
    )
    assert lhs.compare(rhs).equal


def test_combinator_zero_and_arity():
    zero = terms(*family("theta4", (0, 0, 0, 0)))
    assert zero == ()
    assert build_side(zero, 1, 50).valuation() is None
    with pytest.raises(ValueError):
        family("theta4", (1, 2, 3))
    with pytest.raises(ValueError):
        family("G5", (1, 2, 3))


def test_combinator_matches_crank_deviation():
    # 4 * (the theta4 line) against 4 * D_C(1,4), over the integers
    side = terms(*family("theta4", (-1, -1, 1, 1)))
    assert _eq("line", "line", [deviation("crank", 1, 4), side], 101).denominator == 4
    lhs = build_side(side, 4, 101)
    rhs = partitions.scaled_deviation("crank", 1, 4, 101)
    assert lhs.ring == rhs.ring == INTEGER
    assert lhs.compare(rhs).equal


def test_combinator_with_g_part_matches_rank_deviation():
    # 5 * (the theta5 + G5 line) against 5 * D(0,5), over the integers
    side = terms(*family("theta5", (2, 2, -1, 1), 2), *family("G5", (-1, 0), 2))
    assert _eq("line", "line", [deviation("rank", 0, 5), side], 101).denominator == 5
    lhs = build_side(side, 5, 101)
    rhs = partitions.scaled_deviation("rank", 0, 5, 101)
    assert lhs.ring == rhs.ring == INTEGER
    assert lhs.compare(rhs).equal


def test_negative_base_sum():
    # j(x;-q) j(q;q^4) = j(x;q^2) j(-qx;q^2) at x = q
    prec = 60
    lhs = theta_j_sum(J(1, 1), prec, base_sign=-1)
    rhs = eta_quotient([J(1, 2), Jbar(2, 2)], [J(1, 4)], prec=prec)
    assert lhs.compare(rhs).equal


def _factors(numerator, denominator):
    """The memo key of prod(numerator) / prod(denominator): the factors
    of its normal form."""
    return theta._normal_form(numerator, denominator, 0)[2]


def test_concurrent_atom_cache(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(theta, "_memo", {})
    atoms = [J(1, 4), Jbar(2, 7), J(3, 8), Jbar(1, 2)]

    def quotient(i, prec):
        return eta_quotient([atoms[i]], [atoms[(i + 1) % len(atoms)]], prec=prec)

    def job(k):
        i = k % len(atoms)
        theta.theta_j_inverse(atoms[i], 40 + (k % 7))
        quotient(i, 40 + (k % 3))
        return theta_j(atoms[i], 40 + (k % 5)).coeff(30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(32)))
    finally:
        sys.setswitchinterval(interval)
    for k, value in enumerate(results):
        assert value == theta_j(atoms[k % len(atoms)], 40).coeff(30)
    # the widest request was 46 for an atom and its inverse; a narrower
    # result stored over a wider one would leave less
    for atom in atoms:
        for key in (_factors([atom], ()), _factors((), [atom])):
            assert theta._memo[key].prec == 46
    # each quotient was asked for at 40, 41 and 42
    quots = [_factors([atoms[i]], [atoms[(i + 1) % len(atoms)]])
             for i in range(len(atoms))]
    assert len(set(quots)) == len(atoms)
    assert all(theta._memo[key].prec == 42 for key in quots)
    assert len(theta._memo) == 3 * len(atoms)
    stored = [quotient(i, 42) for i in range(len(atoms))]
    monkeypatch.setattr(theta, "_memo", {})
    for i, got in enumerate(stored):
        fresh = quotient(i, 42)
        assert (got.min_exp, got.coeffs) == (fresh.min_exp, fresh.coeffs)


def test_euler_odd_even_product_relation():
    # (q^2;q^2)_inf = (q;q)_inf (-q;q)_inf: the atoms J2 and J1 against
    # the oracle's factor-by-factor (-q;q)_inf
    odd_even = oracles.pochhammer_product(-1, 1, 1, 80)
    plus = Series(INTEGER, 0, [odd_even.get(e, 0) for e in range(80)], 80)
    lhs = theta_j(eta_atom(2), 80)
    rhs = theta_j(eta_atom(1), 80) * plus
    assert lhs.compare(rhs).equal


def test_one_memo_keeps_the_widest_window(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    # an inverse memoizes its atom too; a g specialization is no atom
    theta.theta_j_inverse(J(3, 11), 40)
    mock_g(GSpec(-1, 5, 13), 40)
    assert theta.cached_atoms() == [ThetaAtom(1, 3, 11)]
    # a quotient and a folded atom with the one factor j(q^3; q^11)
    # read that atom's entry under their own shift and unit
    eta_quotient([(J(3, 11), 2)], [J(3, 11)], shift=1, prec=30)
    theta_j(J(14, 11), 30)
    assert theta._normal_form([(J(3, 11), 2)], [J(3, 11)], 1) == (1, 1, ((1, 3, 11, 1),))
    assert theta._normal_form([J(14, 11)], (), 0) == (-1, -3, ((1, 3, 11, 1),))
    assert ((1, 3, 11, 1),) in theta._memo
    assert len(theta._memo) == 3  # the atom, its inverse and the g specialization
    assert theta.cached_atoms() == [ThetaAtom(1, 3, 11)]

    calls = []
    real = theta.theta_j_sum

    def counting(atom, prec, base_sign=1):
        calls.append(prec)
        return real(atom, prec, base_sign)

    monkeypatch.setattr(theta, "theta_j_sum", counting)
    wide = theta_j(J(2, 9), 80)
    assert calls == [80]
    assert theta_j(J(2, 9), 30) == wide.truncate(30)
    assert calls == [80]  # narrower: a truncation, nothing computed
    assert theta_j(J(2, 9), 120).truncate(80) == wide
    assert calls == [80, 120]  # wider: computed once and replaces the entry
    assert theta._memo[((1, 2, 9, 1),)].prec == 120
    theta_j(J(2, 9), 100)
    assert calls == [80, 120]

    # a wider window that lands while a narrower one computes is kept
    def racing(atom, prec, base_sign=1):
        if prec == 30:
            theta_j(J(5, 17), 90)
        return real(atom, prec, base_sign)

    monkeypatch.setattr(theta, "theta_j_sum", racing)
    theta_j(J(5, 17), 30)
    assert theta._memo[((1, 5, 17, 1),)].prec == 90


QUOTIENT = ([J(1, 5), (Jbar(2, 7), 2)], [J(1, 4), eta_atom(1)], 3)


def _fresh_quotient(monkeypatch, numerator, denominator, shift, prec):
    """The quotient computed on an empty memo, leaving the caller's memo
    as it was."""
    saved = theta._memo
    monkeypatch.setattr(theta, "_memo", {})
    try:
        return eta_quotient(numerator, denominator, shift, prec)
    finally:
        monkeypatch.setattr(theta, "_memo", saved)


def _same_window(a, b):
    return (a.ring, a.min_exp, a.prec, a.coeffs) == (b.ring, b.min_exp, b.prec, b.coeffs)


def _count_calls(monkeypatch, method):
    """A list that gets one entry per call of the Series method."""
    calls = []
    real = getattr(Series, method)

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(Series, method, counting)
    return calls


def test_quotient_memo_serves_truncations(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    products = _count_calls(monkeypatch, "__mul__")
    divisions = _count_calls(monkeypatch, "divide")
    num, den, shift = QUOTIENT
    wide = eta_quotient(num, den, shift, 80)
    # three numerator atoms, two products; two denominator atoms, two divisions
    assert (len(products), len(divisions)) == (2, 2)
    assert (wide.min_exp, wide.prec) == (shift, 80)

    del products[:], divisions[:]
    assert _same_window(eta_quotient(num, den, shift, 80), wide)
    assert products == divisions == []  # repeated: nothing multiplied or divided
    narrow = eta_quotient(num, den, shift, 50)
    assert products == divisions == []  # narrower: a truncation
    assert _same_window(narrow, _fresh_quotient(monkeypatch, num, den, shift, 50))
    del products[:], divisions[:]

    wider = eta_quotient(num, den, shift, 120)
    assert (len(products), len(divisions)) == (2, 2)  # wider: computed once ...
    assert _same_window(wider.truncate(80), wide)
    assert theta._memo[_factors(num, den)].prec == 120 - shift  # ... and replaces the entry
    del products[:], divisions[:]
    eta_quotient(num, den, shift, 100)
    assert products == divisions == []


def _nonzeros(series):
    return sum(map(bool, series.coeffs))


def test_cold_quotients_make_no_dense_products(monkeypatch):
    # the sparser side of every product is at most as full as the widest
    # canonical atom, O(sqrt(P/m)): numerator atoms are multiplied, and
    # denominator atoms divided by, never inverted into dense factors
    entry = {e.id: e for e in build_registry()}["quintuple-8"]
    monkeypatch.setattr(theta, "_memo", {})
    sparser = []
    real = Series.__mul__

    def recording(self, other):
        sparser.append(min(_nonzeros(self), _nonzeros(other)))
        return real(self, other)

    monkeypatch.setattr(Series, "__mul__", recording)
    eta_quotient(*QUOTIENT, 300)
    assert verify_identity(entry, 300).status == "pass"
    widest = max(_nonzeros(theta._memo[((atom.sign, atom.a, atom.m, 1),)])
                 for atom in theta.cached_atoms())
    assert len(sparser) >= 3 and max(sparser) <= widest


def test_quotient_memo_keys_tell_quotients_apart(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    num, den, shift = QUOTIENT
    base = eta_quotient(num, den, shift, 60)
    variants = [
        # shift only
        (eta_quotient(num, den, shift + 1, 60), base.shift(1).truncate(60)),
        # one atom's exponent only
        (eta_quotient([J(1, 5), (Jbar(2, 7), 3)], den, shift, 60),
         base * theta_j(Jbar(2, 7), 60)),
        # the denominator only
        (eta_quotient(num, den[:1], shift, 60), base * theta_j(eta_atom(1), 60)),
    ]
    for got, want in variants:
        assert not got.compare(base).equal
        assert got.compare(want).equal
    # a shift alone is applied on the way out: it shares the entry
    keys = {
        _factors(num, den),
        _factors([J(1, 5), (Jbar(2, 7), 3)], den),
        _factors(num, den[:1]),
    }
    assert _factors(num, den) == theta._normal_form(num, den, shift + 1)[2]
    assert len(keys) == 3 and keys <= theta._memo.keys()
    # the rest are the canonical atoms they multiply and divide by
    assert all(len(key) == 1 and key[0][3] == 1 for key in theta._memo.keys() - keys)


def _is_factor_tuple(key):
    """Sorted canonical factors (sign, a, m, k), each atom in the folded
    strip 0 <= a <= m/2: no unit, no shift."""
    return list(key) == sorted(set(key)) and all(
        len(f) == 4 and f[0] in (1, -1) and 0 <= 2 * f[1] <= f[2] and f[3] != 0
        and (f[0], f[1]) != (1, 0)
        for f in key
    )


def test_memo_stores_only_products_of_canonical_atoms(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    # j(q^-7; q^3) = -q^-12 j(q^2; q^3) = -q^-12 j(q; q^3): one entry, read
    # under two monomials
    folded = theta_j(J(-7, 3), 40)
    reflected = theta_j(J(2, 3), 40)
    assert list(theta._memo) == [((1, 1, 3, 1),)]
    assert theta._memo[((1, 1, 3, 1),)].prec == 52
    assert _same_window(folded, theta_j(J(1, 3), 52).shift(-12).scale(-1))
    assert _same_window(reflected, theta_j_sum(J(2, 3), 40))

    # a lone inverse takes the division path
    inverses = _count_calls(monkeypatch, "invert")
    for atom in (J(2, 3), Jbar(3, 8)):
        got = theta.theta_j_inverse(atom, 40)
        assert _same_window(got, Series.one(40).divide(theta_j(atom, 40)))
    assert inverses == []

    # a cold registry pass stores folded factor tuples, g specializations
    # and the two Eulerian sums only
    monkeypatch.setattr(theta, "_memo", {})
    assert all(r.status == "pass" for r in verify_all(build_registry()))
    g_keys = [key for key in theta._memo if key[:1] == ("g",)]
    assert g_keys and all(key[1] in (1, -1) and 0 < key[2] < key[3] for key in g_keys)
    eulerian_keys = {("eulerian", "f0"), ("eulerian", "f1")}
    assert eulerian_keys <= theta._memo.keys()
    for key in theta._memo.keys() - set(g_keys) - eulerian_keys:
        assert _is_factor_tuple(key), key


def test_eulerian_sums_share_the_memo(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    wide = eulerian_sum("f0", 120)
    quotients = _count_calls(monkeypatch, "div_binomial")
    # a narrower request is a truncation ...
    assert _same_window(eulerian_sum("f0", 80), wide.truncate(80))
    assert quotients == []
    # ... and a wider one is summed again and replaces the entry
    wider = eulerian_sum("f0", 160)
    assert quotients and theta._memo[("eulerian", "f0")] is wider
    assert _same_window(wider.truncate(120), wide)
    eulerian_sum("f1", 50)
    assert theta._memo.keys() == {("eulerian", "f0"), ("eulerian", "f1")}


def test_a_warm_pass_only_adds(monkeypatch):
    # every product, quotient, g and Eulerian sum of the second pass is a
    # memo hit: the pass adds windows and compares them, nothing more
    monkeypatch.setattr(theta, "_memo", {})
    verify_all(build_registry())
    calls = {method: _count_calls(monkeypatch, method)
             for method in ("__mul__", "divide", "div_binomial")}
    assert all(r.status == "pass" for r in verify_all(build_registry()))
    assert {method: len(c) for method, c in calls.items()} == dict.fromkeys(calls, 0)


def test_quotient_memo_vanishing_factors(monkeypatch):
    monkeypatch.setattr(theta, "_memo", {})
    for _ in range(2):  # the normal form alone says zero: nothing is stored
        zero = eta_quotient([J(1, 4), J(0, 3)], [J(1, 5)], prec=20)
        assert _same_window(zero, Series.monomial(INTEGER, 0, 20, 0))
    assert theta._memo == {}
    eta_quotient([J(1, 4)], prec=20)
    before = dict(theta._memo)
    with pytest.raises(SeriesError):
        eta_quotient([J(1, 4)], [J(1, 5), J(6, 3)], prec=20)
    assert theta._memo.keys() == before.keys()
    # a lead that is no unit cannot be inverted, and nothing is stored
    with pytest.raises(RingError):
        theta.theta_j_inverse(Jbar(0, 4), 20)
    assert _factors((), [Jbar(0, 4)]) not in theta._memo


A, B = J(1, 5), Jbar(2, 7)
SPELLINGS = [
    # atoms in another order
    (([B, A, J(3, 8)], [J(1, 4)], 2), ([A, J(3, 8), B], [J(1, 4)], 2)),
    # a repeated atom against one atom with an exponent
    (([(A, 2)], [J(1, 4)], 0), ([A, A], [J(1, 4)], 0)),
    # an atom on both sides against none
    (([A], (), 0), ([A, B], [B], 0)),
    # a folded atom against its canonical one: J(6,5)^2 = q^-2 J(1,5)^2
    (([(A, 2)], [B], 0), ([(J(6, 5), 2)], [B], 2)),
    # a reflected atom against its canonical one: j(q^4;q^5) = j(q;q^5),
    # and j(-q^5;q^7) = j(-q^2;q^7)
    (([A], [B], 0), ([J(4, 5)], [Jbar(5, 7)], 0)),
]


@pytest.mark.parametrize("first, second", SPELLINGS)
def test_quotient_memo_key_ignores_how_it_is_written(monkeypatch, first, second):
    monkeypatch.setattr(theta, "_memo", {})
    assert theta._normal_form(*first) == theta._normal_form(*second)
    eta_quotient(*first, 60)
    keys = set(theta._memo)
    products = _count_calls(monkeypatch, "__mul__")
    inverses = _count_calls(monkeypatch, "invert")
    divisions = _count_calls(monkeypatch, "divide")
    got = eta_quotient(*second, 60)
    assert products == inverses == divisions == []
    assert set(theta._memo) == keys
    assert _same_window(got, _fresh_quotient(monkeypatch, *second, 60))


def test_every_window_ends_at_prec():
    # 1/j(q^-7; q^3) = -q^12 / j(q^2; q^3): zero through q^10, known to q^10
    inverse = theta.theta_j_inverse(J(-7, 3), 10)
    assert inverse.prec == 10 and inverse.valuation() is None
    # the shift alone puts the quotient beyond the window
    beyond = eta_quotient([J(1, 5), J(2, 5)], shift=30, prec=20)
    assert beyond.prec == 20 and beyond.valuation() is None
    atoms = (J(1, 5), J(-7, 3), Jbar(9, 4), J(0, 3), Jbar(0, 6), J(30, 7))
    for atom in atoms:
        for prec in (0, 1, 7, 40):
            assert theta_j(atom, prec).prec == prec
            if theta._normal_form([atom], (), 0) is not None and atom.a % atom.m:
                assert theta.theta_j_inverse(atom, prec).prec == prec
            for shift in (-9, 0, 5, 50):
                got = eta_quotient([atom, (J(1, 4), 2)], [Jbar(3, 8)], shift, prec)
                assert got.prec == prec


from hypothesis import given, settings, strategies as st


@given(
    st.sampled_from([1, -1]),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_sum_product_agreement_random_atoms(sign, a, m):
    atom = ThetaAtom(sign, a, m)
    assert theta_j_sum(atom, 80).compare(theta_j(atom, 80)).equal
    _assert_canonical_matches_product(atom, 80)


@given(
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_two_square_split_random(sign, a, m):
    # j(z;q) = j(-qz^2;q^4) - z j(-q^3z^2;q^4) at z = sign*q^a, base q^m
    lhs = theta_j(ThetaAtom(sign, a, m), 80)
    rhs = theta_j(Jbar(m + 2 * a, 4 * m), 80)
    second = theta_j(Jbar(3 * m + 2 * a, 4 * m), 80 - a).shift(a)
    rhs = rhs + (second.scale(-1) if sign == 1 else second)
    assert lhs.compare(rhs).equal


ATOM = st.builds(ThetaAtom, st.sampled_from([1, -1]),
                 st.integers(min_value=-8, max_value=8),
                 st.integers(min_value=1, max_value=5))
INVERTIBLE = ATOM.filter(lambda atom: atom.a % atom.m)


def _unfolded_quotient(num, den, shift, prec):
    """The quotient from the triple-product sums of the atoms as given,
    each expanded with the same relative precision, so the product's
    window ends at prec; None when that window is empty."""
    valuation = {atom: theta_j_sum(atom, 1).min_exp for atom, _ in num + den}
    total = (sum(e * valuation[atom] for atom, e in num)
             - sum(e * valuation[atom] for atom, e in den))
    rel = prec - shift - total
    if rel <= 0:
        return None
    parts = [theta_j_sum(atom, valuation[atom] + rel) for atom, e in num for _ in range(e)]
    parts += [theta_j_sum(atom, valuation[atom] + rel).invert()
              for atom, e in den for _ in range(e)]
    return reduce(mul, parts, Series.one(rel)).shift(shift)


@given(
    st.lists(st.tuples(ATOM, st.integers(min_value=1, max_value=2)), max_size=3),
    st.lists(st.tuples(INVERTIBLE, st.just(1)), max_size=2),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_random_quotients_match_unfolded_atoms(num, den, shift, prec):
    got = eta_quotient(num, den, shift, prec)
    assert got.prec == prec
    if any(atom.sign == 1 and atom.a % atom.m == 0 for atom, _ in num):
        assert got.valuation() is None
        return
    want = _unfolded_quotient(num, den, shift, prec)
    if want is None:
        assert got.valuation() is None
    else:
        assert want.prec == prec
        assert got.compare(want).equal
