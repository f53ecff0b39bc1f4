import pytest

from qdissect.rings import INTEGER
from qdissect.series import Series, SeriesError
from qdissect import partitions, theta
from qdissect.theta import (
    CombinatorSpec,
    GSpec,
    J,
    Jbar,
    ThetaAtom,
    eta_atom,
    eta_quotient,
    eulerian_sum,
    fold_atom,
    mock_g,
    pochhammer_finite,
    pochhammer_infinite,
    theta_j,
    theta_j_sum,
)

import oracles


def test_pochhammer_finite_empty_product():
    assert pochhammer_finite(1, 1, 1, 0, 10) == Series.one(INTEGER, 10)


def test_pochhammer_finite_small_expansion():
    # (-q;q)_2 = (1+q)(1+q^2) = 1 + q + q^2 + q^3
    p = pochhammer_finite(-1, 1, 1, 2, 10)
    assert [p.coeff(i) for i in range(5)] == [1, 1, 1, 1, 0]


def test_pochhammer_finite_matches_oracle():
    p = pochhammer_finite(1, 1, 1, 3, 12)
    expected = oracles.product_expansion(
        [oracles.binomial(-1, e) for e in (1, 2, 3)], 12
    )
    assert oracles.series_to_poly(p) == expected


def test_pochhammer_infinite_pentagonal_signs():
    j1 = pochhammer_infinite(1, 1, 1, 31)
    assert oracles.series_to_poly(j1) == oracles.pochhammer_product(1, 1, 1, 31)
    assert j1.coeff(5) == 1
    assert j1.coeff(1) == -1


def test_pochhammer_infinite_rejects_nonformal():
    with pytest.raises(ValueError):
        pochhammer_infinite(1, 0, 1, 10)


def test_pochhammer_truncation_stability():
    wide = pochhammer_infinite(-1, 2, 3, 100)
    narrow = pochhammer_infinite(-1, 2, 3, 50)
    assert wide.truncate(50) == narrow


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
    assert z.is_zero()
    z = theta_j(J(0, 5), 30)
    assert z.is_zero()


def test_theta_sum_telescopes_at_one():
    assert theta_j_sum(J(0, 4), 80).is_zero()


def test_theta_sum_lowest_terms():
    s = theta_j_sum(J(5, 25), 30)
    assert oracles.series_to_poly(s) == {0: 1, 5: -1, 20: -1}


def _assert_canonical_matches_product(atom, prec):
    """theta_j of the atom's canonical form equals the triple product,
    over the whole window the folded atom asks of the kernel."""
    canonical, _, d = fold_atom(atom)
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
        canonical, scale, d = fold_atom(atom)
        assert 0 <= canonical.a < canonical.m
        lhs = theta_j(atom, 40)
        rhs = theta_j(canonical, 40 - d).shift(d).scale(scale)
        assert lhs.compare(rhs).equal


def test_eta_quotient_cancellation():
    one = eta_quotient(
        [J(1, 5), J(2, 5)], [eta_atom(1), eta_atom(5)], prec=101
    )
    assert one == Series.one(INTEGER, 101)
    one = eta_quotient(
        [J(1, 7), J(2, 7), J(3, 7)], [eta_atom(1), (eta_atom(7), 2)], prec=101
    )
    assert one == Series.one(INTEGER, 101)


def test_eta_quotient_empty_is_one():
    assert eta_quotient(prec=10) == Series.one(INTEGER, 10)


def test_eta_quotient_zero_numerator_and_bad_denominator():
    z = eta_quotient([J(4, 4)], prec=20)
    assert z.is_zero()
    with pytest.raises(SeriesError):
        eta_quotient([eta_atom(1)], [J(10, 5)], prec=20)


def test_mock_g_leading_terms():
    # x = -q^2, base q^16: x^-1(-1 + 1/(1-x) + ...) = 1 - q^2 + q^4 - ...
    g = mock_g(GSpec(-1, 2, 16), 14)
    inner = oracles.poly_invert({0: 1, 2: 1}, 16)  # 1/(1+q^2)
    inner = oracles.poly_add(inner, {0: -1})
    expected = {e - 2: -c for e, c in inner.items()}  # times -q^-2
    assert oracles.series_to_poly(g) == {e: c for e, c in expected.items() if e < 14}
    assert g.min_exp == -2
    assert (g.shift(2) + Series.constant(INTEGER, -1, 16)).coeff(0) == -1


def test_mock_g_term_bound_is_sound():
    for spec in (GSpec(1, 2, 10), GSpec(-1, 6, 16), GSpec(1, 10, 25)):
        lo = mock_g(spec, 60)
        hi = mock_g(spec, 120)
        assert hi.truncate(60) == lo


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
    spec = CombinatorSpec("theta4", (0, 0, 0, 0))
    assert theta.combinator(spec, 50).is_zero()
    with pytest.raises(ValueError):
        CombinatorSpec("theta4", (1, 2, 3))
    with pytest.raises(ValueError):
        CombinatorSpec("G5", (1, 2, 3))


def test_combinator_matches_crank_deviation():
    lhs = theta.combinator(CombinatorSpec("theta4", (-1, -1, 1, 1)), 101)
    rhs = partitions.deviation_series("crank", 1, 4, 101)
    assert lhs.compare(rhs).equal


def test_combinator_with_g_part_matches_rank_deviation():
    lhs = theta.combinator(CombinatorSpec("theta5", (2, 2, -1, 1)), 101).scale(2)
    lhs = lhs + theta.combinator(CombinatorSpec("G5", (-1, 0)), 101).scale(2)
    rhs = partitions.deviation_series("rank", 0, 5, 101)
    assert lhs.compare(rhs).equal


def test_negative_base_sum():
    # j(x;-q) j(q;q^4) = j(x;q^2) j(-qx;q^2) at x = q
    prec = 60
    lhs = theta_j_sum(J(1, 1), prec, base_sign=-1)
    rhs = eta_quotient([J(1, 2), Jbar(2, 2)], [J(1, 4)], prec=prec)
    assert lhs.compare(rhs).equal


def test_concurrent_atom_cache():
    from concurrent.futures import ThreadPoolExecutor

    atoms = [J(1, 4), Jbar(2, 7), J(3, 8), Jbar(1, 2)]

    def job(k):
        atom = atoms[k % len(atoms)]
        return theta_j(atom, 40 + (k % 5)).coeff(30)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(32)))
    for k, value in enumerate(results):
        assert value == theta_j(atoms[k % len(atoms)], 40).coeff(30)


def test_euler_odd_even_product_relation():
    # (q^2;q^2)_inf = (q;q)_inf (-q;q)_inf, factor by factor
    lhs = pochhammer_infinite(1, 2, 2, 80)
    rhs = pochhammer_infinite(1, 1, 1, 80) * pochhammer_infinite(-1, 1, 1, 80)
    assert lhs.compare(rhs).equal


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
