from fractions import Fraction

import pytest

import oracles
from qdissect import partitions, theta
from qdissect.partitions import (
    count_series,
    deviation_series,
    partition_count,
    partition_series,
    residue_count,
    residue_series,
    scaled_deviation,
)
from qdissect.rings import INTEGER, RATIONAL, CyclicLaurent
from qdissect.series import Series


def test_enumerate_partitions_of_four():
    parts = oracles.partitions_of(4)
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_zero_and_nine():
    assert oracles.partitions_of(0) == [()]
    assert len(oracles.partitions_of(9)) == 30


def test_partition_count_small_values():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert [partition_count(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partition_count_matches_enumeration_and_series():
    pgf = theta.theta_j(theta.eta_atom(1), 60).invert()
    for n in range(30):
        assert partition_count(n) == pgf.coeff(n)
        assert partition_count(n) == len(oracles.partitions_of(n))
    assert partition_series(60) == pgf.truncate(60)


def test_ramanujan_divisibility():
    for n in range(4, 201, 5):
        assert partition_count(n) % 5 == 0
    for n in range(5, 201, 7):
        assert partition_count(n) % 7 == 0
    for n in range(6, 201, 11):
        assert partition_count(n) % 11 == 0


def test_rank_and_crank_values_of_four():
    ranks = [oracles.rank(p) for p in oracles.partitions_of(4)]
    cranks = [oracles.crank(p) for p in oracles.partitions_of(4)]
    assert ranks == [3, 1, 0, -1, -3]
    assert cranks == [4, 0, 2, -2, -4]
    # the rank extremes, the single one and the empty partition
    assert oracles.rank((4,)) == 3
    assert oracles.rank((1, 1, 1, 1)) == -3
    assert oracles.crank((1,)) == -1
    assert oracles.rank(()) == oracles.crank(()) == 0


def test_rank_counts_equidistributed_at_four():
    series = count_series("rank", 5, 10)
    assert series.coeff(4).counts == (1, 1, 1, 1, 1)


def test_crank_counts_equidistributed_at_four():
    series = count_series("crank", 5, 10)
    assert series.coeff(4).counts == (1, 1, 1, 1, 1)


def test_crank_generating_function_anomaly_at_one():
    assert count_series("crank", 4, 5).coeff(1).counts == (-1, 1, 0, 1)
    for M in (5, 7, 8, 11):
        counts = count_series("crank", M, 5).coeff(1).counts
        expected = [0] * M
        expected[0] = -1
        expected[1] = 1
        expected[M - 1] = 1
        assert counts == tuple(expected)


def test_count_series_constant_terms():
    for stat in ("rank", "crank"):
        c0 = count_series(stat, 6, 5).coeff(0)
        assert c0.counts == (1, 0, 0, 0, 0, 0)


def test_generating_function_counts_match_enumeration_oracle():
    for M in (4, 5, 7, 8, 11):
        ranks = count_series("rank", M, 36)
        cranks = count_series("crank", M, 36)
        for n in range(1, 36):
            assert list(ranks.coeff(n).counts) == oracles.residue_counts("rank", M, n)
        for n in range(2, 36):
            assert list(cranks.coeff(n).counts) == oracles.residue_counts("crank", M, n)


def test_counts_match_two_variable_generating_functions():
    # Independent of the one-statistic sums: the product and Eulerian
    # generating functions expanded over plain residue vectors.  M=1 and
    # M=2 put m and -m in the same class, so both are counted twice there.
    P = 150
    for stat, oracle in (
        ("rank", oracles.rank_counts_eulerian),
        ("crank", oracles.crank_counts_product),
    ):
        for M in range(1, 13):
            table = count_series(stat, M, P)
            want = oracle(M, P)
            for n in range(P):
                assert list(table.coeff(n).counts) == want[n], (stat, M, n)


def test_count_symmetry():
    for stat in ("rank", "crank"):
        series = count_series(stat, 8, 40)
        for n in range(40):
            c = series.coeff(n).counts
            assert all(c[a] == c[(8 - a) % 8] for a in range(8))


def test_column_sums_give_partition_numbers():
    for stat in ("rank", "crank"):
        series = count_series(stat, 7, 50)
        for n in range(50):
            assert sum(series.coeff(n).counts) == partition_count(n)


def test_residue_count_reads_tables():
    assert residue_count("rank", 0, 4, 1) == 1
    assert residue_count("crank", 0, 4, 1) == -1
    with pytest.raises(ValueError):
        residue_count("rank", 4, 4, 1)


def test_rank_equidistribution_mod_5_and_7():
    for n in range(4, 201, 5):
        p = partition_count(n) // 5
        assert all(residue_count("rank", a, 5, n) == p for a in range(5))
    for n in range(5, 201, 7):
        p = partition_count(n) // 7
        assert all(residue_count("rank", a, 7, n) == p for a in range(7))


def test_crank_equidistribution_mod_11():
    for n in range(6, 151, 11):
        p = partition_count(n) // 11
        assert all(residue_count("crank", a, 11, n) == p for a in range(11))


def test_rank_crank_relation_from_tables():
    for n in range(0, 151):
        assert residue_count("rank", 2, 4, 2 * n) == residue_count("crank", 1, 4, 2 * n)


def test_deviation_constant_term():
    d = deviation_series("rank", 0, 4, 5)
    assert d.coeff(0) == Fraction(3, 4)
    d = deviation_series("crank", 2, 8, 5)
    assert d.coeff(0) == Fraction(-1, 8)


def test_deviations_sum_to_zero():
    for stat in ("rank", "crank"):
        for M in (4, 5, 7, 8):
            total = Series.zero(RATIONAL, 80)
            for a in range(M):
                total = total + deviation_series(stat, a, M, 80)
            assert total.is_zero()


def test_scaled_deviation_is_modulus_times_deviation():
    # the integer M*D(a,M) the registry uses, against the rational
    # deviation through q^300 and the enumeration oracle through q^30
    for stat in ("rank", "crank"):
        for M in (4, 5, 7, 8):
            for a in range(M):
                scaled = scaled_deviation(stat, a, M, 301)
                assert scaled.ring == INTEGER and scaled.prec == 301
                rational = deviation_series(stat, a, M, 301)
                for n in range(301):
                    assert scaled.coeff(n) == M * rational.coeff(n), (stat, M, a, n)
                for n in range(31):
                    if stat == "crank" and n == 1:
                        continue  # the generating-function anomaly at n=1
                    want = M * oracles.residue_counts(stat, M, n)[a] - partition_count(n)
                    assert scaled.coeff(n) == want, (stat, M, a, n)


def test_deviation_vanishes_on_ramanujan_progression():
    for a in range(5):
        d = deviation_series("rank", a, 5, 100)
        assert d.dissect(5, 4).is_zero()


def test_deviation_symmetry():
    for stat in ("rank", "crank"):
        assert deviation_series(stat, 1, 4, 60) == deviation_series(stat, 3, 4, 60)
        assert deviation_series(stat, 3, 8, 60) == deviation_series(stat, 5, 8, 60)


def test_residue_series_matches_counts():
    series = residue_series("rank", 2, 8, 30)
    table = count_series("rank", 8, 30)
    for n in range(30):
        assert series.coeff(n) == table.coeff(n).counts[2]


def test_concurrent_cache_reads_are_consistent():
    # count-series and theta caches are shared; hammer them from threads
    from concurrent.futures import ThreadPoolExecutor

    def job(k):
        stat = "rank" if k % 2 else "crank"
        series = count_series(stat, 4 + (k % 3), 30 + k % 7)
        return sum(series.coeff(20).counts)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(40)))
    assert all(r == partition_count(20) for r in results)


def test_count_cache_grows_to_exactly_the_width_asked(monkeypatch):
    monkeypatch.setattr(partitions, "_count_cache", {})
    count_series("crank", 8, 305)
    count_series("crank", 8, 306)
    assert partitions._count_cache["crank", 8].width == 306
    for n in range(301):
        residue_count("rank", 2, 5, n)
        assert partitions._count_cache["rank", 5].width == n + 1


def test_reading_every_class_of_one_n_builds_one_window(monkeypatch):
    # residue_count reads class a of n through count_series(stat, M, n + 1);
    # the table keeps the truncation it handed out last, so the M classes
    # of one n share one window instead of building M
    monkeypatch.setattr(partitions, "_count_cache", {})
    count_series("rank", 5, 301)
    built = []
    init = Series.__init__

    def counting_init(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(Series, "__init__", counting_init)
    for n in range(301):
        for a in range(5):
            residue_count("rank", a, 5, n)
    assert len(built) <= 301  # at most one per n, not one per (a, n)


def test_counts_live_as_rows_and_vectors_are_built_on_read(monkeypatch):
    # the integer readers build no count vectors; count_series builds
    # each one once, extending its widest window and truncating it
    monkeypatch.setattr(partitions, "_count_cache", {})
    built = []
    init = CyclicLaurent.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(CyclicLaurent, "__init__", counting_init)
    for stat in ("rank", "crank"):
        for M in (4, 5, 8):
            for a in range(M):
                residue_series(stat, a, M, 300)
                scaled_deviation(stat, a, M, 300)
    partition_series(300)
    partition_count(299)
    assert built == []

    def fresh_window(stat, M, prec):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(partitions, "_count_cache", {})
            return count_series(stat, M, prec)

    for stat in ("rank", "crank"):
        built.clear()
        for prec, vectors in ((7, 7), (300, 300), (5, 300)):  # extend, truncate
            got = count_series(stat, 8, prec)
            assert len(built) == vectors  # each n of the widest window, once
            want = fresh_window(stat, 8, prec)
            del built[vectors:]
            assert (got.min_exp, got.prec) == (want.min_exp, want.prec) == (0, prec)
            assert got.coeffs == want.coeffs


def test_rank_counts_against_single_rank_formula():
    # Completely independent route: the classical sparse expansion of the
    # generating function for partitions with one fixed rank m,
    #   sum_n N(m,n) q^n
    #     = (1/J1) sum_{k>=1} (-1)^(k-1) (1 - q^k) q^(k(3k-1)/2 + |m|k),
    # summed over all m in a residue class.  This exercises neither the
    # cyclic coefficient ring nor the two-variable expansion.
    from qdissect.rings import INTEGER
    from qdissect.series import Series

    P = 150
    numerators = {}
    for M in (4, 5, 8):
        for a in range(M):
            terms = {}
            for m_sel in range(-P, P + 1):
                if m_sel % M != a:
                    continue
                m = abs(m_sel)
                k = 1
                while k * (3 * k - 1) // 2 + m * k < P:
                    e = k * (3 * k - 1) // 2 + m * k
                    s = 1 if k % 2 else -1
                    terms[e] = terms.get(e, 0) + s
                    if e + k < P:
                        terms[e + k] = terms.get(e + k, 0) - s
                    k += 1
            numerators[(M, a)] = terms
    inv_j1 = theta.theta_j_inverse(theta.eta_atom(1), P)
    for (M, a), terms in numerators.items():
        coeffs = [0] * P
        for e, c in terms.items():
            coeffs[e] = c
        num = Series(INTEGER, 0, coeffs, P)
        independent = num * inv_j1
        if a == 0:
            independent = independent + Series.one(INTEGER, P)  # empty partition
        table = residue_series("rank", a, M, P)
        cmp = independent.compare(table)
        assert cmp.equal, (M, a, cmp.exponent, cmp.lhs, cmp.rhs)


def test_crank_counts_against_single_crank_formula():
    # Independent route for cranks:
    #   sum_n C(m,n) q^n
    #     = (1/J1) sum_{k>=1} (-1)^(k-1) (1 - q^k) q^(k(k-1)/2 + |m|k),
    # summed over a residue class.  This form already carries both edge
    # conventions: constant term 1 at m=0 and the n=1 anomaly.
    from qdissect.rings import INTEGER
    from qdissect.series import Series

    P = 150
    inv_j1 = theta.theta_j_inverse(theta.eta_atom(1), P)
    for M in (4, 7, 8):
        table = count_series("crank", M, P)
        for a in range(M):
            terms = {}
            for m_sel in range(-P, P + 1):
                if m_sel % M != a:
                    continue
                m = abs(m_sel)
                k = 1
                while k * (k - 1) // 2 + m * k < P:
                    e = k * (k - 1) // 2 + m * k
                    s = 1 if k % 2 else -1
                    terms[e] = terms.get(e, 0) + s
                    if e + k < P:
                        terms[e + k] = terms.get(e + k, 0) - s
                    k += 1
            coeffs = [0] * P
            for e, c in terms.items():
                coeffs[e] = c
            independent = Series(INTEGER, 0, coeffs, P) * inv_j1
            for n in range(P):
                assert independent.coeff(n) == table.coeff(n).counts[a], (M, a, n)
