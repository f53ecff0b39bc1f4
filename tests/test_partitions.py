import hashlib
import io
from fractions import Fraction
from functools import partial
from itertools import cycle

import pytest

import oracles
from qdissect import cli, partitions, theta
from qdissect.partitions import (
    count_combination,
    count_series,
    deviation_series,
    partition_series,
    residue_count,
    residue_series,
    scaled_deviation,
)
from qdissect.rings import INTEGER, CyclicLaurent, Ring
from qdissect.series import Series


def test_enumerate_partitions_of_four():
    parts = oracles.partitions_of(4)
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_zero_and_nine():
    assert oracles.partitions_of(0) == [()]
    assert len(oracles.partitions_of(9)) == 30


def test_partition_count_small_values():
    p = partition_series(10).coeff
    assert p(0) == 1
    assert p(4) == 5
    assert [p(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partition_count_matches_enumeration_and_series():
    pgf = theta.theta_j(theta.eta_atom(1), 60).invert()
    p = partition_series(30).coeff
    for n in range(30):
        assert p(n) == pgf.coeff(n)
        assert p(n) == len(oracles.partitions_of(n))
    assert partition_series(60) == pgf.truncate(60)


def test_ramanujan_divisibility():
    p = partition_series(201).coeff
    for n in range(4, 201, 5):
        assert p(n) % 5 == 0
    for n in range(5, 201, 7):
        assert p(n) % 7 == 0
    for n in range(6, 201, 11):
        assert p(n) % 11 == 0


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
    p = partition_series(50).coeff
    for stat in ("rank", "crank"):
        series = count_series(stat, 7, 50)
        for n in range(50):
            assert sum(series.coeff(n).counts) == p(n)


def test_residue_count_reads_tables():
    assert residue_count("rank", 0, 4, 1) == 1
    assert residue_count("crank", 0, 4, 1) == -1
    with pytest.raises(ValueError):
        residue_count("rank", 4, 4, 1)


def test_rank_equidistribution_mod_5_and_7():
    pgf = partition_series(201)
    for n in range(4, 201, 5):
        p = pgf.coeff(n) // 5
        assert all(residue_count("rank", a, 5, n) == p for a in range(5))
    for n in range(5, 201, 7):
        p = pgf.coeff(n) // 7
        assert all(residue_count("rank", a, 7, n) == p for a in range(7))


def test_crank_equidistribution_mod_11():
    pgf = partition_series(151)
    for n in range(6, 151, 11):
        p = pgf.coeff(n) // 11
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
            deviations = [deviation_series(stat, a, M, 80) for a in range(M)]
            for n in range(80):
                assert sum(d.coeff(n) for d in deviations) == 0


def test_scaled_deviation_is_modulus_times_deviation():
    # the integer M*D(a,M) the registry uses, against the rational
    # deviation through q^300 and the enumeration oracle through q^30
    p = partition_series(31).coeff
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
                    want = M * oracles.residue_counts(stat, M, n)[a] - p(n)
                    assert scaled.coeff(n) == want, (stat, M, a, n)


def test_deviation_vanishes_on_ramanujan_progression():
    for a in range(5):
        d = deviation_series("rank", a, 5, 100)
        assert d.dissect(5, 4).valuation() is None


def test_deviation_symmetry():
    for stat in ("rank", "crank"):
        assert deviation_series(stat, 1, 4, 60) == deviation_series(stat, 3, 4, 60)
        assert deviation_series(stat, 3, 8, 60) == deviation_series(stat, 5, 8, 60)


def test_residue_series_matches_counts():
    series = residue_series("rank", 2, 8, 30)
    table = count_series("rank", 8, 30)
    for n in range(30):
        assert series.coeff(n) == table.coeff(n).counts[2]


def _gf_counts(stat, M, n):
    """The oracle's residue counts in the generating-function convention:
    at n=1 the crank sum gives z + z^-1 - 1, not crank((1)) = -1."""
    if stat == "crank" and n == 1:
        out = [0] * M
        for m, c in ((1, 1), (-1, 1), (0, -1)):
            out[m % M] += c
        return out
    return oracles.residue_counts(stat, M, n)


@pytest.mark.parametrize("t, r", [(1, 0), (2, 0), (2, 1), (4, 3)])
def test_count_combination_matches_enumeration_oracle(t, r):
    # 2 N(1,5) - 3 C(0,4) + p - N(0,3), read on the progression t*n + r
    parts = [(2, "rank", 1, 5), (-3, "crank", 0, 4), (1, "crank", 0, 1), (-1, "rank", 0, 3)]
    prec = (30 - r) // t + 1  # arguments up to 30
    got = count_combination(parts, prec, t, r)
    assert (got.ring, got.min_exp, got.prec) == (INTEGER, 0, prec)
    for n in range(prec):
        arg = t * n + r
        want = sum(c * _gf_counts(stat, M, arg)[a] for c, stat, a, M in parts)
        assert got.coeff(n) == want, (t, r, n)
    # deeper, against the rows read whole and restricted to the progression
    deep = count_combination(parts, 100, t, r)
    whole = Series.zero(INTEGER, t * 100 + r)
    for c, stat, a, M in parts:
        whole = whole + residue_series(stat, a, M, t * 100 + r).scale(c)
    assert deep == whole.dissect(t, r).deflate(t, r).truncate(100)


def test_count_combination_edges():
    # the empty partition (rank +1 at n=0, a=0) and the crank sum at n=1
    assert count_combination([(1, "rank", 0, 3)], 1).coeffs == (1,)
    assert oracles.residue_counts("crank", 4, 1) == [0, 0, 0, 1]
    assert count_combination([(1, "crank", 0, 4)], 2).coeffs == (1, -1)
    assert [count_combination([(1, "crank", a, 4)], 1, 2, 1).coeff(0) for a in range(4)] == [-1, 1, 0, 1]
    assert count_combination([(5, "crank", 0, 1)], 3, 2, 1).coeffs == (5, 15, 35)  # 5 p(2n+1)
    assert count_combination([], 4, 4, 3).coeffs == (0, 0, 0, 0)
    assert count_combination([(1, "rank", 0, 3)], 0) == Series.zero(INTEGER, 0)
    for a, M in ((5, 5), (-1, 5), (0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            count_combination([(1, "crank", 0, 1), (1, "rank", a, M)], 10)
    for t, r in ((0, 0), (2, 2), (3, -1)):
        with pytest.raises(ValueError, match="progression"):
            count_combination([(1, "rank", 0, 3)], 10, t, r)


@pytest.mark.parametrize("prec", [-3, 0])
def test_count_views_end_where_asked_at_nonpositive_prec(prec):
    views = [
        count_combination([(2, "rank", 1, 5), (-1, "crank", 0, 1)], prec, 3, 2),
        residue_series("crank", 3, 7, prec),
        partition_series(prec),
        scaled_deviation("rank", 0, 8, prec),
        deviation_series("crank", 2, 4, prec),
        count_series("rank", 5, prec),
    ]
    assert all(view.valuation() is None for view in views)
    # a folded atom keeps its terms below q^0: j(-q^7;q^3) starts at q^-5
    views += [theta.theta_j(theta.J(1, 5), prec), theta.theta_j(theta.Jbar(7, 3), prec)]
    assert [view.prec for view in views] == [prec] * len(views)
    # the progression and the rows are checked before the early return
    with pytest.raises(ValueError, match="out of range"):
        count_combination([(1, "rank", 5, 5)], prec)
    with pytest.raises(ValueError, match="unknown statistic"):
        count_combination([(1, "spin", 0, 5)], prec)
    with pytest.raises(ValueError, match="progression"):
        count_combination([(1, "rank", 0, 5)], prec, 2, 2)


def test_concurrent_cache_reads_are_consistent():
    # count-series and theta caches are shared; hammer them from threads
    from concurrent.futures import ThreadPoolExecutor

    def job(k):
        stat = "rank" if k % 2 else "crank"
        series = count_series(stat, 4 + (k % 3), 30 + k % 7)
        return sum(series.coeff(20).counts)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(40)))
    assert all(r == partition_series(21).coeff(20) for r in results)


def test_count_cache_grows_to_exactly_the_width_asked(monkeypatch):
    monkeypatch.setattr(partitions, "_count_cache", {})
    count_series("crank", 8, 305)
    count_series("crank", 8, 306)
    assert partitions._count_cache["crank", 8].width == 306
    for n in range(301):
        residue_count("rank", 2, 5, n)
        assert partitions._count_cache["rank", 5].width == n + 1


def _grow_unevenly(table, prec, one_by_one=400, chunks=(1, 2, 3, 7, 13, 1, 29, 5)):
    """Grow one n at a time through one_by_one, then by the cycled chunks."""
    for width in range(table.width + 1, min(one_by_one, prec) + 1):
        table.grow(width)
    for step in cycle(chunks):
        if table.width >= prec:
            return
        table.grow(min(prec, table.width + step))


def _assert_scheduled(table):
    """Each k with e(k) < width sits once in the schedule, at its first
    term e(k) + jk >= width, and next_k is the first k with e(k) >= width."""
    e = partial(partitions._sum_offset, table.stat)
    placed = [(k, n) for n, ks in table.due.items() for k in ks]
    assert sorted(k for k, _ in placed) == list(range(1, table.next_k))
    assert e(table.next_k) >= table.width
    assert table.next_k == 1 or e(table.next_k - 1) < table.width
    for k, n in placed:
        assert table.width <= n < table.width + k and n >= e(k) and (n - e(k)) % k == 0


# sha256 of repr([rows of the table mod M for M = 1..12]) through n = 3000,
# pinned from the recurrence that scanned every k of the numerator at each
# grow, before the numerator schedule
_ROWS_3000 = {
    "rank": "0dd6d99d49e4ebfdf726bb45f0ae6e3c90f2cfe6c6c450f0135d42064f3eeb20",
    "crank": "d5d446c3b1f09980d0bde7433d6212e99b54051bce341ecc1bee11f888695781",
}


@pytest.mark.parametrize("stat, oracle", [
    ("rank", oracles.rank_counts_eulerian),
    ("crank", oracles.crank_counts_product),
])
def test_every_way_of_growing_gives_the_same_rows(monkeypatch, stat, oracle):
    # a table grown one n at a time, then in uneven chunks, against one
    # grown in a single call, the pinned rows, enumeration (n <= 22) and
    # the two-variable generating functions (through q^200); the first
    # table also grows the shared pentagonal numbers from none
    monkeypatch.setattr(partitions, "_PENTAGONAL", ([], []))
    bulk_rows = []
    for M in range(1, 13):
        stepped, bulk = partitions._CountTable(stat, M), partitions._CountTable(stat, M)
        _grow_unevenly(stepped, 3000)
        bulk.grow(3000)
        assert stepped.rows == bulk.rows, (stat, M)
        _assert_scheduled(stepped)
        _assert_scheduled(bulk)
        bulk_rows.append(bulk.rows)
        columns = [partitions._column(stepped, a, 0, 200) for a in range(M)]
        for n in range(23):
            assert [column[n] for column in columns] == _gf_counts(stat, M, n), (stat, M, n)
        assert [list(counts) for counts in zip(*columns)] == oracle(M, 200), (stat, M)
    assert hashlib.sha256(repr(bulk_rows).encode()).hexdigest() == _ROWS_3000[stat]
    # the pentagonal numbers are one shared list, extended by whole k
    plus, minus = partitions._pentagonal(3000)
    assert partitions._pentagonal(0)[0] is plus
    assert plus[:4] == [1, 2, 12, 15] and minus[:4] == [5, 7, 22, 26]
    pentagonal = {k * (3 * k + s) // 2 for k in range(1, 46) for s in (-1, 1)}
    assert sorted(g for g in plus + minus if g < 3000) == sorted(g for g in pentagonal if g < 3000)


def _fail_after(monkeypatch, name, calls):
    """Make partitions.<name> raise on every call after the first ``calls``."""
    real, left = getattr(partitions, name), [calls]

    def failing(*args):
        left[0] -= 1
        if left[0] < 0:
            raise RuntimeError(f"{name} interrupted")
        return real(*args)

    monkeypatch.setattr(partitions, name, failing)


@pytest.mark.parametrize("stat, M", [("rank", 7), ("crank", 8)])
def test_an_interrupted_grow_leaves_a_table_that_grows_right(stat, M):
    # A grow that raises, in the numerator walk (_sum_offset) or in the
    # recurrence (_euler_step), leaves width, schedule and next k as they
    # were, so growing on neither drops nor double-credits a term
    fresh = partitions._CountTable(stat, M)
    fresh.grow(600)

    def state(table):
        return table.width, table.next_k, {n: list(ks) for n, ks in table.due.items()}

    def assert_grows_right(table):
        _grow_unevenly(table, 600, one_by_one=table.width + 40)
        assert table.rows == fresh.rows
        _assert_scheduled(table)

    def interrupted_bulk(name, calls):
        """A table at width 60 whose grow to 300 raised after ``calls``
        calls of name, or None if the grow got through."""
        table = partitions._CountTable(stat, M)
        table.grow(60)
        before = state(table)
        with pytest.MonkeyPatch.context() as m:
            _fail_after(m, name, calls)
            try:
                table.grow(300)
            except RuntimeError:
                assert state(table) == before
                return table
        return None

    # every failure point of the numerator walk in a bulk grow, then three
    # points of its recurrence
    calls = 0
    while (table := interrupted_bulk("_sum_offset", calls)) is not None:
        assert_grows_right(table)
        calls += 1
    assert calls > 20
    for calls in (0, 1, 150):
        table = interrupted_bulk("_euler_step", calls)
        assert table is not None
        assert_grows_right(table)
    # a run of one-step grows, interrupted in either part
    for name, calls in (("_euler_step", 25), ("_sum_offset", 25)):
        table = partitions._CountTable(stat, M)
        table.grow(60)
        with pytest.MonkeyPatch.context() as m:
            _fail_after(m, name, calls)
            with pytest.raises(RuntimeError):
                while True:
                    before = state(table)
                    table.grow(table.width + 1)
        assert 60 < table.width < 300
        assert state(table) == before
        assert_grows_right(table)


def test_reading_every_class_of_one_n_builds_one_window(monkeypatch):
    # residue_count reads class a of n through count_series(stat, M, n + 1);
    # the table keeps the truncation it handed out last, so the M classes
    # of one n share one window instead of building M.  Each count vector
    # is checked once, when it is appended: neither the stored window nor
    # a truncation of it is scanned again
    monkeypatch.setattr(partitions, "_count_cache", {})
    built, scanned = [], []
    init, coerce_all = Series.__init__, Ring.coerce_all

    def counting_init(self, *args):
        built.append(args[2])
        init(self, *args)

    def counting_coerce_all(self, values):
        values = coerce_all(self, values)
        scanned.append(len(values))
        return values

    monkeypatch.setattr(Series, "__init__", counting_init)
    monkeypatch.setattr(Ring, "coerce_all", counting_coerce_all)

    def read_every_class():
        built.clear()
        scanned.clear()
        for n in range(301):
            for a in range(5):
                residue_count("rank", a, 5, n)

    read_every_class()  # cold: the table grows one n at a time
    assert sum(scanned) == 301  # one per vector, not 1 + 2 + ... + 301
    read_every_class()  # warm: every read is a truncation
    assert sum(scanned) == 0
    assert len(built) <= 301  # at most one per n, not one per (a, n)


def test_every_class_reads_its_count_from_the_shared_rows(monkeypatch):
    # N(a,M;n) = N(M-a,M;n), so class M - a reads the row of class a and a
    # table keeps floor(M/2) + 1 distinct rows; every class, a > M/2 too,
    # against enumeration
    monkeypatch.setattr(partitions, "_count_cache", {})
    for stat in ("rank", "crank"):
        for M in range(1, 13):
            rows = [residue_series(stat, a, M, 31) for a in range(M)]
            for n in range(31):
                assert [row.coeff(n) for row in rows] == _gf_counts(stat, M, n), (stat, M, n)
            assert len({id(row) for row in partitions._count_cache[stat, M].rows}) == M // 2 + 1


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
    count_combination([(1, "rank", 0, 8), (-1, "crank", 0, 8)], 76, 4, 3)
    for argv in (["table", "crank", "--modulus", "8", "--max-n", "300", "--json"],
                 ["check-congruence", "7", "--max", "300"]):
        assert cli.run_cli(argv, out=io.StringIO()) == 0
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
            independent = independent + Series.one(P)  # empty partition
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
