"""Partition statistics: p(n), ranks, cranks, residue counts, deviations.

Residue counts come from the one-statistic generating functions.  For a
fixed rank m (Atkin and Swinnerton-Dyer, 1954) or crank m (Garvan, 1988),

    sum_n N(m,n) q^n = (1/(q;q)_inf) sum_{k>=1} (-1)^(k-1) q^(e(k)+|m|k) (1-q^k)

with e(k) = k(3k-1)/2 for ranks and e(k) = k(k-1)/2 for cranks.  Summing
the numerators over m = a (mod M) gives one sparse integer series num_a
per residue class with N_a(q) (q;q)_inf = num_a(q).  By Euler's
pentagonal theorem that is the recurrence

    N_a[n] = num_a[n] + N_a[n-1] + N_a[n-2] - N_a[n-5] - N_a[n-7] + ...

over the generalized pentagonal numbers, so coefficient n needs only
num_a[n] and about 2 sqrt(2n/3) earlier counts.  Those M rows of ints
are the whole state of a count table: residue_series hands out one row
as an integer series, and count_series builds the cyclic count vectors
from the rows when it is read.  p(n) is the crank table mod 1: with one
class, C(0,1;n) counts every partition of n (at n=1 the sum's
z + z^-1 - 1 is 1), so p(n) shares the tables' one cache and one lock.

Conventions (generating-function convention throughout):
  * n=0: the empty partition counts with statistic 0 in both tables.
    The rank sum has no q^0 term, so _column, the one reader of the
    rows behind count_series, residue_series and scaled_deviation, adds
    it (+1 at n=0, a=0); the crank sum already contains it.
  * n=1 cranks: the crank sum gives z + z^-1 - 1, not the single
    combinatorial value crank((1)) = -1, with no special case.  The
    tests' enumeration oracle (tests/oracles.py) skips n=1 for cranks;
    everything downstream uses the sum, because every identity in scope
    is a statement about these series.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from fractions import Fraction
from typing import List, Tuple

from .rings import CyclicLaurent, cyclic_ring, INTEGER, RATIONAL
from .series import Series

def _pentagonal(limit: int) -> Tuple[List[int], List[int]]:
    """The generalized pentagonal numbers 0 < k(3k+-1)/2 < limit, ascending,
    split by the sign (-1)^(k-1) of their term."""
    signed: Tuple[List[int], List[int]] = ([], [])
    k = 1
    while (g := k * (3 * k - 1) // 2) < limit:
        signed[1 - k % 2].extend(x for x in (g, g + k) if x < limit)
        k += 1
    return signed


def _euler_step(rows: List[List[int]], n: int, pentagonal) -> List[int]:
    """The q^n coefficient of row * (1 - (q;q)_inf) for each row, read
    from row[0..n-1]; pentagonal = _pentagonal(limit) with limit > n."""
    plus, minus = ([n - g for g in side[:bisect_right(side, n)]] for side in pentagonal)
    return [sum(map(row.__getitem__, plus)) - sum(map(row.__getitem__, minus))
            for row in rows]


# -- residue counts from the one-statistic sums -------------------------------


def _sum_offset(stat: str, k: int) -> int:
    """e(k): the q-exponent of the k-th term of the m=0 numerator."""
    return k * (3 * k - 1) // 2 if stat == "rank" else k * (k - 1) // 2


class _CountTable:
    """Residue counts of one statistic mod M, known below ``width``.

    ``rows[a]`` holds N_a[n] for n < width as plain ints, the state of
    the pentagonal recurrence and the table's only state of the counts.
    The rank table's +1 at n=0, a=0 is not part of that state (it would
    leak into every later count); ``_column`` adds it where counts are
    handed out.  The numerator term num_a[n] is needed only at step n,
    so it is not kept, and the table grows by exactly the coefficients
    asked for.

    ``count_series`` reads the rows as count vectors: ``cyclic`` is the
    widest cyclic window built so far, extended from the rows on demand,
    and ``window`` the truncation handed out last, so reading the M
    classes of one n (``residue_count``) builds one window, not M.
    """

    __slots__ = ("stat", "modulus", "rows", "width", "cyclic", "window")

    def __init__(self, stat: str, M: int):
        self.stat = stat
        self.modulus = M
        self.rows = [[] for _ in range(M)]
        self.width = 0
        self.cyclic = self.window = Series.zero(cyclic_ring(M), 0)

    def grow(self, prec: int) -> None:
        """Compute the counts at n in [width, prec) and widen."""
        stat, M = self.stat, self.modulus
        old = self.width
        rows = self.rows
        for row in rows:
            del row[old:]  # what an interrupted grow left
        # q^n terms of sum_k (-1)^(k-1) q^(e(k)+mk) (1-q^k) for m >= 0,
        # credited to the classes of m and -m (the same class when
        # 2m = 0 mod M, which then counts twice): at n = e(k) + jk the
        # class of j gets the sign, the class of j - 1 its opposite
        nums = [[0] * M for _ in range(old, prec)]
        k = 1
        while (e := _sum_offset(stat, k)) < prec:
            sign = 1 if k % 2 else -1
            first = e + k * max(0, -((e - old) // k))  # e + jk >= old
            for n in range(first, prec, k):
                j = (n - e) // k
                num = nums[n - old]
                for m, c in ((j, sign), (j - 1, -sign)):
                    if m >= 0:
                        num[m % M] += c
                        if m:
                            num[-m % M] += c
            k += 1
        pentagonal = _pentagonal(prec)
        for n, num in zip(range(old, prec), nums):
            for row, c, step in zip(rows, num, _euler_step(rows, n, pentagonal)):
                row.append(c + step)
        self.width = prec


def _column(table: _CountTable, a: int, lo: int, hi: int) -> List[int]:
    """N_a[n] for lo <= n < hi as handed out: the table's row plus the
    empty partition, which the rank sum lacks (+1 at n=0, a=0)."""
    column = table.rows[a][lo:hi]
    if lo == 0 and column and a == 0 and table.stat == "rank":
        column[0] += 1
    return column


_count_cache: dict = {}
_count_lock = threading.Lock()


def _table(stat: str, M: int, prec: int) -> _CountTable:
    """The cached table of (stat, M), grown to at least prec; call with
    _count_lock held."""
    if stat not in ("rank", "crank"):
        raise ValueError(f"unknown statistic {stat!r}")
    if M < 1:
        raise ValueError("modulus must be >= 1")
    table = _count_cache.get((stat, M))
    if table is None:
        table = _count_cache[stat, M] = _CountTable(stat, M)
    if table.width < prec:
        table.grow(prec)
    return table


def count_series(stat: str, M: int, prec: int) -> Series:
    """Series over Z[z]/(z^M-1) whose q^n coefficient holds the residue
    counts of the statistic: index a is N(a,M;n) resp. C(a,M;n).

    N_a(q) (q;q)_inf = num_a(q), where num_a is the sparse numerator of
    the module docstring summed over m = a (mod M).  Both series follow
    the generating-function convention: the empty partition counts at
    n=0, a=0 (added by hand for ranks, part of the crank sum), and the
    crank coefficient at n=1 is z + z^-1 - 1, as the sum gives it.

    Read from the table's rows, cached per (stat, M).  A wider request
    computes only the missing counts, up to exactly prec, and builds
    count vectors only for them; a narrower one is a truncation, reused
    while the same width is asked again.
    """
    with _count_lock:
        table = _table(stat, M, prec)
        if table.window.prec != prec:
            old = table.cyclic.prec
            if old < prec:
                vectors = zip(*(_column(table, a, old, prec) for a in range(M)))
                table.cyclic = Series(
                    cyclic_ring(M), 0,
                    table.cyclic.coeffs + tuple(CyclicLaurent(M, c) for c in vectors),
                    prec)
            table.window = table.cyclic.truncate(prec)
        return table.window


def residue_count(stat: str, a: int, M: int, n: int) -> int:
    """N(a,M;n) or C(a,M;n) in the generating-function convention."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return count_series(stat, M, n + 1).coeff(n).counts[a]


def residue_series(stat: str, a: int, M: int, prec: int) -> Series:
    """Integer series sum_n N(a,M;n) q^n (resp. cranks), read from the
    table's rows."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    with _count_lock:
        column = _column(_table(stat, M, prec), a, 0, max(prec, 0))
    return Series.from_coeffs(INTEGER, 0, column, prec)


def partition_count(n: int) -> int:
    """p(n), read from the crank table mod 1: C(0,1;n) = p(n) for every n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    with _count_lock:
        return _table("crank", 1, n + 1).rows[0][n]


def partition_series(prec: int) -> Series:
    """The generating function sum p(n) q^n as an integer series."""
    return residue_series("crank", 0, 1, max(prec, 0))


def scaled_deviation(stat: str, a: int, M: int, prec: int) -> Series:
    """M times the deviation: sum_n (M N(a,M;n) - p(n)) q^n, an integer
    series (resp. cranks)."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    width = max(prec, 0)
    with _count_lock:
        counts = _column(_table(stat, M, width), a, 0, width)
        pn = _table("crank", 1, width).rows[0][:width]
    return Series.from_coeffs(
        INTEGER, 0, [M * c - p for c, p in zip(counts, pn)], prec)


def deviation_series(stat: str, a: int, M: int, prec: int) -> Series:
    """The deviation sum_n (N(a,M;n) - p(n)/M) q^n over the rationals.

    The n=0 coefficient is [a=0] - 1/M: the empty partition carries
    statistic 0 in the generating-function convention.
    """
    scaled = scaled_deviation(stat, a, M, prec).coeffs
    return Series.from_coeffs(RATIONAL, 0, [Fraction(c, M) for c in scaled], prec)
