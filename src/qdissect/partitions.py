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
num_a[n] and about 2 sqrt(2n/3) earlier counts.  num_a[n] sums the
numerator terms e(k) + jk = n, one for each k that divides n - e(k).  A
table keeps each k scheduled at its next term, so growing by one n walks
only the k's that land there (3 or 4 near n = 300, of the 14 rank or 25
crank k's with e(k) <= n), and the pentagonal numbers are one shared
list, extended only when a table grows past its end.  Those M rows of
ints are the whole state of the counts.  p(n) is the crank table mod 1:
with one class, C(0,1;n) counts every partition of n (at n=1 the sum's
z + z^-1 - 1 is 1), so p(n) shares the tables' one cache and one lock.

count_combination is the one reader of rows as series: an integer
combination of rows, read on a progression t*n + r.  residue_series,
partition_series and scaled_deviation are views of it, and the registry's
Counts parts and the CLI's table and check-congruence call it.  Count
vectors over Z[z]/(z^M-1) are built only by count_series, for
residue_count and the benchmark.

Conventions (generating-function convention throughout):
  * n=0: the empty partition counts with statistic 0 in both tables.
    The rank sum has no q^0 term, so _column, the one reader of the
    rows behind count_series and count_combination, adds it (+1 at
    n=0, a=0); the crank sum already contains it.
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
from itertools import repeat
from operator import add, mul
from typing import List, Tuple

from .rings import CyclicLaurent, cyclic_ring, INTEGER, RATIONAL
from .series import Series

_PENTAGONAL: Tuple[List[int], List[int]] = ([], [])


def _pentagonal(limit: int) -> Tuple[List[int], List[int]]:
    """The shared generalized pentagonal numbers k(3k+-1)/2, ascending and
    split by the sign (-1)^(k-1) of their term, extended by whole k until
    every one below limit is in; call with _count_lock held."""
    k = (len(_PENTAGONAL[0]) + len(_PENTAGONAL[1])) // 2 + 1
    while (g := k * (3 * k - 1) // 2) < limit:
        _PENTAGONAL[1 - k % 2].extend((g, g + k))
        k += 1
    return _PENTAGONAL


def _euler_step(rows: List[List[int]], n: int, pentagonal) -> List[int]:
    """The q^n coefficient of row * (1 - (q;q)_inf) for each row, read
    from row[0..n-1]; pentagonal is the shared pair from _pentagonal,
    holding every generalized pentagonal number <= n (larger ones are
    skipped)."""
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

    The numerator's terms are walked by schedule instead: ``due`` maps n
    to the k whose next term e(k) + jk >= width lands at n, for every k
    with e(k) < width (each k sits at one n), and ``next_k`` is the
    first k with e(k) >= width, not yet scheduled.  So a grow reads only
    the k's with a term in the new coefficients, and growing by one n
    costs the few terms that land at n, not a scan of every k.

    Ranks and cranks are symmetric, N(a,M;n) = N(M-a,M;n), since the
    numerators credit m and -m alike.  So ``rows[M - a]`` is the very
    list ``rows[a]``: the table keeps floor(M/2)+1 distinct rows, and
    ``grow`` runs the recurrence on those alone.

    ``count_series`` reads the rows as count vectors: ``cyclic`` is the
    widest cyclic window built so far, extended from the rows on demand,
    and ``window`` the truncation handed out last, so reading the M
    classes of one n (``residue_count``) builds one window, not M.
    """

    __slots__ = ("stat", "modulus", "rows", "width", "due", "next_k", "cyclic", "window")

    def __init__(self, stat: str, M: int):
        self.stat = stat
        self.modulus = M
        self.rows = [[] for _ in range(M // 2 + 1)]
        self.rows += self.rows[1 : (M + 1) // 2][::-1]  # rows[M - a] is rows[a]
        self.width = 0
        self.due: dict = {}
        self.next_k = 1
        self.cyclic = self.window = Series.zero(cyclic_ring(M), 0)

    def grow(self, prec: int) -> None:
        """Compute the counts at n in [width, prec) and widen.

        Each k with a term in [width, prec) is walked once, from its due n
        (or from e(k), for a k that enters) up to prec, and rescheduled at
        its first term >= prec.  The schedule, ``next_k`` and ``width``
        change only once every new count is in, so a grow that raises
        leaves them as they were, and the next grow recomputes the same
        coefficients.
        """
        stat, M, old, due = self.stat, self.modulus, self.width, self.due
        rows = self.rows[: M // 2 + 1]
        for row in rows:
            del row[old:]  # what an interrupted grow left
        # (first term >= old, k) for each k with a term below prec: the
        # scheduled ones due before prec, then those entering at e(k)
        walks = [(n, k) for n in range(old, prec) if n in due for k in due[n]]
        k = self.next_k
        while (e := _sum_offset(stat, k)) < prec:
            walks.append((e, k))
            k += 1
        next_k = k
        # q^n terms of sum_k (-1)^(k-1) q^(e(k)+mk) (1-q^k) for m >= 0,
        # credited to the classes of m and -m (the same class when
        # 2m = 0 mod M, which then counts twice): at n = e(k) + jk the
        # class of j gets the sign, the class of j - 1 its opposite
        nums = [[0] * M for _ in range(old, prec)]
        for first, k in walks:
            e = _sum_offset(stat, k)
            sign = 1 if k % 2 else -1
            for j, n in enumerate(range(first, prec, k), (first - e) // k):
                num = nums[n - old]
                for m, c in ((j, sign), (j - 1, -sign)):
                    if m >= 0:
                        num[m % M] += c
                        if m:
                            num[-m % M] += c
        pentagonal = _pentagonal(prec)
        for n, num in zip(range(old, prec), nums):
            for row, c, step in zip(rows, num, _euler_step(rows, n, pentagonal)):
                row.append(c + step)
        for first, k in walks:  # popped keys are < prec, new ones >= prec
            due.pop(first, None)
            due.setdefault(prec + (first - prec) % k, []).append(k)
        self.next_k, self.width = next_k, prec


def _column(table: _CountTable, a: int, lo: int, hi: int, step: int = 1) -> List[int]:
    """N_a[n] for n = lo, lo + step, ... below hi as handed out: the table's
    row plus the empty partition, which the rank sum lacks (+1 at n=0, a=0)."""
    column = table.rows[a][lo:hi:step]
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
    computes only the missing counts, up to exactly prec, and builds and
    checks count vectors only for them, appended to the stored window; a
    narrower one is a truncation, reused while the same width is asked
    again.
    """
    with _count_lock:
        table = _table(stat, M, prec)
        if table.window.prec != prec:
            old = table.cyclic.prec
            if old < prec:
                vectors = zip(*(_column(table, a, old, prec) for a in range(M)))
                table.cyclic = table.cyclic.extend(CyclicLaurent(M, c) for c in vectors)
            table.window = table.cyclic.truncate(prec)
        return table.window


def residue_count(stat: str, a: int, M: int, n: int) -> int:
    """N(a,M;n) or C(a,M;n) in the generating-function convention."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return count_series(stat, M, n + 1).coeff(n).counts[a]


def count_combination(parts, prec: int, t: int = 1, r: int = 0) -> Series:
    """The integer series sum_n (sum_parts c N(a,M; t*n + r)) q^n over the
    parts (c, stat, a, M), with C for cranks; the part (c, "crank", 0, 1)
    is c p(n).

    Every row is read on the progression, straight from the tables and
    under one lock; the series is built once, at its own width.  At
    prec <= 0, once every part is checked, it is the zero series through prec.
    """
    if t < 1 or not 0 <= r < t:
        raise ValueError(f"progression {t}n+{r} needs t >= 1 and 0 <= r < t")
    for _, _, a, M in parts:
        if not 0 <= a < M:
            raise ValueError(f"residue {a} out of range for modulus {M}")
    stop = max(r + t * (prec - 1) + 1, 0)  # one past the last n read
    with _count_lock:
        columns = [(c, _column(_table(stat, M, stop), a, r, stop, t))
                   for c, stat, a, M in parts]
    if prec <= 0:
        return Series.zero(INTEGER, prec)
    total = [0] * prec
    for c, column in columns:
        total = list(map(add, total, column if c == 1 else map(mul, repeat(c), column)))
    return Series(INTEGER, 0, total, prec)


def residue_series(stat: str, a: int, M: int, prec: int) -> Series:
    """Integer series sum_n N(a,M;n) q^n (resp. cranks)."""
    return count_combination([(1, stat, a, M)], prec)


def partition_series(prec: int) -> Series:
    """The generating function sum p(n) q^n as an integer series."""
    return count_combination([(1, "crank", 0, 1)], prec)


def scaled_deviation(stat: str, a: int, M: int, prec: int) -> Series:
    """M times the deviation: sum_n (M N(a,M;n) - p(n)) q^n, an integer
    series (resp. cranks)."""
    return count_combination([(M, stat, a, M), (-1, "crank", 0, 1)], prec)


def deviation_series(stat: str, a: int, M: int, prec: int) -> Series:
    """The deviation sum_n (N(a,M;n) - p(n)/M) q^n over the rationals.

    The n=0 coefficient is [a=0] - 1/M: the empty partition carries
    statistic 0 in the generating-function convention.
    """
    scaled = scaled_deviation(stat, a, M, prec)
    return Series(RATIONAL, scaled.min_exp, [Fraction(c, M) for c in scaled.coeffs], prec)
