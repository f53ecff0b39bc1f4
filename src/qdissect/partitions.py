"""Partition statistics: p(n), ranks, cranks, residue counts, deviations.

Residue counts come from the one-statistic generating functions.  For a
fixed rank m (Atkin and Swinnerton-Dyer, 1954) or crank m (Garvan, 1988),

    sum_n N(m,n) q^n = (1/(q;q)_inf) sum_{k>=1} (-1)^(k-1) q^(e(k)+|m|k) (1-q^k)

with e(k) = k(3k-1)/2 for ranks and e(k) = k(k-1)/2 for cranks.  Summing
the numerators over m = a (mod M) gives one sparse integer series num_a
per residue class, and N(a,M;n) = sum_j num_a[j] p(n-j), so coefficient
n needs only p(0..n) and the numerator terms below q^(n+1).

Conventions (generating-function convention throughout):
  * n=0: the empty partition counts with statistic 0 in both tables.
    The rank sum has no q^0 term, so count_series adds it (+1 at n=0,
    a=0); the crank sum already contains it.
  * n=1 cranks: the crank sum gives z + z^-1 - 1, not the single
    combinatorial value crank((1)) = -1, with no special case.  The
    enumeration oracle comparison skips n=1 for cranks; everything
    downstream uses the sum, because every identity in scope is a
    statement about these series.

Exhaustive enumeration of partitions stays as the brute-force oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, List, Tuple

from .rings import CyclicLaurent, cyclic_ring, INTEGER, RATIONAL
from .series import Series

DEFAULT_ENUMERATION_CAP = 45

_STATS = ("rank", "crank")


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def largest(self) -> int:
        self._require_nonempty()
        return self.parts[0]

    @property
    def num_ones(self) -> int:
        return sum(1 for p in self.parts if p == 1)

    def _require_nonempty(self):
        if not self.parts:
            raise ValueError("statistic undefined for the empty partition")

    def rank(self) -> int:
        """Largest part minus number of parts."""
        self._require_nonempty()
        return self.parts[0] - len(self.parts)

    def crank(self) -> int:
        """Largest part if there are no ones; otherwise mu - nu, where nu
        counts the ones and mu counts the parts larger than nu."""
        self._require_nonempty()
        nu = self.num_ones
        if nu == 0:
            return self.parts[0]
        mu = sum(1 for p in self.parts if p > nu)
        return mu - nu

    def statistic(self, stat: str) -> int:
        if stat == "rank":
            return self.rank()
        if stat == "crank":
            return self.crank()
        raise ValueError(f"unknown statistic {stat!r}")


def _descending(n: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _descending(n - k, k):
            yield (k,) + rest


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> List[Partition]:
    """All partitions of n, largest-first lexicographic, each exactly once.

    n above the cap raises: enumeration is the exponential oracle and the
    cap keeps accidental blowups out of the main verification path.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise ValueError(f"enumeration of n={n} exceeds the cap {cap}")
    return [Partition(parts) for parts in _descending(n, n if n else 1)]


_pn_cache: List[int] = [1]
_pn_lock = threading.Lock()


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    with _pn_lock:
        while len(_pn_cache) <= n:
            m = len(_pn_cache)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > m and g2 > m:
                    break
                term = 0
                if g1 <= m:
                    term += _pn_cache[m - g1]
                if g2 <= m:
                    term += _pn_cache[m - g2]
                total += term if k % 2 else -term
                k += 1
            _pn_cache.append(total)
        return _pn_cache[n]


def partition_series(prec: int) -> Series:
    """The generating function sum p(n) q^n as an integer series."""
    return Series.from_coeffs(
        INTEGER, 0, [partition_count(n) for n in range(max(prec, 0))], max(prec, 0)
    )


# -- residue counts from the one-statistic sums -------------------------------


def _sum_offset(stat: str, k: int) -> int:
    """e(k): the q-exponent of the k-th term of the m=0 numerator."""
    return k * (3 * k - 1) // 2 if stat == "rank" else k * (k - 1) // 2


class _CountTable:
    """Residue counts of one statistic mod M, known below ``series.prec``.

    ``numerators[a]`` holds the q^j coefficients (j < series.prec) of the
    class-a numerator as a dense list of plain ints, so each count is one
    map(mul) against p(n), ..., p(0).  With p(0..n) they are all that
    coefficient n needs, so the table grows by exactly the coefficients
    asked for.

    ``window`` is the truncation handed out last, so reading the M
    classes of one n (``residue_count``) truncates the table once, not M
    times.
    """

    __slots__ = ("stat", "modulus", "numerators", "series", "window")

    def __init__(self, stat: str, M: int):
        self.stat = stat
        self.modulus = M
        self.numerators = [[] for _ in range(M)]
        self.series = self.window = Series.zero(cyclic_ring(M), 0)

    def grow(self, prec: int) -> None:
        """Compute the coefficients in [series.prec, prec) and widen."""
        stat, M = self.stat, self.modulus
        old = self.series.prec
        partition_count(prec - 1)
        pn = _pn_cache
        nums = self.numerators
        for num in nums:
            # the slice, not an extend, also drops what an interrupted grow left
            num[old:] = [0] * (prec - old)
        coeffs = list(self.series.coeffs)
        for n in range(old, prec):
            # q^n terms of sum_k (-1)^(k-1) q^(e(k)+mk) (1-q^k) for m >= 0,
            # credited to the classes of m and -m (the same class when
            # 2m = 0 mod M, which then counts twice)
            k = 1
            while (r := n - _sum_offset(stat, k)) >= 0:
                if r % k == 0:
                    sign = 1 if k % 2 else -1
                    for m, c in ((r // k, sign), (r // k - 1, -sign)):
                        if m >= 0:
                            nums[m % M][n] += c
                            if m:
                                nums[-m % M][n] += c
                k += 1
            window = pn[n::-1]
            counts = [sum(map(mul, num, window)) for num in nums]
            if n == 0 and stat == "rank":
                counts[0] += 1  # the empty partition, absent from the rank sum
            coeffs.append(CyclicLaurent(M, counts))
        self.series = Series(cyclic_ring(M), 0, coeffs, prec)


_count_cache: dict = {}
_count_lock = threading.Lock()


def count_series(stat: str, M: int, prec: int) -> Series:
    """Series over Z[z]/(z^M-1) whose q^n coefficient holds the residue
    counts of the statistic: index a is N(a,M;n) resp. C(a,M;n).

    N(a,M;n) = sum_j num_a[j] p(n-j), where num_a is the sparse
    numerator of the module docstring summed over m = a (mod M).  Both
    series follow the generating-function convention: the empty
    partition counts at n=0, a=0 (added by hand for ranks, part of the
    crank sum), and the crank coefficient at n=1 is z + z^-1 - 1, as the
    sum gives it.

    Cached per (stat, M).  A wider request computes only the missing
    coefficients, up to exactly prec; a narrower one is a truncation,
    reused while the same width is asked again.
    """
    if stat not in _STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    if M < 1:
        raise ValueError("modulus must be >= 1")
    key = (stat, M)
    with _count_lock:
        table = _count_cache.get(key)
        if table is None:
            table = _count_cache[key] = _CountTable(stat, M)
        if table.series.prec < prec:
            table.grow(prec)
        if table.window.prec != prec:
            table.window = table.series.truncate(prec)
        return table.window


def rank_count_series(M: int, prec: int) -> Series:
    return count_series("rank", M, prec)


def crank_count_series(M: int, prec: int) -> Series:
    return count_series("crank", M, prec)


def residue_count(stat: str, a: int, M: int, n: int) -> int:
    """N(a,M;n) or C(a,M;n) in the generating-function convention."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return count_series(stat, M, n + 1).coeff(n).counts[a]


def residue_series(stat: str, a: int, M: int, prec: int) -> Series:
    """Integer series sum_n N(a,M;n) q^n (resp. cranks)."""
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    counts = count_series(stat, M, prec)
    return Series.from_coeffs(
        INTEGER, 0, [c.counts[a] for c in counts.coeffs], prec
    )


def deviation_series(stat: str, a: int, M: int, prec: int) -> Series:
    """The deviation sum_n (N(a,M;n) - p(n)/M) q^n over the rationals.

    The n=0 coefficient is [a=0] - 1/M: the empty partition carries
    statistic 0 in the generating-function convention.
    """
    if not 0 <= a < M:
        raise ValueError(f"residue {a} out of range for modulus {M}")
    counts = count_series(stat, M, prec)
    coeffs = [
        Fraction(c.counts[a]) - Fraction(partition_count(n), M)
        for n, c in enumerate(counts.coeffs)
    ]
    return Series.from_coeffs(RATIONAL, 0, coeffs, prec)


def oracle_residue_counts(stat: str, M: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> List[int]:
    """Residue counts by exhaustive enumeration (the independent oracle)."""
    out = [0] * M
    for p in enumerate_partitions(n, cap):
        if p.parts:
            out[p.statistic(stat) % M] += 1
        else:
            out[0] += 1
    return out
