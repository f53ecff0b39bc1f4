"""Brute-force oracles used by the tests.

Everything here is deliberately naive and independent of the package's
series machinery: polynomials are plain {exponent: coefficient} dicts,
products are expanded factor by factor, and inverses are computed by the
defining recurrence.  The oracles stay dumb so a test failure always
points at the library, not at the test.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache


def poly_mul(a: dict, b: dict, prec: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < prec:
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_scale(a: dict, c) -> dict:
    return {e: c * v for e, v in a.items()}


def binomial(c, e: int) -> dict:
    """1 + c*q^e."""
    return {0: 1, e: c}


def product_expansion(factors, prec: int) -> dict:
    """Expand a finite list of {exp: coeff} factors, truncating at prec."""
    out = {0: 1}
    for f in factors:
        out = poly_mul(out, f, prec)
    return out


def pochhammer_product(sign: int, a: int, m: int, prec: int) -> dict:
    """(sign*q^a; q^m)_infinity by direct factor-by-factor expansion."""
    out = {0: 1}
    e = a
    while e < prec:
        out = poly_mul(out, {0: 1, e: -sign}, prec)
        e += m
    return out


def triple_product(sign: int, a0: int, m: int, prec: int) -> dict:
    """j(sign*q^a0; q^m) for 0 <= a0 < m from the Jacobi triple product

            (sign*q^a0; q^m)_inf (sign*q^(m-a0); q^m)_inf (q^m; q^m)_inf.

    For a0 = 0 the first factor of (sign; q^m)_inf is the constant
    1 - sign."""
    if a0 == 0:
        first = poly_scale(pochhammer_product(sign, m, m, prec), 1 - sign)
    else:
        first = pochhammer_product(sign, a0, m, prec)
    out = poly_mul(first, pochhammer_product(sign, m - a0, m, prec), prec)
    return poly_mul(out, pochhammer_product(1, m, m, prec), prec)


def poly_invert(a: dict, prec: int) -> dict:
    """1/a for a with a[0] = +-1, by the defining recurrence."""
    lead = a.get(0)
    assert lead in (1, -1, Fraction(1), Fraction(-1))
    out = {0: 1 // lead if not isinstance(lead, Fraction) else 1 / lead}
    for k in range(1, prec):
        acc = 0
        for j, c in a.items():
            if 0 < j <= k:
                acc += c * out.get(k - j, 0)
        if acc:
            out[k] = -out[0] * acc
    return {e: c for e, c in out.items() if c}


def series_to_poly(series, lo=None, hi=None) -> dict:
    lo = series.min_exp if lo is None else lo
    hi = series.prec if hi is None else hi
    return {e: series.coeff(e) for e in range(lo, hi) if series.coeff(e)}


# -- residue counts by enumerating partitions ---------------------------------
#
# A partition is a weakly decreasing tuple of positive parts.  The empty
# partition of 0 has statistic 0 for both rank and crank, as in the
# generating-function convention.


def partitions_of(n: int) -> list:
    """All partitions of n, largest-first lexicographic, each exactly once."""

    def descending(n, max_part):
        if n == 0:
            yield ()
            return
        for k in range(min(n, max_part), 0, -1):
            for rest in descending(n - k, k):
                yield (k,) + rest

    return list(descending(n, n))


def rank(parts: tuple) -> int:
    """Largest part minus number of parts."""
    return parts[0] - len(parts) if parts else 0


def crank(parts: tuple) -> int:
    """Largest part if there are no ones; otherwise mu - nu, where nu
    counts the ones and mu counts the parts larger than nu."""
    nu = parts.count(1)
    if nu == 0:
        return parts[0] if parts else 0
    return sum(1 for p in parts if p > nu) - nu


@lru_cache(maxsize=None)
def _histogram(stat: str, n: int) -> Counter:
    """{statistic value: number of partitions of n}, one enumeration of n
    per statistic."""
    statistic = {"rank": rank, "crank": crank}[stat]
    return Counter(map(statistic, partitions_of(n)))


def residue_counts(stat: str, M: int, n: int) -> list:
    """[number of partitions of n whose statistic is a (mod M) for a < M]."""
    out = [0] * M
    for value, k in _histogram(stat, n).items():
        out[value % M] += k
    return out


# -- residue counts from the two-variable generating functions ----------------
#
# A coefficient of Z[z]/(z^M - 1) is a plain list of M ints; index r holds
# the total coefficient of z^e over e = r (mod M).


def _vadd(x: list, y: list) -> list:
    return [a + b for a, b in zip(x, y)]


def _zmul(v: list, e: int) -> list:
    """v * z^e: a cyclic rotation of the residue vector."""
    e %= len(v)
    return v[-e:] + v[:-e] if e else v


def rank_counts_eulerian(M: int, prec: int) -> list:
    """Rank residue vectors for n < prec, from
    sum_n q^(n^2) / ((zq;q)_n (z^-1 q;q)_n)."""
    zero = [0] * M
    acc = [[1] + [0] * (M - 1)] + [zero] * (prec - 1)
    term = list(acc)
    n = 1
    while n * n < prec:
        # term <- term * q^(2n-1) / ((1 - z q^n)(1 - z^-1 q^n))
        shift = 2 * n - 1
        term = [zero] * shift + term[: prec - shift]
        for rot in (1, -1):
            for k in range(n, prec):
                term[k] = _vadd(term[k], _zmul(term[k - n], rot))
        for k in range(n * n, prec):
            acc[k] = _vadd(acc[k], term[k])
        n += 1
    return acc


def crank_counts_product(M: int, prec: int) -> list:
    """Crank residue vectors for n < prec, from
    prod_n (1-q^n) / ((1-z q^n)(1-z^-1 q^n))."""
    zero = [0] * M
    acc = [[1] + [0] * (M - 1)] + [zero] * (prec - 1)
    for n in range(1, prec):
        for k in range(prec - 1, n - 1, -1):
            acc[k] = [a - b for a, b in zip(acc[k], acc[k - n])]
        for rot in (1, -1):
            for k in range(n, prec):
                acc[k] = _vadd(acc[k], _zmul(acc[k - n], rot))
    return acc
