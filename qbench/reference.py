"""Independent computations the workload checks compare against.

Nothing here imports qdissect.  Series are plain lists of integer
coefficients, each routine follows the textbook definition as directly
as possible, and none of them shares an algorithm with the library's
fast path.
"""

from __future__ import annotations


def partition_numbers(n_max: int) -> list:
    """p(0..n_max) by counting partitions part size by part size."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def partitions_of(n: int):
    """Every partition of n as a weakly decreasing tuple."""
    def parts(rest, largest):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, largest), 0, -1):
            for tail in parts(rest - k, k):
                yield (k,) + tail
    return parts(n, n)


def rank(parts) -> int:
    return parts[0] - len(parts)


def crank(parts) -> int:
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    return sum(1 for p in parts if p > ones) - ones


def enumerated_counts(stat: str, M: int, n: int) -> list:
    """Residue counts of rank or crank mod M over the partitions of n
    (n >= 1; the crank at n = 1 is the combinatorial value -1)."""
    statistic = rank if stat == "rank" else crank
    out = [0] * M
    for parts in partitions_of(n):
        out[statistic(parts) % M] += 1
    return out


def theta_coefficients(sign: int, a: int, m: int, lo: int, hi: int) -> list:
    """Coefficients at q^lo..q^(hi-1) of j(sign*q^a; q^m) from the Jacobi
    triple-product sum  sum_n (-1)^n x^n q^(m*n(n-1)/2)  with x = sign*q^a."""
    out = [0] * (hi - lo)
    # the exponent m*n(n-1)/2 + a*n grows without bound in both directions;
    # stop each direction once it has passed hi and is still increasing
    for direction in (1, -1):
        n = 0 if direction == 1 else -1
        while True:
            e = m * n * (n - 1) // 2 + a * n
            step = m * n if direction == 1 else -m * (n - 1)
            if e >= hi and step + direction * a > 0:
                break
            if lo <= e < hi:
                out[e - lo] += (-sign) ** (n % 2)
            n += direction
    return out


def _divide_binomial(series: list, c: int, e: int) -> None:
    """series <- series / (1 - c*q^e) in place (e >= 1)."""
    for k in range(e, len(series)):
        series[k] += c * series[k - e]


def g_coefficients(sign: int, a: int, m: int, hi: int) -> list:
    """Coefficients at q^-a..q^(hi-1) of the universal mock theta function

        g(x; q^m) = x^-1 (-1 + sum_{n>=0} q^(m n^2) / ((x;q^m)_{n+1} (q^m/x;q^m)_n))

    at x = sign*q^a with 0 < a < m."""
    width = hi + a
    total = [0] * width
    total[0] -= 1
    n = 0
    while m * n * n < width:
        term = [0] * width
        term[m * n * n] = 1
        for i in range(n + 1):
            _divide_binomial(term, sign, a + m * i)
        for i in range(n):
            _divide_binomial(term, sign, m - a + m * i)
        for k in range(width):
            total[k] += term[k]
        n += 1
    return [sign * c for c in total]
