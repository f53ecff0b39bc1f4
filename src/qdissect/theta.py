"""Theta-function and mock-theta building blocks.

All special functions used by the verification registry are built here:

  * finite and infinite Pochhammer products (s*q^a; q^m)_n,
  * the theta function j(s*q^a; q^m), expanded from the Jacobi triple
    product's bilateral sum
        j(x; q^m) = sum_n (-1)^n q^(m*n(n-1)/2) x^n,
    with automatic folding of atoms outside the canonical strip,
  * eta-quotient monomials  q^shift * prod(j)/prod(j),
  * the universal mock theta function
        g(x;q) = x^-1 (-1 + sum_{n>=0} q^(n^2) / ((x)_{n+1} (q/x)_n)),
  * the Eulerian sums defining the fifth-order functions f0 and f1.

Folding uses j(q*x;q) = -x^-1 j(x;q), iterated:

    j(s*q^(a0+mk); q^m) = (-1)^k s^k q^(-m*k(k-1)/2 - a0*k) j(s*q^a0; q^m)

which moves any exponent into 0 <= a0 < m.  For s=+1 and a0=0 the theta
function vanishes identically and the exact zero series is returned.

A canonical atom needs only the O(sqrt(prec/m)) terms of the sum whose
exponent lies below prec; the product form
(x; q^m)_inf (q^m/x; q^m)_inf (q^m; q^m)_inf serves as the independent
oracle in the tests.

Canonical atoms, their inverses, mock-g specializations and whole eta
quotients share one memo, keyed by (kind, sign, a, m) for the first three
and by ("quot", numerator, denominator, shift) for quotients.  It keeps
the widest window computed so far and serves narrower requests by
truncation, so a repeated quotient costs no products; a wider request is
computed outside the lock and replaces the entry.  Concurrent
verification tasks may share it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Iterable, Tuple, Union

from .rings import INTEGER
from .series import Series, SeriesError


@dataclass(frozen=True)
class ThetaAtom:
    """Descriptor for j(sign * q^a; q^m)."""

    sign: int
    a: int
    m: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.m < 1:
            raise ValueError("base exponent m must be positive")


@dataclass(frozen=True)
class GSpec:
    """Descriptor for g(sign * q^a; q^m) with 0 < a < m."""

    sign: int
    a: int
    m: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < self.a < self.m:
            raise ValueError(
                f"g specialization needs 0 < a < m, got a={self.a}, m={self.m}"
            )


def J(a: int, m: int) -> ThetaAtom:
    """J_{a,m} = j(q^a; q^m)."""
    return ThetaAtom(1, a, m)


def Jbar(a: int, m: int) -> ThetaAtom:
    """J-bar_{a,m} = j(-q^a; q^m)."""
    return ThetaAtom(-1, a, m)


def eta_atom(m: int) -> ThetaAtom:
    """J_m = J_{m,3m}, the product (q^m; q^m)_infinity."""
    return ThetaAtom(1, m, 3 * m)


# -- Pochhammer products -------------------------------------------------------


def pochhammer_finite(sign: int, a: int, m: int, n: int, prec: int) -> Series:
    """(sign*q^a; q^m)_n = prod_{i<n} (1 - sign*q^(a+m*i)), truncated."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Series.one(INTEGER, prec)
    for i in range(n):
        e = a + m * i
        if e == 0:
            out = out.scale(1 - sign)
        else:
            out = out.mul_binomial(-sign, e)
    return out


def pochhammer_infinite(sign: int, a: int, m: int, prec: int) -> Series:
    """(sign*q^a; q^m)_infinity; requires a >= 1 so the product is formal."""
    if a < 1:
        raise ValueError(
            f"infinite Pochhammer needs a >= 1 (got a={a}): "
            "the product is not a formal series otherwise"
        )
    out = Series.one(INTEGER, prec)
    for e in range(a, prec, m):
        out = out.mul_binomial(-sign, e)
    return out


# -- the theta function j ------------------------------------------------------


def fold_atom(atom: ThetaAtom) -> Tuple[ThetaAtom, int, int]:
    """Reduce an atom into the canonical strip 0 <= a < m.

    Returns (canonical atom, unit scale, monomial exponent d) with

        j(atom) = scale * q^d * j(canonical).
    """
    k, a0 = divmod(atom.a, atom.m)
    scale = 1 if k % 2 == 0 else -atom.sign
    d = -atom.m * (k * (k - 1) // 2) - a0 * k
    return ThetaAtom(atom.sign, a0, atom.m), scale, d


_memo: dict = {}
_memo_lock = threading.Lock()


def _widest(key: tuple, prec: int, compute: Callable[[int], Series]) -> Series:
    """The memo entry for key, truncated to prec.

    A missing or narrower entry is computed as compute(prec) outside the
    lock; the result is returned and kept unless a wider one landed first.
    """
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None and hit.prec >= prec:
        return hit.truncate(prec)
    out = compute(prec)
    with _memo_lock:
        hit = _memo.get(key)
        if hit is None or hit.prec < out.prec:
            _memo[key] = out
    return out


def _canonical_j(atom: ThetaAtom, prec: int) -> Series:
    """j(atom) for an atom already in the strip 0 <= a < m, from the
    triple-product sum."""
    return _widest(("j", atom.sign, atom.a, atom.m), prec,
                   lambda p: theta_j_sum(atom, p))


def cached_atoms() -> list:
    """Canonical atoms evaluated so far (the acceptance suite checks
    each one the registry touched against the triple product)."""
    with _memo_lock:
        keys = list(_memo)
    return [ThetaAtom(*key[1:]) for key in keys if key[0] == "j"]


def theta_j(atom: ThetaAtom, prec: int) -> Series:
    """j(sign*q^a; q^m) as an integer series with window reaching prec.

    Atoms outside the canonical strip are folded first; the vanishing
    case sign=+1, a = 0 mod m returns the exact zero series.
    """
    canonical, scale, d = fold_atom(atom)
    if canonical.sign == 1 and canonical.a == 0:
        return Series.zero(INTEGER, prec)
    body = _canonical_j(canonical, prec - d)
    out = body.shift(d)
    return out if scale == 1 else out.scale(scale)


def theta_j_inverse(atom: ThetaAtom, prec: int) -> Series:
    """1 / j(atom) with window reaching prec; leading unit required."""
    canonical, scale, d = fold_atom(atom)
    if canonical.sign == 1 and canonical.a == 0:
        raise SeriesError(f"cannot invert the zero theta series {atom}")
    inv = _widest(("inv", canonical.sign, canonical.a, canonical.m), prec + d,
                  lambda p: _canonical_j(canonical, max(p, 1)).invert())
    out = inv.shift(-d)
    return out if scale == 1 else out.scale(scale)


def theta_j_sum(atom: ThetaAtom, prec: int, base_sign: int = 1) -> Series:
    """The bilateral triple-product sum for j(sign*q^a; q^m):

        sum_n (-1)^n base_sign^C(n,2) sign^n q^(m*C(n,2) + a*n)

    evaluated directly (no folding), including every contributing n of
    either sign.  base_sign=-1 evaluates j at base -q^m, which is needed
    once for the j(x;-q) product identity.
    """
    sign, a, m = atom.sign, atom.a, atom.m
    half = abs(2 * a - m)
    disc = half * half + 8 * m * max(prec, 1)
    bound = (half + math.isqrt(disc)) // (2 * m) + 2
    coeffs: dict = {}
    for n in range(-bound, bound + 1):
        e = m * (n * (n - 1) // 2) + a * n
        if e >= prec:
            continue
        c = -1 if n % 2 else 1
        if sign == -1 and n % 2:
            c = -c
        if base_sign == -1 and (n * (n - 1) // 2) % 2:
            c = -c
        coeffs[e] = coeffs.get(e, 0) + c
    min_exp = min(coeffs) if coeffs else prec
    window = [0] * (prec - min_exp)
    for e, c in coeffs.items():
        window[e - min_exp] = c
    return Series(INTEGER, min_exp, window, prec)


# -- eta quotients ---------------------------------------------------------------

AtomLike = Union[ThetaAtom, Tuple[ThetaAtom, int]]


def _normalize_atoms(atoms: Iterable[AtomLike]) -> list:
    out = []
    for item in atoms:
        if isinstance(item, ThetaAtom):
            out.append((item, 1))
        else:
            atom, e = item
            if e < 1:
                raise ValueError("atom exponents must be positive")
            out.append((atom, e))
    return out


def eta_quotient(
    numerator: Iterable[AtomLike] = (),
    denominator: Iterable[AtomLike] = (),
    shift: int = 0,
    prec: int = 0,
) -> Series:
    """q^shift * prod(numerator) / prod(denominator).

    Atoms may be given bare or as (atom, exponent) pairs.  The quotient
    goes through the shared memo under ("quot", numerator, denominator,
    shift), so a repeated or narrower request is a truncation of the
    widest window computed so far.  A new or wider one inverts each
    denominator atom separately (the inverses are memoized per atom),
    which keeps the precision accounting local: every factor is computed
    just wide enough for the product window to reach prec.  The running
    product starts from the first factor, so a quotient of k factors
    costs k - 1 products, each walking the nonzeros of its sparser side.
    """
    num = tuple(_normalize_atoms(numerator))
    den = tuple(_normalize_atoms(denominator))
    return _widest(("quot", num, den, shift), prec,
                   lambda p: _quotient_product(num, den, shift, p))


def _quotient_product(num: tuple, den: tuple, shift: int, prec: int) -> Series:
    factors = []  # (atom, inverted, window valuation)
    for atom, e in num:
        canonical, _, d = fold_atom(atom)
        if canonical.sign == 1 and canonical.a == 0:
            # a vanishing theta factor kills the whole quotient exactly
            return Series.constant(INTEGER, 0, prec)
        factors.extend([(atom, False, d)] * e)
    for atom, e in den:
        canonical, _, d = fold_atom(atom)
        if canonical.sign == 1 and canonical.a == 0:
            raise SeriesError(f"division by the vanishing theta series {atom}")
        factors.extend([(atom, True, -d)] * e)
    total_val = sum(v for _, _, v in factors)
    target = prec - shift
    if target <= total_val:
        # the quotient's valuation alone puts it beyond the window
        return Series.zero(INTEGER, prec)
    width = target - total_val
    parts = [
        theta_j_inverse(atom, width + v) if inverted else theta_j(atom, width + v)
        for atom, inverted, v in factors
    ]
    out = reduce(mul, parts) if parts else Series.one(INTEGER, width)
    out = out.shift(shift)
    if out.prec < prec:
        raise SeriesError(
            f"eta quotient window ends at {out.prec}, needed {prec}"
        )
    return out.truncate(prec)


# -- the universal mock theta function g ----------------------------------------

def mock_g(spec: GSpec, prec: int) -> Series:
    """g(sign*q^a; q^m) with stored window [-a, prec).

    The inner sum is iterated while m*n^2 < prec + a, so the x^-1
    prefactor still leaves every coefficient below prec exact; the bound
    is pinned by a unit test comparing prec N against 2N.
    """
    return _widest(("g", spec.sign, spec.a, spec.m), prec,
                   lambda p: _mock_g_sum(spec, p))


def _mock_g_sum(spec: GSpec, prec: int) -> Series:
    s, a, m = spec.sign, spec.a, spec.m
    inner_prec = prec + a
    acc = Series.constant(INTEGER, -1, inner_prec)
    # term_0 = 1/(x)_1 = 1/(1 - s q^a)
    term = Series.one(INTEGER, inner_prec).div_binomial(s, a)
    acc = acc + term
    n = 1
    while m * n * n < inner_prec:
        term = term.shift(m * (2 * n - 1)).truncate(inner_prec)
        term = term.div_binomial(s, a + m * n)          # new factor of (x)_{n+1}
        term = term.div_binomial(s, m - a + m * (n - 1))  # new factor of (q/x)_n
        acc = acc + term
        n += 1
    out = acc.shift(-a)
    return out.scale(-1) if s == -1 else out


def eulerian_sum(kind: str, prec: int) -> Series:
    """The fifth-order Eulerian sums:

        f0(q) = sum_n q^(n^2)   / (-q;q)_n
        f1(q) = sum_n q^(n^2+n) / (-q;q)_n
    """
    if kind not in ("f0", "f1"):
        raise ValueError(f"unknown Eulerian sum {kind!r}")
    step = (lambda n: 2 * n - 1) if kind == "f0" else (lambda n: 2 * n)
    acc = Series.one(INTEGER, prec)
    term = Series.one(INTEGER, prec)
    n = 1
    while True:
        lead = n * n if kind == "f0" else n * n + n
        if lead >= prec:
            break
        term = term.shift(step(n)).truncate(prec)
        term = term.div_binomial(-1, n)  # new factor 1/(1+q^n)
        acc = acc + term
        n += 1
    return acc
