"""Theta-function and mock-theta building blocks.

All special functions used by the verification registry are built here:

  * finite and infinite Pochhammer products (s*q^a; q^m)_n,
  * the theta function j(s*q^a; q^m), expanded from the Jacobi triple
    product's bilateral sum
        j(x; q^m) = sum_n (-1)^n q^(m*n(n-1)/2) x^n,
    with automatic folding of atoms outside the canonical strip,
  * eta-quotient monomials  scale * q^shift * prod(j)/prod(j),
  * the universal mock theta function
        g(x;q) = x^-1 (-1 + sum_{n>=0} q^(n^2) / ((x)_{n+1} (q/x)_n)),
  * the Eulerian sums defining the fifth-order functions f0 and f1,
  * the fixed linear combinators (theta4/G4, theta8/G8, theta8', theta5/G5,
    theta7/G7) that package the 2-, 4-, 5- and 7-dissection statements.

Folding uses j(q*x;q) = -x^-1 j(x;q), iterated:

    j(s*q^(a0+mk); q^m) = (-1)^k s^k q^(-m*k(k-1)/2 - a0*k) j(s*q^a0; q^m)

which moves any exponent into 0 <= a0 < m.  For s=+1 and a0=0 the theta
function vanishes identically and the exact zero series is returned.

A canonical atom needs only the O(sqrt(prec/m)) terms of the sum whose
exponent lies below prec; the product form
(x; q^m)_inf (q^m/x; q^m)_inf (q^m; q^m)_inf serves as the independent
oracle in the tests.

Atom and mock-g expansions are memoized per (sign, a, m); the caches keep
the widest window computed so far and serve narrower requests by
truncation.  Cache access is lock-guarded, so concurrent verification
tasks may share them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterable, Sequence, Tuple, Union

from .rings import INTEGER, RATIONAL, Ring
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


_atom_cache: dict = {}
_atom_lock = threading.Lock()


def _canonical_j(sign: int, a0: int, m: int, prec: int) -> Series:
    """j(sign*q^a0; q^m) for an atom already in the strip 0 <= a0 < m,
    from the triple-product sum; the widest window is cached."""
    key = (sign, a0, m)
    with _atom_lock:
        hit = _atom_cache.get(key)
        if hit is not None and hit.prec >= prec:
            return hit.truncate(prec)
        out = theta_j_sum(ThetaAtom(sign, a0, m), prec)
        _atom_cache[key] = out
        return out


def cached_atoms() -> list:
    """Canonical atoms evaluated so far (the acceptance suite checks
    each one the registry touched against the triple product)."""
    with _atom_lock:
        return [ThetaAtom(s, a, m) for (s, a, m) in _atom_cache]


def theta_j(atom: ThetaAtom, prec: int) -> Series:
    """j(sign*q^a; q^m) as an integer series with window reaching prec.

    Atoms outside the canonical strip are folded first; the vanishing
    case sign=+1, a = 0 mod m returns the exact zero series.
    """
    canonical, scale, d = fold_atom(atom)
    if canonical.sign == 1 and canonical.a == 0:
        return Series.zero(INTEGER, prec)
    body = _canonical_j(canonical.sign, canonical.a, canonical.m, prec - d)
    out = body.shift(d)
    return out if scale == 1 else out.scale(scale)


def theta_j_inverse(atom: ThetaAtom, prec: int) -> Series:
    """1 / j(atom) with window reaching prec; leading unit required."""
    canonical, scale, d = fold_atom(atom)
    if canonical.sign == 1 and canonical.a == 0:
        raise SeriesError(f"cannot invert the zero theta series {atom}")
    inv = _canonical_inv(canonical.sign, canonical.a, canonical.m, prec + d)
    out = inv.shift(-d)
    return out if scale == 1 else out.scale(scale)


_inv_cache: dict = {}
_inv_lock = threading.Lock()


def _canonical_inv(sign: int, a0: int, m: int, prec: int) -> Series:
    key = (sign, a0, m)
    with _inv_lock:
        hit = _inv_cache.get(key)
        if hit is not None and hit.prec >= prec:
            return hit.truncate(prec)
    inv = _canonical_j(sign, a0, m, max(prec, 1)).invert()
    with _inv_lock:
        _inv_cache[key] = inv
    return inv


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
    scale=1,
    prec: int = 0,
    ring: Ring = INTEGER,
) -> Series:
    """scale * q^shift * prod(numerator) / prod(denominator).

    Atoms may be given bare or as (atom, exponent) pairs.  Each
    denominator atom is inverted separately (the inverses are cached per
    atom), which keeps the precision accounting local: every factor is
    computed just wide enough for the product window to reach prec.  The
    running product starts from the first factor, so a quotient of k
    factors costs k - 1 products, each walking the nonzeros of its
    sparser side.
    """
    factors = []  # (atom, inverted, window valuation)
    for atom, e in _normalize_atoms(numerator):
        canonical, _, d = fold_atom(atom)
        if canonical.sign == 1 and canonical.a == 0:
            # a vanishing theta factor kills the whole quotient exactly
            return Series.constant(ring, 0, prec)
        factors.extend([(atom, False, d)] * e)
    for atom, e in _normalize_atoms(denominator):
        canonical, _, d = fold_atom(atom)
        if canonical.sign == 1 and canonical.a == 0:
            raise SeriesError(f"division by the vanishing theta series {atom}")
        factors.extend([(atom, True, -d)] * e)
    total_val = sum(v for _, _, v in factors)
    target = prec - shift
    if target <= total_val:
        # the quotient's valuation alone puts it beyond the window
        return Series.zero(ring, prec)
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
    out = out.truncate(prec)
    if ring == RATIONAL:
        out = out.to_rational()
    if scale != 1:
        out = out.scale(scale)
    return out


# -- the universal mock theta function g ----------------------------------------

_g_cache: dict = {}
_g_lock = threading.Lock()


def mock_g(spec: GSpec, prec: int) -> Series:
    """g(sign*q^a; q^m) with stored window [-a, prec).

    The inner sum is iterated while m*n^2 < prec + a, so the x^-1
    prefactor still leaves every coefficient below prec exact; the bound
    is pinned by a unit test comparing prec N against 2N.
    """
    key = (spec.sign, spec.a, spec.m)
    with _g_lock:
        hit = _g_cache.get(key)
        if hit is not None and hit.prec >= prec:
            return hit.truncate(prec)
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
    if s == -1:
        out = out.scale(-1)
    with _g_lock:
        _g_cache[key] = out
    return out


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


# -- dissection combinators ------------------------------------------------------

# Each theta family is a list of (shift, numerator atoms) sharing a fixed
# rational prefactor over a common denominator atom list; each G family
# is a list of (constant, shift, g-spec) triples.

_THETA_FAMILIES = {
    "theta4": (
        Fraction(1, 4),
        (eta_atom(4),),
        (
            (0, (Jbar(4, 8), Jbar(6, 16))),
            (2, (Jbar(0, 8), Jbar(14, 16))),
            (1, (Jbar(4, 8), Jbar(14, 16))),
            (1, (Jbar(0, 8), Jbar(6, 16))),
        ),
    ),
    "theta8": (
        Fraction(1, 8),
        (eta_atom(4),),
        (
            (0, (Jbar(4, 8), Jbar(28, 64))),
            (4, (Jbar(0, 8), Jbar(52, 64))),
            (1, (Jbar(4, 8), Jbar(20, 64))),
            (1, (Jbar(0, 8), Jbar(28, 64))),
            (2, (Jbar(0, 8), Jbar(20, 64))),
            (6, (Jbar(4, 8), Jbar(60, 64))),
            (3, (Jbar(4, 8), Jbar(52, 64))),
            (7, (Jbar(0, 8), Jbar(60, 64))),
        ),
    ),
    "theta8prime": (
        Fraction(1, 2),
        (eta_atom(4),),
        (
            (0, (J(4, 8), Jbar(28, 64))),
            (1, (J(4, 8), Jbar(20, 64))),
            (6, (J(4, 8), Jbar(60, 64))),
            (3, (J(4, 8), Jbar(52, 64))),
        ),
    ),
    "theta5": (
        Fraction(1, 5),
        ((eta_atom(5), 2),),
        (
            (0, ((J(10, 25), 3),)),
            (1, (J(5, 25), (J(10, 25), 2))),
            (2, ((J(5, 25), 2), J(10, 25))),
            (3, ((J(5, 25), 3),)),
        ),
    ),
    "theta7": (
        Fraction(1, 7),
        (eta_atom(7),),
        (
            (0, ((J(21, 49), 2),)),
            (1, (J(14, 49), J(21, 49))),
            (2, ((J(14, 49), 2),)),
            (3, (J(7, 49), J(21, 49))),
            (4, (J(7, 49), J(14, 49))),
            (6, ((J(7, 49), 2),)),
        ),
    ),
}

# (constant term, q-shift, g spec) per slot.
_G_FAMILIES = {
    "G4": (
        (-1, 2, GSpec(-1, 2, 16)),
        (0, 5, GSpec(-1, 6, 16)),
    ),
    "G8": (
        (1, 2, GSpec(1, 2, 16)),
        (-1, 2, GSpec(-1, 2, 16)),
        (0, 5, GSpec(1, 6, 16)),
        (0, 5, GSpec(-1, 6, 16)),
    ),
    "G5": (
        (0, 5, GSpec(1, 5, 25)),
        (0, 8, GSpec(1, 10, 25)),
    ),
    "G7": (
        (1, 7, GSpec(1, 7, 49)),
        (0, 16, GSpec(1, 21, 49)),
        (0, 13, GSpec(1, 14, 49)),
    ),
}

FAMILY_ARITIES = {
    "theta4": 4,
    "G4": 2,
    "theta8": 8,
    "G8": 4,
    "theta8prime": 4,
    "theta5": 4,
    "G5": 2,
    "theta7": 6,
    "G7": 3,
}


@dataclass(frozen=True)
class CombinatorSpec:
    """A named linear combinator with its coefficient vector."""

    family: str
    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.family not in FAMILY_ARITIES:
            raise ValueError(f"unknown combinator family {self.family!r}")
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if len(coeffs) != FAMILY_ARITIES[self.family]:
            raise ValueError(
                f"{self.family} takes {FAMILY_ARITIES[self.family]} "
                f"coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coefficients", coeffs)


def combinator(spec: CombinatorSpec, prec: int) -> Series:
    """Evaluate a combinator as a rational series with window [.., prec)."""
    out = Series.zero(RATIONAL, prec)
    if spec.family in _THETA_FAMILIES:
        prefactor, den, terms = _THETA_FAMILIES[spec.family]
        for c, (shift, num) in zip(spec.coefficients, terms):
            if not c:
                continue
            out = out + eta_quotient(
                num, den, shift=shift, scale=prefactor * c, prec=prec, ring=RATIONAL
            )
        return out
    for c, (const, shift, gspec) in zip(spec.coefficients, _G_FAMILIES[spec.family]):
        if not c:
            continue
        term = mock_g(gspec, prec - shift).shift(shift).to_rational().scale(c)
        if const:
            term = term + Series.constant(RATIONAL, Fraction(const) * c, prec)
        out = out + term
    return out


def theta_comb(family: str, *coefficients) -> CombinatorSpec:
    return CombinatorSpec(family, tuple(Fraction(c) for c in coefficients))
