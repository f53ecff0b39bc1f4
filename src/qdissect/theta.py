"""Theta-function and mock-theta building blocks.

All special functions used by the verification registry are built here:

  * the theta function j(s*q^a; q^m), expanded from the Jacobi triple
    product's bilateral sum
        j(x; q^m) = sum_n (-1)^n q^(m*n(n-1)/2) x^n,
    with automatic folding of atoms outside the canonical strip,
  * eta-quotient monomials  q^shift * prod(j)/prod(j),
  * the universal mock theta function
        g(x;q) = x^-1 (-1 + sum_{n>=0} q^(n^2) / ((x)_{n+1} (q/x)_n)),
  * the Eulerian sums defining the fifth-order functions f0 and f1,
    which, like g, add all their terms in one Series.combine.

Folding uses two laws.  The shift law j(q*x;q) = -x^-1 j(x;q), iterated,

    j(s*q^(a0+mk); q^m) = (-1)^k s^k q^(-m*k(k-1)/2 - a0*k) j(s*q^a0; q^m),

moves any exponent into 0 <= a0 < m.  The reflection j(x;q) = j(q/x;q)
reads j(s*q^a0; q^m) = j(s*q^(m-a0); q^m), with no unit or shift, and
takes a0 to min(a0, m - a0).  So every atom lands in the strip
0 <= a <= m/2, and _normal_form applies both laws once per atom.  For
s=+1 and a=0 the theta function vanishes identically: the exact zero
series is returned, and dividing by it raises.

A canonical atom needs only the O(sqrt(prec/m)) terms of the sum whose
exponent lies below prec; the product form
(x; q^m)_inf (q^m/x; q^m)_inf (q^m; q^m)_inf serves as the independent
oracle in the tests.

Every theta value -- an atom, its inverse, a whole eta quotient -- is
reached through one normal form, (unit, shift, ((sign, a, m, k), ...)):
unit * q^shift * prod j(sign*q^a; q^m)^k with every atom folded into
the strip and the exponents of both sides merged.  The sorted factor
tuple alone is the memo key, so one product of canonical atoms however
written, and under whatever unit and shift, is computed and stored once;
eta_quotient applies q^shift and the unit to it on the way out.  A lone
canonical atom ((sign, a, m, 1),) is the triple-product sum, and any
other factor tuple the product of its numerator atoms divided by each
denominator atom in turn, the lone inverse ((sign, a, m, -1),)
included.  A product of two atoms costs one step per pair of their
nonzeros; a product or an exact power-series division of a dense
running product by one atom costs the atom's nonzeros times the window.
Mock-g specializations share the memo under ("g", sign, a, m), and the
Eulerian sums under ("eulerian", "f0") and ("eulerian", "f1").  It keeps
the widest window computed so far and serves narrower requests by
truncation, so a repeated quotient, g or Eulerian sum costs no products
or divisions; a wider request is computed outside the lock and replaces
the entry.
Concurrent verification tasks may share it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Iterable, Optional, Tuple, Union

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


# -- the theta function j and eta quotients --------------------------------------

AtomLike = Union[ThetaAtom, Tuple[ThetaAtom, int]]


def _normal_form(numerator: Iterable[AtomLike], denominator: Iterable[AtomLike],
                 shift: int) -> Optional[tuple]:
    """The normal form of q^shift * prod(numerator) / prod(denominator).

    Returns (unit, shift, factors): the quotient equals unit * q^shift *
    prod j(sign*q^a; q^m)^k over the sorted factors (sign, a, m, k), each
    atom in the strip 0 <= a <= m/2 and each k != 0.  Every atom is folded
    once, by the shift law j(qx;q) = -x^-1 j(x;q) into 0 <= a < m and by
    the reflection j(x;q) = j(q/x;q) into a <= m/2, and the exponents of
    both sides merged, so atom order, repeated atoms, an atom on both
    sides and a shifted or reflected atom give one key.  None
    when a numerator atom vanishes identically; a vanishing denominator
    atom raises, also over a vanishing numerator (0/0 is no series).
    """
    unit = 1
    vanishes = False
    exponents: dict = {}
    for side, atoms in ((1, numerator), (-1, denominator)):
        for item in atoms:
            atom, e = (item, 1) if isinstance(item, ThetaAtom) else item
            if e < 1:
                raise ValueError("atom exponents must be positive")
            sign, m = atom.sign, atom.m
            k, a = divmod(atom.a, m)
            if sign == 1 and a == 0:
                if side == -1:
                    raise SeriesError(f"division by the vanishing theta series {atom}")
                vanishes = True
            if sign == 1 and k % 2 and e % 2:
                unit = -unit
            shift -= side * e * (m * (k * (k - 1) // 2) + a * k)
            a = min(a, (m - a) % m)  # j(x;q^m) = j(q^m/x;q^m), sign kept
            exponents[sign, a, m] = exponents.get((sign, a, m), 0) + side * e
    if vanishes:
        return None
    factors = tuple(sorted((*atom, k) for atom, k in exponents.items() if k))
    return unit, shift, factors


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


def _quotient(factors: tuple, width: int) -> Series:
    """prod j(sign*q^a; q^m)^k over the factors through width, memoized."""
    return _widest(factors, width, lambda w: _quotient_product(factors, w))


def _quotient_product(factors: tuple, width: int) -> Series:
    if len(factors) == 1 and factors[0][3] == 1:
        return theta_j_sum(ThetaAtom(*factors[0][:3]), width)
    # canonical atoms have valuation 0, so every atom is needed through
    # the same width and dividing by one keeps the window
    atoms = [(_quotient(((sign, a, m, 1),), width), k) for sign, a, m, k in factors]
    numerator = [atom for atom, k in atoms for _ in range(k)]
    out = reduce(mul, numerator) if numerator else Series.one(width)
    for atom, k in atoms:
        for _ in range(-k):
            out = out.divide(atom)
    return out


def cached_atoms() -> list:
    """Canonical atoms evaluated so far (the acceptance suite checks
    each one the registry touched against the triple product): the
    memo's lone-atom keys, not its products, g or Eulerian entries."""
    with _memo_lock:
        keys = list(_memo)
    # a lone atom's key has one entry; ("g", sign, a, m) has four and
    # ("eulerian", kind) two
    return [ThetaAtom(*key[0][:3]) for key in keys if len(key) == 1 and key[0][3] == 1]


def eta_quotient(
    numerator: Iterable[AtomLike] = (),
    denominator: Iterable[AtomLike] = (),
    shift: int = 0,
    prec: int = 0,
) -> Series:
    """q^shift * prod(numerator) / prod(denominator), with window ending
    at prec.

    Atoms may be given bare or as (atom, exponent) pairs.  The product of
    canonical atoms in the normal form unit * q^shift * prod j^k goes
    through the shared memo under its factors alone, through prec - shift,
    so a repeated or narrower request under any unit and shift is a
    truncation plus one shifted (for unit -1, negated) window.  A new or
    wider product multiplies the canonical numerator atoms, then divides
    by each denominator atom with multiplicity: k - 1 products and l
    divisions for k and l factors.  Atom by atom, a product walks the
    pairs of the two atoms' O(sqrt(prec/m)) nonzeros; once the running
    product is dense, each product and division walks the nonzeros of
    one atom across the window.  No factor is a dense inverse.  With no
    factor left the quotient is the monomial unit * q^shift, one window.
    """
    form = _normal_form(numerator, denominator, shift)
    if form is None:
        # a vanishing theta factor kills the whole quotient exactly
        return Series.monomial(INTEGER, 0, prec, 0)
    unit, shift, factors = form
    if not factors or prec <= shift:
        # the monomial unit * q^shift, zero in a window ending at or below it
        return Series.monomial(INTEGER, shift, prec, unit)
    out = _quotient(factors, prec - shift).shift(shift)
    return out if unit == 1 else out.scale(unit)


def theta_j(atom: ThetaAtom, prec: int) -> Series:
    """j(sign*q^a; q^m) as an integer series with window ending at prec."""
    return eta_quotient([atom], prec=prec)


def theta_j_inverse(atom: ThetaAtom, prec: int) -> Series:
    """1 / j(atom) with window ending at prec; leading unit required."""
    return eta_quotient(denominator=[atom], prec=prec)


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
    one = Series.one(inner_prec)
    # term_0 = 1/(x)_1 = 1/(1 - s q^a); x^-1 = s q^-a puts s on every term
    term = one.div_binomial(s, a)
    terms = [(-s, one), (s, term)]
    n = 1
    while m * n * n < inner_prec:
        term = term.shift(m * (2 * n - 1)).truncate(inner_prec)
        term = term.div_binomial(s, a + m * n)          # new factor of (x)_{n+1}
        term = term.div_binomial(s, m - a + m * (n - 1))  # new factor of (q/x)_n
        terms.append((s, term))
        n += 1
    return Series.combine(inner_prec, terms).shift(-a)


def eulerian_sum(kind: str, prec: int) -> Series:
    """The fifth-order Eulerian sums:

        f0(q) = sum_n q^(n^2)   / (-q;q)_n
        f1(q) = sum_n q^(n^2+n) / (-q;q)_n

    Memoized like g, under ("eulerian", kind): each is summed once, at
    the widest precision asked for so far, and a narrower request is a
    truncation.
    """
    if kind not in ("f0", "f1"):
        raise ValueError(f"unknown Eulerian sum {kind!r}")
    return _widest(("eulerian", kind), prec, lambda p: _eulerian_sum(kind, p))


def _eulerian_sum(kind: str, prec: int) -> Series:
    extra = 0 if kind == "f0" else 1  # f1's q^n: term n starts at q^(n^2 + extra*n)
    term = Series.one(prec)
    terms = [(1, term)]
    n = 1
    while n * (n + extra) < prec:
        term = term.shift(2 * n - 1 + extra).truncate(prec)
        term = term.div_binomial(-1, n)  # new factor 1/(1+q^n)
        terms.append((1, term))
        n += 1
    return Series.combine(prec, terms)
