"""Truncated Laurent series over an exact coefficient ring.

A Series stores exact coefficients for every exponent e with
min_exp <= e < prec.  Coefficients below min_exp are known to be zero;
coefficients at e >= prec are unknown and may never be read.  This is an
absolute-precision model: every operation computes its output window
pessimistically, so a comparison that succeeds really has checked every
exponent below the reported bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import add, mul, sub
from typing import Optional, Sequence

from .rings import Ring, RingError


class SeriesError(ValueError):
    """Raised on precondition violations (window misuse, bad arguments)."""


class PrecisionError(SeriesError):
    """Raised when a coefficient beyond the known window is requested."""


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two series over their common window.

    ``verified_through`` is exclusive: all exponents e < verified_through
    were checked.  On disagreement the first offending exponent and both
    coefficients are recorded.
    """

    equal: bool
    verified_through: int
    exponent: Optional[int] = None
    lhs: object = None
    rhs: object = None


class Series:
    """Immutable truncated Laurent series in q."""

    __slots__ = ("ring", "min_exp", "coeffs", "prec")

    def __init__(self, ring: Ring, min_exp: int, coeffs: Sequence, prec: int):
        coeffs = ring.coerce_all(coeffs)
        if min_exp > prec:
            raise SeriesError(f"min_exp {min_exp} exceeds prec {prec}")
        if len(coeffs) != prec - min_exp:
            raise SeriesError(
                f"coefficient window has length {len(coeffs)}, "
                f"expected prec - min_exp = {prec - min_exp}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Series is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, prec: int) -> "Series":
        """The series known to vanish below prec."""
        return cls(ring, prec, (), prec)

    @classmethod
    def constant(cls, ring: Ring, value, prec: int) -> "Series":
        if prec <= 0:
            return cls.zero(ring, prec)
        return cls(ring, 0, (value,) + (ring.zero,) * (prec - 1), prec)

    @classmethod
    def one(cls, ring: Ring, prec: int) -> "Series":
        return cls.constant(ring, ring.one, prec)

    @classmethod
    def monomial(cls, ring: Ring, exponent: int, prec: int, coeff=None) -> "Series":
        """coeff * q^exponent, known through prec."""
        if coeff is None:
            coeff = ring.one
        if prec <= exponent:
            return cls.zero(ring, prec)
        window = [ring.zero] * (prec - exponent)
        window[0] = coeff
        return cls(ring, exponent, window, prec)

    @classmethod
    def from_coeffs(cls, ring: Ring, min_exp: int, coeffs: Sequence, prec: Optional[int] = None) -> "Series":
        if prec is None:
            prec = min_exp + len(coeffs)
        pad = prec - min_exp - len(coeffs)
        if pad < 0:
            raise SeriesError("more coefficients than the window allows")
        return cls(ring, min_exp, tuple(coeffs) + (ring.zero,) * pad, prec)

    # -- basic accessors ---------------------------------------------------

    def coeff(self, e: int):
        """Exact coefficient at exponent e.

        Exponents below min_exp are known zeros; exponents at or beyond
        prec are unknown and raise rather than silently returning 0.
        """
        if e >= self.prec:
            raise PrecisionError(
                f"coefficient at q^{e} is beyond the known window "
                f"(prec {self.prec})"
            )
        if e < self.min_exp:
            return self.ring.zero
        return self.coeffs[e - self.min_exp]

    def valuation(self) -> Optional[int]:
        """Exponent of the first nonzero coefficient, or None if the
        series vanishes on its whole window."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exp + i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def _window(self, lo: int, hi: int) -> tuple:
        """The coefficients at lo <= e < hi, for lo <= min_exp and
        hi <= prec: zeros below min_exp, then a slice of the window."""
        pad = min(self.min_exp, hi) - lo
        return (self.ring.zero,) * pad + self.coeffs[: max(hi - self.min_exp, 0)]

    def nonzero_items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring or self.prec != other.prec:
            return False
        lo = min(self.min_exp, other.min_exp)
        return self._window(lo, self.prec) == other._window(lo, self.prec)

    __hash__ = None

    def __repr__(self):
        terms = []
        for e, c in islice(self.nonzero_items(), 8):
            terms.append(f"{self.ring.coeff_to_text(c)}*q^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"<Series {self.ring.tag()} [{self.min_exp},{self.prec}) {body} ...>"

    # -- ring plumbing -----------------------------------------------------

    def _require_same_ring(self, other: "Series") -> None:
        if self.ring != other.ring:
            raise RingError(
                f"ring mismatch: {self.ring.tag()} vs {other.ring.tag()}"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_ring(other)
        min_exp = min(self.min_exp, other.min_exp)
        prec = min(self.prec, other.prec)
        if prec < min_exp:
            min_exp = prec
        out = [self.ring.zero] * (prec - min_exp)
        for s in (self, other):
            # s holds exponents [s.min_exp, prec) at out[i : i + n]
            n = prec - s.min_exp
            if n > 0:
                i = s.min_exp - min_exp
                out[i : i + n] = map(add, out[i : i + n], s.coeffs[:n])
        return Series(self.ring, min_exp, out, prec)

    def __neg__(self):
        return Series(self.ring, self.min_exp, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        """Cauchy product; the window is [min_a + min_b, min(prec_a + min_b,
        prec_b + min_a)).

        The sparser factor's nonzero coefficients are the rows: each one
        adds a scaled slice of the other factor into the output, so the
        cost is (nonzeros of the sparser factor) x (window length).
        """
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_ring(other)
        min_exp = self.min_exp + other.min_exp
        prec = min(self.prec + other.min_exp, other.prec + self.min_exp)
        length = prec - min_exp
        if length <= 0:
            return Series.zero(self.ring, prec)
        rows, dense = self.coeffs, other.coeffs
        rows_at = list(compress(range(length), rows))
        dense_at = list(compress(range(length), dense))
        if len(dense_at) < len(rows_at):
            rows, dense, rows_at = dense, rows, dense_at
        out = [self.ring.zero] * length
        for i in rows_at:
            # map stops with out[i:], so the row reads dense[: length - i]
            c = rows[i]
            if c == 1:
                out[i:] = map(add, out[i:], dense)
            elif c == -1:
                out[i:] = map(sub, out[i:], dense)
            else:
                out[i:] = map(add, out[i:], map(mul, repeat(c), dense))
        return Series(self.ring, min_exp, out, prec)

    def scale(self, c) -> "Series":
        """Multiply by an exact scalar; the window is unchanged."""
        c = self.ring.coerce(c)
        return Series(self.ring, self.min_exp, [c * x for x in self.coeffs], self.prec)

    def shift(self, k: int) -> "Series":
        """Multiply by q^k exactly; min_exp and prec both move by k."""
        if k == 0:
            return self
        return Series(self.ring, self.min_exp + k, self.coeffs, self.prec + k)

    def mul_binomial(self, c, e: int) -> "Series":
        """Multiply by the exact binomial (1 + c*q^e), e != 0.

        The binomial is exact, so only a negative e shrinks the window:
        the new window is [min_exp + min(0,e), prec + min(0,e)).
        """
        if e == 0:
            raise SeriesError("binomial exponent must be nonzero")
        c = self.ring.coerce(c)
        drop = min(0, e)
        min_exp = self.min_exp + drop
        prec = self.prec + drop
        out = [self.ring.zero] * (prec - min_exp)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            pos = self.min_exp + i - min_exp
            if pos < len(out):
                out[pos] = out[pos] + a
            pos += e
            if 0 <= pos < len(out):
                out[pos] = out[pos] + c * a
        return Series(self.ring, min_exp, out, prec)

    def div_binomial(self, c, e: int) -> "Series":
        """Divide by (1 - c*q^e) exactly, e >= 1; the window is unchanged."""
        if e < 1:
            raise SeriesError("binomial exponent must be positive")
        c = self.ring.coerce(c)
        out = [self.ring.zero] * (self.prec - self.min_exp)
        out[: len(self.coeffs)] = list(self.coeffs)
        for k in range(e, len(out)):
            prev = out[k - e]
            if prev:
                out[k] = out[k] + c * prev
        return Series(self.ring, self.min_exp, out, self.prec)

    def divide(self, other: "Series") -> "Series":
        """Exact quotient self / other by classical power-series division
        (Knuth, TAOCP vol. 2, section 4.7).

        The divisor's first nonzero coefficient must be a unit (+-1 over
        the integers, nonzero over the rationals).  With v the divisor's
        valuation the window is [min_exp - v, min(prec - v, other.prec -
        2v + min_exp)): the dividend's window moved by -v, cut where the
        divisor's relative precision ends.  Each coefficient is
        b[k] = lead^-1 * (a[k] - sum d[j] b[k-j]) over the divisor's
        nonzero d[j], j >= 1, so the cost is (nonzeros of the divisor) x
        (window length), like a sparse product.
        """
        self._require_same_ring(other)
        nonzero = list(compress(range(len(other.coeffs)), other.coeffs))
        if not nonzero:
            raise SeriesError(
                f"cannot divide by a series that vanishes through q^{other.prec - 1}"
            )
        start = nonzero[0]
        v = other.min_exp + start
        lead_inv = self.ring.invert_unit(other.coeffs[start], v)
        min_exp = self.min_exp - v
        prec = min(self.prec - v, other.prec - 2 * v + self.min_exp)
        monic = lead_inv == 1
        # while b holds b[0..k-1], b[-j] is b[k-j]; the rows are -j for the
        # nonzero d[j] with 1 <= j <= k, split like the product's rows so
        # that a +-1 coefficient adds or subtracts without a multiplication
        plus, minus, scaled, scales = [], [], [], []
        pending = (i - start for i in nonzero[1:])
        j = next(pending, None)
        b = []
        for k, acc in enumerate(self.coeffs[: prec - min_exp]):
            if j == k:
                c = other.coeffs[start + j]
                if c == 1:
                    plus.append(-j)
                elif c == -1:
                    minus.append(-j)
                else:
                    scaled.append(-j)
                    scales.append(c)
                j = next(pending, None)
            if plus:
                acc = acc - sum(map(b.__getitem__, plus))
            if minus:
                acc = acc + sum(map(b.__getitem__, minus))
            if scaled:
                acc = acc - sum(map(mul, scales, map(b.__getitem__, scaled)))
            b.append(acc if monic else lead_inv * acc)
        return Series(self.ring, min_exp, b, prec)

    def invert(self) -> "Series":
        """Multiplicative inverse: Series.one divided by self.

        The first nonzero coefficient must be a unit.  With valuation v
        the dividend is one through prec - v, so the result has window
        [-v, prec - 2v): relative precision is preserved, absolute
        precision shrinks by 2v.
        """
        v = self.valuation()
        # a vanishing series has no valuation; divide raises on it
        width = self.prec - v if v is not None else self.prec
        return Series.one(self.ring, width).divide(self)

    def truncate(self, prec: int) -> "Series":
        """Restrict the window to exponents below prec (prec <= self.prec)."""
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend window: have prec {self.prec}, asked {prec}"
            )
        if prec >= self.prec:
            return self
        min_exp = min(self.min_exp, prec)
        return Series(self.ring, min_exp, self.coeffs[: prec - min_exp], prec)

    # -- substitutions and dissections --------------------------------------

    def inflate(self, t: int) -> "Series":
        """Substitute q -> q^t: the coefficient of q^n moves to q^(t*n).

        The output precision is exactly t*(prec-1)+1: every exponent
        below that bound is either t*n with n < prec or a non-multiple
        of t, and both are known.
        """
        if t < 1:
            raise SeriesError("inflation factor must be >= 1")
        if t == 1:
            return self
        min_exp = t * self.min_exp
        prec = max(t * (self.prec - 1) + 1, min_exp)
        out = [self.ring.zero] * (prec - min_exp)
        for i, c in enumerate(self.coeffs):
            if c:
                out[t * i] = c
        return Series(self.ring, min_exp, out, prec)

    def dissect(self, t: int, r: int) -> "Series":
        """Keep only exponents congruent to r mod t, in the original variable."""
        if t < 1:
            raise SeriesError("dissection modulus must be >= 1")
        if not 0 <= r < t:
            raise SeriesError(f"residue {r} out of range for modulus {t}")
        out = [
            c if (self.min_exp + i) % t == r else self.ring.zero
            for i, c in enumerate(self.coeffs)
        ]
        return Series(self.ring, self.min_exp, out, self.prec)

    def deflate(self, t: int, r: int) -> "Series":
        """Map the progression t*n + r onto n.

        Every nonzero coefficient must already sit on the progression;
        a stray coefficient raises, naming its exponent.
        """
        if t < 1:
            raise SeriesError("deflation modulus must be >= 1")
        if not 0 <= r < t:
            raise SeriesError(f"residue {r} out of range for modulus {t}")
        min_exp = -((r - self.min_exp) // t)  # ceil((min_exp - r) / t)
        prec = -((r - self.prec) // t)  # ceil((prec - r) / t)
        out = [self.ring.zero] * (prec - min_exp)
        for e, c in self.nonzero_items():
            if e % t != r:
                raise SeriesError(
                    f"coefficient at q^{e} is off the progression "
                    f"{t}n+{r}; dissect first"
                )
            out[(e - r) // t - min_exp] = c
        return Series(self.ring, min_exp, out, prec)

    def substitute_neg_q(self) -> "Series":
        """Substitute q -> -q: the coefficient at q^n picks up (-1)^n."""
        out = [
            -c if (self.min_exp + i) % 2 else c
            for i, c in enumerate(self.coeffs)
        ]
        return Series(self.ring, self.min_exp, out, self.prec)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "Series") -> Comparison:
        """Compare coefficients over the common window.

        Coefficients below either series' min_exp are exact zeros and
        participate in the comparison.  An empty common window signals a
        precision-management bug in the caller and raises.
        """
        self._require_same_ring(other)
        upper = min(self.prec, other.prec)
        if upper <= max(self.min_exp, other.min_exp) and upper <= min(
            self.min_exp, other.min_exp
        ):
            # Both windows are empty below upper: nothing was comparable.
            raise PrecisionError(
                f"empty comparison window (precs {self.prec}, {other.prec})"
            )
        lo = min(self.min_exp, other.min_exp)
        mine = self._window(lo, upper)
        theirs = other._window(lo, upper)
        if mine == theirs:
            return Comparison(True, upper)
        e, a, b = next(
            (lo + i, a, b) for i, (a, b) in enumerate(zip(mine, theirs)) if a != b
        )
        return Comparison(False, upper, e, a, b)

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "ring": self.ring.tag(),
            "min_exp": self.min_exp,
            "prec": self.prec,
            "coeffs": [self.ring.coeff_to_json(c) for c in self.coeffs],
        }

    def to_text(self) -> str:
        lines = [
            f"ring={self.ring.tag()} min_exp={self.min_exp} prec={self.prec}"
        ]
        for i, c in enumerate(self.coeffs):
            lines.append(f"q^{self.min_exp + i}: {self.ring.coeff_to_text(c)}")
        return "\n".join(lines)
