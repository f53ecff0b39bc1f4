"""Truncated Laurent series over an exact coefficient ring.

A Series stores exact coefficients for every exponent e with
min_exp <= e < prec.  Coefficients below min_exp are known to be zero;
coefficients at e >= prec are unknown and may never be read.  This is an
absolute-precision model: every operation computes its output window
pessimistically, so a comparison that succeeds really has checked every
exponent below the reported bound.

Only the integer ring computes.  Every method that works out a new
coefficient (combine, and so + and scale; *, divide and invert; the
binomial products and quotients; substitute_neg_q) takes integer series
alone and raises RingError on any other ring.  The window methods, which
only select, move or read stored coefficients (coeff, valuation,
nonzero_items, truncate, shift, extend, dissect, deflate, compare, ==,
and the JSON and text output), work on every ring: rational and
count-vector series are built, read and printed, never added or
multiplied.

Every weighted sum is one Series.combine, built in a single window:
a + b and s.scale(c) are its two-term and one-term cases.

Each coefficient is checked once, where it is computed or passed in:
the constructor runs Ring.coerce_all over every window a kernel
computed and every list or tuple a caller passed, and monomial coerces
its one coefficient.  The window methods (truncate, shift, dissect,
deflate, and extend for its stored part) only select, move or zero-fill
coefficients that were checked when their series was built, so they
carry the check: they hand the constructor a _Checked window, which it
stores without a scan.  The mark is bound to the ring of the series it
came from and lives only for the constructor call; a series stores a
plain tuple, so its coefficients passed in again, under any ring, are
checked like any other input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import add, itemgetter, mul, sub
from typing import Optional, Sequence, Tuple

from .rings import INTEGER, Ring, RingError


class SeriesError(ValueError):
    """Raised on precondition violations (window misuse, bad arguments)."""


class PrecisionError(SeriesError):
    """Raised when a coefficient beyond the known window is requested."""


@dataclass(frozen=True)
class Comparison:
    """Outcome of any check: Series.compare and the identities checks.

    ``equal`` means the check held on every exponent it read.
    ``verified_through`` is exclusive: all exponents e < verified_through
    were checked.  On failure the first offending exponent and both
    coefficients are recorded; ``notes`` carry what the check saw but
    does not count as a failure.
    """

    equal: bool
    verified_through: int
    exponent: Optional[int] = None
    lhs: object = None
    rhs: object = None
    notes: Tuple[str, ...] = ()


class _Checked:
    """Coefficients a window method moved out of a series over ``ring``,
    so already checked: Series.__init__ stores them without a scan when
    it is asked for that same ring."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: Ring, values: Sequence):
        self.ring = ring
        self.values = values

    def __iter__(self):
        return iter(self.values)


def _require_ring(ring: Ring, *series: "Series") -> None:
    for s in series:
        if s.ring != ring:
            raise RingError(f"ring mismatch: {ring.tag()} vs {s.ring.tag()}")


class Series:
    """Immutable truncated Laurent series in q."""

    __slots__ = ("ring", "min_exp", "coeffs", "prec")

    def __init__(self, ring: Ring, min_exp: int, coeffs: Sequence, prec: int):
        if type(coeffs) is _Checked and coeffs.ring is ring:
            coeffs = tuple(coeffs.values)
        else:
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
    def one(cls, prec: int) -> "Series":
        return cls.monomial(INTEGER, 0, prec)

    @classmethod
    def monomial(cls, ring: Ring, exponent: int, prec: int, coeff=1) -> "Series":
        """coeff * q^exponent, known through prec; coeff is the one value
        checked."""
        if prec <= exponent:
            return cls.zero(ring, prec)
        window = [ring.zero] * (prec - exponent)
        window[0] = ring.coerce(coeff)
        return cls(ring, exponent, _Checked(ring, window), prec)

    @classmethod
    def combine(cls, prec: int, terms) -> "Series":
        """The integer sum of c * s over the (c, s) terms, in the one
        window [min(prec, every min_exp), min(prec, every prec)).

        A term with c = 0 still bounds the window; no terms give the zero
        series through prec.  Each c goes through INTEGER.coerce, so a
        weight of 1/2 is refused before any work, and every s must be an
        integer series.
        """
        terms = [(INTEGER.coerce(c), s) for c, s in terms]
        _require_ring(INTEGER, *(s for _, s in terms))
        min_exp = min([prec, *(s.min_exp for _, s in terms)])
        prec = min([prec, *(s.prec for _, s in terms)])
        out = [0] * (prec - min_exp)
        for c, s in terms:
            # s holds exponents [s.min_exp, prec) at out[i : i + n]
            n = prec - s.min_exp
            if n > 0 and c:
                i = s.min_exp - min_exp
                window = s.coeffs[:n] if c == 1 else map(mul, repeat(c), s.coeffs[:n])
                out[i : i + n] = map(add, out[i : i + n], window)
        return cls(INTEGER, min_exp, out, prec)

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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series.combine(min(self.prec, other.prec), ((1, self), (1, other)))

    def __mul__(self, other):
        """Cauchy product; the window is [min_a + min_b, min(prec_a + min_b,
        prec_b + min_a)).

        The sparser factor's nonzero coefficients are the rows.  When the
        denser factor is sparse too (4 x its nonzeros < window length), each
        pair of nonzeros that lands in the window adds c*d to one output
        coefficient, so the cost is the number of such pairs: a product of
        theta atoms pays for nonzeros, not for the window.  Otherwise each
        row adds a scaled slice of the denser factor into the output, so the
        cost is (nonzeros of the sparser factor) x (window length).
        """
        if not isinstance(other, Series):
            return NotImplemented
        _require_ring(INTEGER, self, other)
        min_exp = self.min_exp + other.min_exp
        prec = min(self.prec + other.min_exp, other.prec + self.min_exp)
        length = prec - min_exp
        if length <= 0:
            return Series.zero(INTEGER, prec)
        rows, dense = self.coeffs, other.coeffs
        rows_at = list(compress(range(length), rows))
        dense_at = list(compress(range(length), dense))
        if len(dense_at) < len(rows_at):
            rows, dense, rows_at, dense_at = dense, rows, dense_at, rows_at
        out = [0] * length
        if 4 * len(dense_at) < length:
            for i in rows_at:
                c, room = rows[i], length - i
                for j in dense_at:
                    if j >= room:
                        break
                    out[i + j] += c * dense[j]
            return Series(INTEGER, min_exp, out, prec)
        for i in rows_at:
            # map stops with out[i:], so the row reads dense[: length - i]
            c = rows[i]
            if c == 1:
                out[i:] = map(add, out[i:], dense)
            elif c == -1:
                out[i:] = map(sub, out[i:], dense)
            else:
                out[i:] = map(add, out[i:], map(mul, repeat(c), dense))
        return Series(INTEGER, min_exp, out, prec)

    def scale(self, c) -> "Series":
        """Multiply by an exact scalar; the window is unchanged."""
        return Series.combine(self.prec, ((c, self),))

    def shift(self, k: int) -> "Series":
        """Multiply by q^k exactly; min_exp and prec both move by k."""
        if k == 0:
            return self
        return Series(self.ring, self.min_exp + k, _Checked(self.ring, self.coeffs),
                      self.prec + k)

    def mul_binomial(self, c, e: int) -> "Series":
        """Multiply by the exact binomial (1 + c*q^e), e != 0.

        The binomial is exact, so only a negative e shrinks the window:
        the new window is [min_exp + min(0,e), prec + min(0,e)).  It is
        the product with 1 + c*q^e known on [min(0,e), min(0,e) + the
        length of this window), which leaves no other bound.
        """
        if e == 0:
            raise SeriesError("binomial exponent must be nonzero")
        prec = min(0, e) + len(self.coeffs)
        return self * Series.combine(
            prec, ((1, Series.one(prec)), (c, Series.monomial(INTEGER, e, prec))))

    def div_binomial(self, c, e: int) -> "Series":
        """Divide by (1 - c*q^e) exactly, e >= 1; the window is unchanged.

        One pass over the window, with no divisor series: the g and
        Eulerian sums call this for every term, and routed through divide
        they took about four times as long (0.21 against 0.80 s for 370 g
        specializations at q^300, 2-core machine, Python 3.11).
        """
        if e < 1:
            raise SeriesError("binomial exponent must be positive")
        _require_ring(INTEGER, self)
        c = INTEGER.coerce(c)
        out = [0] * (self.prec - self.min_exp)
        out[: len(self.coeffs)] = list(self.coeffs)
        for k in range(e, len(out)):
            prev = out[k - e]
            if prev:
                out[k] = out[k] + c * prev
        return Series(INTEGER, self.min_exp, out, self.prec)

    def divide(self, other: "Series") -> "Series":
        """Exact quotient self / other by classical power-series division
        (Knuth, TAOCP vol. 2, section 4.7).

        The divisor's first nonzero coefficient must be a unit, +-1.  With
        v the divisor's valuation the window is [min_exp - v, min(prec -
        v, other.prec - 2v + min_exp)): the dividend's window moved by -v,
        cut where the divisor's relative precision ends.  Each coefficient is
        b[k] = lead * (a[k] - sum d[j] b[k-j]) over the divisor's
        nonzero d[j], 1 <= j <= k.  The rows d[j] change only at the
        divisor's nonzero offsets, so the recurrence runs in phases between
        them with the rows fixed inside each; the cost is (nonzeros of the
        divisor) x (window length), like a sparse product, with no per-
        coefficient bookkeeping.
        """
        _require_ring(INTEGER, self, other)
        nonzero = list(compress(range(len(other.coeffs)), other.coeffs))
        if not nonzero:
            raise SeriesError(
                f"cannot divide by a series that vanishes through q^{other.prec - 1}"
            )
        start = nonzero[0]
        v = other.min_exp + start
        lead = other.coeffs[start]
        if lead not in (1, -1):
            raise RingError(
                f"leading coefficient {lead} at exponent {v} "
                "is not a unit in the integer ring"
            )
        min_exp = self.min_exp - v
        prec = min(self.prec - v, other.prec - 2 * v + self.min_exp)
        length = prec - min_exp
        # with the lead folded into a and d, b[k] = a[k] - sum d[j] b[k-j]
        dividend = self.coeffs[:length]
        if lead == -1:
            dividend = [-c for c in dividend]
        offsets = [i - start for i in nonzero[1:] if i - start < length]
        ends = [*offsets, length]
        # b[0] is a zero sentinel: while b holds it and b[0..k-1], b[-j] is
        # b[k-j].  Each getter reads it twice before its rows, so it returns
        # a tuple whatever the number of rows.  Rows of a +-1 coefficient
        # add or subtract without a multiplication.
        b = [0, *dividend[: ends[0]]]
        plus, minus, scaled, scales = [], [], [], [0, 0]
        for j, end in zip(offsets, ends[1:]):
            c = lead * other.coeffs[start + j]
            if c == 1:
                plus.append(-j)
            elif c == -1:
                minus.append(-j)
            else:
                scaled.append(-j)
                scales.append(c)
            # from k = j up to the next offset the rows are fixed
            added, taken = itemgetter(0, 0, *plus), itemgetter(0, 0, *minus)
            if not scaled:
                for acc in dividend[j:end]:
                    b.append(acc - sum(added(b)) + sum(taken(b)))
            else:
                rest = itemgetter(0, 0, *scaled)
                for acc in dividend[j:end]:
                    b.append(acc - sum(added(b)) + sum(taken(b))
                           - sum(map(mul, scales, rest(b))))
        return Series(INTEGER, min_exp, b[1:], prec)

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
        return Series.one(width).divide(self)

    def truncate(self, prec: int) -> "Series":
        """Restrict the window to exponents below prec (prec <= self.prec)."""
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend window: have prec {self.prec}, asked {prec}"
            )
        if prec >= self.prec:
            return self
        min_exp = min(self.min_exp, prec)
        return Series(self.ring, min_exp,
                      _Checked(self.ring, self.coeffs[: prec - min_exp]), prec)

    def extend(self, coeffs) -> "Series":
        """This series with coeffs appended as its coefficients at prec,
        prec + 1, ...: the window grows upward by len(coeffs).  Only the
        new coefficients are checked."""
        coeffs = self.ring.coerce_all(coeffs)
        return Series(self.ring, self.min_exp, _Checked(self.ring, self.coeffs + coeffs),
                      self.prec + len(coeffs))

    # -- substitutions and dissections --------------------------------------

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
        return Series(self.ring, self.min_exp, _Checked(self.ring, out), self.prec)

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
        return Series(self.ring, min_exp, _Checked(self.ring, out), prec)

    def substitute_neg_q(self) -> "Series":
        """Substitute q -> -q: the coefficient at q^n picks up (-1)^n."""
        _require_ring(INTEGER, self)
        out = [
            -c if (self.min_exp + i) % 2 else c
            for i, c in enumerate(self.coeffs)
        ]
        return Series(INTEGER, self.min_exp, out, self.prec)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "Series") -> Comparison:
        """Compare coefficients over the common window.

        Coefficients below either series' min_exp are exact zeros and
        participate in the comparison.  An empty common window signals a
        precision-management bug in the caller and raises.
        """
        _require_ring(self.ring, other)
        upper = min(self.prec, other.prec)
        lo = min(self.min_exp, other.min_exp)
        if upper <= lo:
            # Both windows are empty below upper: nothing was comparable.
            raise PrecisionError(
                f"empty comparison window (precs {self.prec}, {other.prec})"
            )
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
