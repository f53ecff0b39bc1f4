"""Exact coefficient rings for q-series work.

Three rings are supported: arbitrary-precision integers (Python ``int``),
exact rationals (``fractions.Fraction``), and the cyclic group ring
Z[z]/(z^M - 1) used to count partition statistics by residue class.
Everything is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class RingError(ValueError):
    """Raised on ring mismatches and non-unit inversions."""


class CyclicLaurent:
    """An element of Z[z]/(z^M - 1), stored densely.

    ``counts[r]`` holds the total coefficient of z^e summed over all
    exponents e congruent to r mod M.  Negative z-exponents are folded on
    construction; only residues matter for counting ranks and cranks.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("modulus", "counts")

    def __init__(self, modulus: int, counts: Sequence[int]):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        counts = tuple(counts)
        if len(counts) != modulus:
            raise ValueError(
                f"counts must have length {modulus}, got {len(counts)}"
            )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CyclicLaurent is immutable")

    @classmethod
    def zero(cls, modulus: int) -> "CyclicLaurent":
        return cls(modulus, (0,) * modulus)

    @classmethod
    def one(cls, modulus: int) -> "CyclicLaurent":
        return cls(modulus, (1,) + (0,) * (modulus - 1))

    @classmethod
    def z_power(cls, exponent: int, modulus: int) -> "CyclicLaurent":
        """The element z^exponent; negative exponents reduce into [0, M)."""
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        counts = [0] * modulus
        counts[exponent % modulus] = 1
        return cls(modulus, counts)

    def _check(self, other: "CyclicLaurent") -> None:
        if self.modulus != other.modulus:
            raise RingError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other):
        if not isinstance(other, CyclicLaurent):
            return NotImplemented
        self._check(other)
        return CyclicLaurent(
            self.modulus,
            tuple(x + y for x, y in zip(self.counts, other.counts)),
        )

    def __sub__(self, other):
        if not isinstance(other, CyclicLaurent):
            return NotImplemented
        self._check(other)
        return CyclicLaurent(
            self.modulus,
            tuple(x - y for x, y in zip(self.counts, other.counts)),
        )

    def __neg__(self):
        return CyclicLaurent(self.modulus, tuple(-x for x in self.counts))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclicLaurent(
                self.modulus, tuple(x * other for x in self.counts)
            )
        if not isinstance(other, CyclicLaurent):
            return NotImplemented
        self._check(other)
        m = self.modulus
        out = [0] * m
        for i, x in enumerate(self.counts):
            if not x:
                continue
            for j, y in enumerate(other.counts):
                if y:
                    k = i + j
                    if k >= m:
                        k -= m
                    out[k] += x * y
        return CyclicLaurent(m, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def rotate(self, e: int) -> "CyclicLaurent":
        """Multiply by z^e (a cyclic rotation of the count vector)."""
        m = self.modulus
        e %= m
        if e == 0:
            return self
        return CyclicLaurent(m, self.counts[-e:] + self.counts[:-e])

    def augmentation(self) -> int:
        """Sum of counts; the ring map z -> 1."""
        return sum(self.counts)

    def __bool__(self) -> bool:
        return any(self.counts)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.counts[0] == other and not any(self.counts[1:])
        if not isinstance(other, CyclicLaurent):
            return NotImplemented
        return self.modulus == other.modulus and self.counts == other.counts

    def __hash__(self):
        return hash((self.modulus, self.counts))

    def __repr__(self):
        return f"CyclicLaurent({self.modulus}, {self.counts})"


@dataclass(frozen=True)
class Ring:
    """Coefficient-ring tag used by Series for validation and serialization.

    kind is "integer", "rational" or "cyclic-laurent"; modulus is only
    meaningful for the cyclic ring.
    """

    kind: str
    modulus: int = 0

    @property
    def zero(self):
        if self.kind == "integer":
            return 0
        if self.kind == "rational":
            return Fraction(0)
        return CyclicLaurent.zero(self.modulus)

    @property
    def one(self):
        if self.kind == "integer":
            return 1
        if self.kind == "rational":
            return Fraction(1)
        return CyclicLaurent.one(self.modulus)

    def coerce(self, value):
        if self.kind == "integer":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise RingError(f"{value} is not an integer")
                return value.numerator
            if isinstance(value, int):
                return value
            raise RingError(f"cannot coerce {value!r} into the integer ring")
        if self.kind == "rational":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise RingError(f"cannot coerce {value!r} into the rational ring")
        if isinstance(value, CyclicLaurent):
            if value.modulus != self.modulus:
                raise RingError(
                    f"modulus mismatch: {value.modulus} vs {self.modulus}"
                )
            return value
        if isinstance(value, int):
            return CyclicLaurent.one(self.modulus) * value
        raise RingError(f"cannot coerce {value!r} into {self.tag()}")

    def coerce_all(self, values) -> tuple:
        """Coerce a whole coefficient window, as ``coerce`` would each value.

        One scan of the element types decides: when every value already
        has the ring's own type (``int``, ``Fraction``, or a
        ``CyclicLaurent`` of this modulus) the tuple is returned as it is.
        Otherwise every value goes through ``coerce``, which raises
        ``RingError`` on the first one that does not belong.
        """
        values = tuple(values)
        if self.kind == "integer":
            if all(type(c) is int for c in values):
                return values
        elif self.kind == "rational":
            if all(type(c) is Fraction for c in values):
                return values
        elif all(
            type(c) is CyclicLaurent and c.modulus == self.modulus for c in values
        ):
            return values
        return tuple(self.coerce(c) for c in values)

    def invert_unit(self, value, exponent: int):
        """Invert a unit coefficient; names the offending exponent on failure."""
        if self.kind == "integer":
            if value in (1, -1):
                return value
            raise RingError(
                f"leading coefficient {value} at exponent {exponent} "
                "is not a unit in the integer ring"
            )
        if self.kind == "rational":
            if value == 0:
                raise RingError(
                    f"leading coefficient 0 at exponent {exponent} "
                    "cannot be inverted"
                )
            return Fraction(1) / value
        # Units of Z[z]/(z^M-1) used here are +-z^k only.
        nz = [(i, c) for i, c in enumerate(value.counts) if c]
        if len(nz) == 1 and nz[0][1] in (1, -1):
            i, c = nz[0]
            return CyclicLaurent.z_power(-i, self.modulus) * c
        raise RingError(
            f"leading coefficient {value!r} at exponent {exponent} "
            "is not a unit in the cyclic ring"
        )

    def tag(self) -> str:
        if self.kind == "cyclic-laurent":
            return f"cyclic-laurent({self.modulus})"
        return self.kind

    def coeff_to_json(self, value):
        if self.kind == "integer":
            return value
        if self.kind == "rational":
            return f"{value.numerator}/{value.denominator}"
        return list(value.counts)

    def coeff_from_json(self, value):
        if self.kind == "integer":
            return int(value)
        if self.kind == "rational":
            num, _, den = str(value).partition("/")
            return Fraction(int(num), int(den) if den else 1)
        return CyclicLaurent(self.modulus, [int(v) for v in value])

    def coeff_to_text(self, value) -> str:
        if self.kind == "integer":
            return str(value)
        if self.kind == "rational":
            return f"{value.numerator}/{value.denominator}"
        return "(" + ",".join(str(c) for c in value.counts) + ")"


INTEGER = Ring("integer")
RATIONAL = Ring("rational")

_CYCLIC_CACHE: dict[int, Ring] = {}


def cyclic_ring(modulus: int) -> Ring:
    ring = _CYCLIC_CACHE.get(modulus)
    if ring is None:
        ring = _CYCLIC_CACHE.setdefault(modulus, Ring("cyclic-laurent", modulus))
    return ring


def ring_from_tag(tag: str) -> Ring:
    if tag == "integer":
        return INTEGER
    if tag == "rational":
        return RATIONAL
    if tag.startswith("cyclic-laurent(") and tag.endswith(")"):
        return cyclic_ring(int(tag[len("cyclic-laurent(") : -1]))
    raise ValueError(f"unknown ring tag {tag!r}")
