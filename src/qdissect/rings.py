"""Exact coefficient rings for q-series work.

The integers (Python ``int``) carry all series arithmetic.  The other
two tags type stored series that are read, compared and printed, never
computed with: the rationals (``fractions.Fraction``) hold
``partitions.deviation_series``, and the cyclic ring Z[z]/(z^M - 1)
types the count vectors that ``partitions.count_series`` hands out.  A
``CyclicLaurent`` holds the M residue counts of one q^n coefficient and
supports equality, hashing and the JSON/text output, but no arithmetic.
Everything is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class RingError(ValueError):
    """Raised on ring mismatches and non-unit inversions."""


class CyclicLaurent:
    """A count vector: the residue counts of one q^n coefficient mod M.

    ``counts[a]`` holds the count in residue class a, 0 <= a < M.  It is
    an element of Z[z]/(z^M - 1) by name only: the counts are integers
    handed out by ``partitions.count_series``, and no arithmetic is
    defined on them.  Instances are immutable and safe to share between
    threads.
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

    def __bool__(self) -> bool:
        return any(self.counts)

    def __eq__(self, other) -> bool:
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
    meaningful for the cyclic ring.  A tag knows its zero, how to coerce
    a value into the ring and how to write one out: what building,
    reading and printing a series need.  The arithmetic is Series' own,
    over the integers alone.
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
        raise RingError(f"cannot coerce {value!r} into {self.tag()}")

    def coerce_all(self, values) -> tuple:
        """Coerce a whole coefficient window, as ``coerce`` would each value.

        ``Series.__init__`` calls it on every window computed by a kernel
        or passed in by a caller, and only there: the window methods
        (truncate, shift, dissect, deflate) move coefficients already
        checked and carry that check past this scan, and
        ``Series.extend`` scans only the coefficients it appends.

        One scan of the element types decides: when every value already
        has the ring's own type (``int``, ``Fraction``, or a
        ``CyclicLaurent`` of this modulus) the tuple is returned as it is.
        Otherwise every value goes through ``coerce``, which raises
        ``RingError`` on the first one that does not belong.  For ints
        and Fractions the scan is the set of ``map(type, values)``, at C
        speed; a count vector's type and modulus are checked in one
        generator pass, which is faster than two such sets.
        """
        values = tuple(values)
        if self.kind == "integer":
            if set(map(type, values)) <= {int}:
                return values
        elif self.kind == "rational":
            if set(map(type, values)) <= {Fraction}:
                return values
        elif all(
            type(c) is CyclicLaurent and c.modulus == self.modulus for c in values
        ):
            return values
        return tuple(self.coerce(c) for c in values)

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
