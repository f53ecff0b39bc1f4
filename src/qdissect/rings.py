"""Exact coefficient rings for q-series work.

The integers (Python ``int``) carry all series arithmetic.  The other
two tags type stored series that are read, compared and printed, never
computed with: the rationals (``fractions.Fraction``) hold
``partitions.deviation_series``, and the cyclic ring Z[z]/(z^M - 1)
types the count vectors that ``partitions.count_series`` hands out.  A
``CyclicLaurent`` holds the M residue counts of one q^n coefficient and
supports equality, hashing and the JSON/text output, but no arithmetic.

A ring checks a coefficient and never converts one: an integral
Fraction is no integer, an int is no rational, and a bool or a float is
in no ring.  Everything is exact; there is no floating point anywhere in
this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence


class RingError(ValueError):
    """Raised on values outside a ring, ring mismatches and non-unit
    inversions."""


class CyclicLaurent:
    """A count vector: the residue counts of one q^n coefficient mod M.

    ``counts[a]`` holds the count in residue class a, 0 <= a < M.  It is
    an element of Z[z]/(z^M - 1) by name only: the counts are integers
    handed out by ``partitions.count_series``, and no arithmetic is
    defined on them.  The modulus and every count must be ``int`` (a
    bool is refused).  Instances are immutable and safe to share between
    threads.
    """

    __slots__ = ("modulus", "counts")

    def __init__(self, modulus: int, counts: Sequence[int]):
        if type(modulus) is not int or modulus < 1:
            raise ValueError("modulus must be a positive integer")
        counts = tuple(counts)
        if len(counts) != modulus:
            raise ValueError(
                f"counts must have length {modulus}, got {len(counts)}"
            )
        if not set(map(type, counts)) <= {int}:
            raise RingError(f"counts must be ints, got {counts!r}")
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
    meaningful for the cyclic ring.  A tag knows its zero, how to check
    that values belong to the ring and how to write one out: what
    building, reading and printing a series need.  The arithmetic is
    Series' own, over the integers alone.
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

    def check(self, values) -> tuple:
        """The window ``values`` as a tuple, once every value is seen to
        have the ring's own type: ``int``, ``Fraction``, or a
        ``CyclicLaurent`` of this modulus.  Nothing is converted; any
        other value, a bool or a float among them, raises ``RingError``
        naming the first one.  The scan is one set of ``map(type,
        values)``, and for count vectors one more of their moduli, both
        at C speed.
        """
        values = tuple(values)
        own = _OWN_TYPE[self.kind]
        if set(map(type, values)) <= {own}:
            if own is not CyclicLaurent or set(map(_modulus, values)) <= {self.modulus}:
                return values
        for c in values:
            if type(c) is not own or own is CyclicLaurent and c.modulus != self.modulus:
                raise RingError(f"{c!r} is not in the {self.tag()} ring")

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


_OWN_TYPE = {"integer": int, "rational": Fraction, "cyclic-laurent": CyclicLaurent}
_modulus = attrgetter("modulus")

INTEGER = Ring("integer")
RATIONAL = Ring("rational")

_CYCLIC_CACHE: dict[int, Ring] = {}


def cyclic_ring(modulus: int) -> Ring:
    ring = _CYCLIC_CACHE.get(modulus)
    if ring is None:
        ring = _CYCLIC_CACHE.setdefault(modulus, Ring("cyclic-laurent", modulus))
    return ring
