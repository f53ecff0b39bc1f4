"""The verification engine.

An IdentityEntry ties the sides of one statement from the registry to
how it is checked: coefficientwise equality, residue support, strict
positivity from q^1 on (the constant term is not read), or a
coefficientwise inequality between two series.
verify_identity runs one entry and produces a VerificationReport;
verify_all runs a whole registry (optionally filtered by a glob pattern
on ids) in registry order.

An equality entry may carry more than two sides: every side is compared
against the first, which is how chained equalities such as the four-way
rank-crank relations are represented under a single stable id.

A side is a tuple of (scale, part) pairs and stands for the sum of
scale * part.build(prec), where the scale is an int or a Fraction and the
part is an immutable, hashable named tuple (Quot, G, Counts, ThetaSum or
Eulerian) whose build returns an integer series.  A statement with rational
coefficients is checked multiplied through by its ``denominator`` d, the
lcm of every scale's denominator: build_side gives d times a side over
the integers as one ``Series.combine`` of its built parts, comparing
d*LHS with d*RHS is the same test because d != 0, and a mismatch is
printed back in the statement's own units as the reduced fraction v/d.

Every kind runs the same way: build the sides, run one check, write one
verdict.  Each check returns a series.Comparison, and verify_identity
turns it into fail (at the first offending exponent), error or pass.

Precision discipline, for every kind: an entry passes only if its check
read every exponent below the requested precision.  A side whose window
ends earlier is reported as an error through the last exponent read,
with the note "window ends at w, requested p", never as a pass.
"""

from __future__ import annotations

import fnmatch
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple, Union

from . import partitions, theta
from .rings import RATIONAL
from .series import Comparison, Series


class Quot(namedtuple("Quot", "num den shift")):
    """q^shift * prod(num)/prod(den) (theta.eta_quotient); Quot(shift=e) is q^e."""

    __slots__ = ()

    def __new__(cls, num=(), den=(), shift=0):
        return super().__new__(cls, tuple(num), tuple(den), shift)

    def build(self, prec: int) -> Series:
        return theta.eta_quotient(self.num, self.den, self.shift, prec=prec)


class G(namedtuple("G", "spec shift", defaults=(0,))):
    """q^shift * g(spec), a mock-g specialization (theta.mock_g)."""

    __slots__ = ()

    def build(self, prec: int) -> Series:
        return theta.mock_g(self.spec, prec - self.shift).shift(self.shift)


class Counts(namedtuple("Counts", "rows t r twist")):
    """Rows (c, stat, a, M) on t*n + r (partitions.count_combination); q -> -q if twist."""

    __slots__ = ()

    def __new__(cls, rows, t=1, r=0, twist=False):
        return super().__new__(cls, tuple(map(tuple, rows)), t, r, twist)

    def build(self, prec: int) -> Series:
        out = partitions.count_combination(self.rows, prec, self.t, self.r)
        return out.substitute_neg_q() if self.twist else out


class ThetaSum(namedtuple("ThetaSum", "atom base_sign")):
    """The triple-product sum of atom at base base_sign*q^m, the atom not
    folded (theta.theta_j_sum): the left side of neg-base at base -q^m and
    of shift-law and reflect-law at base +q^m, whose folded quotient is
    the right side."""

    __slots__ = ()

    def build(self, prec: int) -> Series:
        return theta.theta_j_sum(self.atom, prec, base_sign=self.base_sign)


class Eulerian(namedtuple("Eulerian", "kind")):
    """The fifth-order Eulerian sum f0 or f1 (theta.eulerian_sum)."""

    __slots__ = ()

    def build(self, prec: int) -> Series:
        return theta.eulerian_sum(self.kind, prec)


Part = Union[Quot, G, Counts, ThetaSum, Eulerian]
Side = Tuple[Tuple[Union[int, Fraction], Part], ...]

KINDS = ("equality", "support", "positivity", "inequality")

MIN_VERIFY_PREC = 10


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    paper_label: str
    kind: str
    default_prec: int
    sides: Tuple[Side, ...] = ()
    # support kind
    support_t: int = 0
    support_allowed: frozenset = frozenset()
    # inequality kind: sides[0] >= sides[1] for n >= threshold
    ineq_threshold: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(map(tuple, self.sides)))
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.default_prec < 50:
            raise ValueError("default_prec must be at least 50")
        if self.kind == "equality" and len(self.sides) < 2:
            raise ValueError("equality entries need at least two sides")
        if self.kind in ("support", "positivity") and len(self.sides) != 1:
            raise ValueError(f"{self.kind} entries take exactly one side")
        if self.kind == "inequality" and len(self.sides) != 2:
            raise ValueError("inequality entries take exactly two sides")
        self.progression  # refuses count parts on two progressions

    @property
    def progression(self) -> Optional[Tuple[int, int]]:
        """(t, r) when the sides index the arguments t*n + r by n: the one
        progression of the Counts parts, or None for (1, 0) or none."""
        found = {(p.t, p.r) for side in self.sides for _, p in side if type(p) is Counts}
        if len(found) > 1:
            raise ValueError(f"count parts on more than one progression: {sorted(found)}")
        return next(iter(found - {(1, 0)}), None)

    @property
    def denominator(self) -> int:
        """d, the lcm of every scale's denominator: d times each side is
        an integer series."""
        return lcm(*(scale.denominator for side in self.sides for scale, _ in side))

    def argument_bound(self, prec: int) -> Tuple[str, int]:
        """(unit, bound) of a run at prec: every argument below bound is
        compared.  In the progression unit, index n stands for argument
        t*n + r, so the bound is t*prec + r; otherwise it is prec."""
        if self.progression is None:
            return "q", prec
        t, r = self.progression
        return "progression", t * prec + r

    def coeff_text(self, value) -> str:
        """A coefficient of d times a side in the statement's own units: the
        reduced num/den fraction value/denominator when denominator > 1."""
        if self.denominator == 1:
            return str(value)
        return RATIONAL.coeff_to_text(Fraction(value, self.denominator))


@dataclass(frozen=True)
class Mismatch:
    exponent: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    id: str
    paper_label: str
    status: str  # pass | fail | error
    verified_through: int
    first_mismatch: Optional[Mismatch] = None
    ms: int = 0
    notes: Tuple[str, ...] = ()
    prec: int = 0  # the precision the entry ran at
    unit: str = "q"  # what prec counts: q-exponents or progression indices
    argument_bound: int = 0  # arguments below this bound were asked for

    def to_json_obj(self) -> dict:
        """The fields in order, first_mismatch as a dict and notes as a
        list; no field is deep-copied."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.first_mismatch is not None:
            obj["first_mismatch"] = dict(vars(self.first_mismatch))
        obj["notes"] = list(self.notes)
        return obj


JSON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["run", "results"],
    "properties": {
        "run": {
            "type": "object",
            "required": ["prec_default", "timestamp"],
            "properties": {
                "prec_default": {"type": "integer"},
                "prec_range": {
                    "type": ["array", "null"],
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "timestamp": {"type": "string"},
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id",
                    "paper_label",
                    "status",
                    "verified_through",
                    "first_mismatch",
                    "ms",
                ],
                "properties": {
                    "id": {"type": "string"},
                    "paper_label": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "error"]},
                    "verified_through": {"type": "integer"},
                    "first_mismatch": {
                        "type": ["object", "null"],
                        "required": ["exponent", "lhs", "rhs"],
                        "properties": {
                            "exponent": {"type": "integer"},
                            "lhs": {"type": "string"},
                            "rhs": {"type": "string"},
                        },
                    },
                    "ms": {"type": "integer"},
                    "notes": {"type": "array", "items": {"type": "string"}},
                    "prec": {"type": "integer"},
                    "unit": {"enum": ["q", "progression"]},
                    "argument_bound": {"type": "integer"},
                },
            },
        },
    },
}


def equality_check(reference: Series, others, prec: int) -> Comparison:
    """The first comparison of reference with one of others that disagrees
    or ends below prec, else Comparison(True, prec).  No other is read
    after that first one, so a lazy others builds no later side."""
    for other in others:
        cmp = reference.compare(other)
        if not cmp.equal or cmp.verified_through < prec:
            return cmp
    return Comparison(True, prec)


def support_check(series: Series, t: int, allowed) -> Comparison:
    """Pass iff every nonzero coefficient sits in an allowed class mod t."""
    allowed = frozenset(allowed)
    if any(not 0 <= r < t for r in allowed):
        raise ValueError("allowed residues must lie in [0, t)")
    for e, c in series.nonzero_items():
        if e % t not in allowed:
            return Comparison(False, series.prec, e, c, 0)
    return Comparison(True, series.prec)


def positivity_check(series: Series, from_n: int, max_n: int) -> Comparison:
    """Pass iff the coefficient is strictly positive for from_n <= n <= max_n,
    read through the series' window: verified_through is one past the
    last n read."""
    last = min(max_n, series.prec - 1)
    for n in range(from_n, last + 1):
        c = series.coeff(n)
        if not c > 0:
            return Comparison(False, last + 1, n, c, 0)
    return Comparison(True, last + 1)


def inequality_check(lhs: Series, rhs: Series, threshold: int, max_n: int) -> Comparison:
    """Pass iff lhs >= rhs at every n with threshold <= n <= max_n, read
    through the narrower window: verified_through is one past the last n
    read.

    Failures below the threshold are expected by the statements that use
    this check; they are reported as notes, not as failures.
    """
    last = min(max_n, lhs.prec - 1, rhs.prec - 1)
    notes = []
    for n in range(last + 1):
        x, y = lhs.coeff(n), rhs.coeff(n)
        if x < y:
            if n >= threshold:
                return Comparison(False, last + 1, n, x, y, tuple(notes))
            notes.append(f"below threshold: n={n} has {x} < {y}")
    return Comparison(True, last + 1, notes=tuple(notes))


def build_side(side: Side, d: int, prec: int) -> Series:
    """d times the side: the integer series sum of (d*scale) * part.build(prec)
    over its parts, for a d that clears every scale, in one window (see
    Series.combine).  A lone part of weight one is its own build."""
    weighted = [(scale.numerator * d // scale.denominator, part) for scale, part in side]
    if len(weighted) == 1 and weighted[0][0] == 1:
        return weighted[0][1].build(prec)
    return Series.combine(prec, [(k, part.build(prec)) for k, part in weighted])


def verify_identity(entry: IdentityEntry, prec: Optional[int] = None) -> VerificationReport:
    """Run one entry at the given precision (default: the entry's own)."""
    if prec is None:
        prec = entry.default_prec
    if prec < MIN_VERIFY_PREC:
        raise ValueError(
            f"verification precision must be at least {MIN_VERIFY_PREC}"
        )
    start = time.perf_counter()
    unit, bound = entry.argument_bound(prec)

    def finish(status, through, mismatch=None, notes=()):
        ms = int((time.perf_counter() - start) * 1000)
        return VerificationReport(
            entry.id, entry.paper_label, status, through, mismatch, ms,
            tuple(notes), prec, unit, bound,
        )

    try:
        d = entry.denominator
        # built one at a time: an equality leg that fails or ends short
        # stops the later builds
        sides = (build_side(side, d, prec) for side in entry.sides)
        if entry.kind == "equality":
            outcome = equality_check(next(sides), sides, prec)
        elif entry.kind == "support":
            outcome = support_check(next(sides), entry.support_t, entry.support_allowed)
        elif entry.kind == "positivity":
            outcome = positivity_check(next(sides), 1, prec - 1)
        else:
            outcome = inequality_check(*sides, entry.ineq_threshold, prec - 1)
        through, notes = outcome.verified_through, outcome.notes
        if not outcome.equal:
            mismatch = Mismatch(outcome.exponent, entry.coeff_text(outcome.lhs),
                                entry.coeff_text(outcome.rhs))
            return finish("fail", outcome.exponent, mismatch, notes)
        if through < prec:
            # a window that ends early is an error, never a pass
            return finish("error", through,
                          notes=[*notes, f"window ends at {through}, requested {prec}"])
        return finish("pass", through, notes=notes)
    except Exception as exc:
        # one broken entry must not stop the run; the report names the error
        return finish("error", 0, notes=[f"{type(exc).__name__}: {exc}"])


def verify_all(
    registry: Sequence[IdentityEntry],
    prec: Optional[int] = None,
    id_filter: Optional[str] = None,
) -> list:
    """Verify entries in registry order; reports come back in that order."""
    selected = [
        e
        for e in registry
        if id_filter is None or fnmatch.fnmatchcase(e.id, id_filter)
    ]
    return [verify_identity(e, prec) for e in selected]


def all_passed(reports: Sequence[VerificationReport]) -> bool:
    return all(r.status == "pass" for r in reports)


def report_json(
    reports: Sequence[VerificationReport],
    prec_default: int,
    timestamp: str,
) -> dict:
    """The JSON report; ``run.prec_range`` is [min, max] of the precisions
    the entries ran at, or null when no entry ran."""
    precs = [r.prec for r in reports]
    prec_range = [min(precs), max(precs)] if precs else None
    return {
        "run": {"prec_default": prec_default, "prec_range": prec_range,
                "timestamp": timestamp},
        "results": [r.to_json_obj() for r in reports],
    }


def report_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    for r in reports:
        line = f"{r.status.upper():5s} {r.id} [{r.paper_label}] through {r.verified_through}"
        if r.first_mismatch is not None:
            fm = r.first_mismatch
            line += f" mismatch at q^{fm.exponent}: {fm.lhs} != {fm.rhs}"
        lines.append(line)
        for note in r.notes:
            lines.append(f"      note: {note}")
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{passed}/{len(reports)} passed")
    return "\n".join(lines)


def perturb_entry(entry: IdentityEntry, exponent: int, amount: int = 1) -> IdentityEntry:
    """Clone an entry with amount*q^exponent added to its last side, in the
    statement's own units: one more part (amount, Quot(shift=exponent)).

    Fault-injection helper: a perturbed clone must fail at exactly the
    perturbed exponent while every untouched entry still passes.
    """
    if not entry.sides:
        raise ValueError("entry has no sides to perturb")
    bump = (amount, Quot(shift=exponent))
    return replace(entry, sides=entry.sides[:-1] + (entry.sides[-1] + (bump,),))
