"""The registry's sides: (scale, part) pairs whose parts are frozen data
records, the census of those parts, and the one integer denominator an
entry derives from the scales."""

import pickle
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from qdissect.identities import (Counts, Eulerian, G, IdentityEntry, Quot, ThetaSum,
                                 build_side, verify_all)
from qdissect.registry import _dev, _eq, _quot, build_registry, deviation_sum, terms
from qdissect.rings import INTEGER
from qdissect.series import Series
from qdissect.theta import J

RECORDS = (Quot, G, Counts, ThetaSum, Eulerian)


@pytest.fixture(scope="module")
def registry():
    return build_registry()


@pytest.fixture(scope="module")
def by_id(registry):
    return {e.id: e for e in registry}


@pytest.fixture(scope="module")
def parts(registry):
    """The distinct parts of every side of every entry."""
    return {part for entry in registry for side in entry.sides for _, part in side}


def test_denominator_is_derived_from_the_parts(by_id):
    dev_diff = terms(_dev(1, "rank", 0, 8), _dev(-1, "crank", 0, 8))
    assert [scale for scale, _ in dev_diff] == [Fraction(1, 8), Fraction(-1, 8)]
    assert by_id["lewis-dissection"].denominator == 8
    assert [scale for scale, _ in deviation_sum("rank", 5)] == [Fraction(1, 5)] * 5
    assert by_id["dev-rank-5-sum"].denominator == 5
    assert by_id["rearr-1"].denominator == 1
    assert by_id["NC-10"].denominator == 1
    # lcm over every side: theta8 carries 1/8, G8 at scale 1/2 carries 1/2
    assert by_id["dev-rank-1-8"].denominator == 8
    # 1/3 and 2/6 are one reduced scale, so the lcm is 3
    entry = _eq("third", "third", [terms(_quot(Fraction(1, 3), 0, [J(1, 2)])),
                                   terms(_quot(Fraction(2, 6), 0, [J(1, 2)]))], 50)
    assert entry.denominator == 3
    # the entry reads its denominator off its sides and stores none
    assert "denominator" not in {f.name for f in fields(IdentityEntry)}


def test_every_builder_is_integral(by_id, parts):
    for part in parts:
        out = part.build(60)
        assert out.ring == INTEGER and out.prec == 60, part
    for entry_id in ("dev-rank-0-4", "dev-crank-2-8-mid", "lewis-dissection-raw",
                     "dev-rank-8-sum", "mock-theta-f0", "NC-8"):
        entry = by_id[entry_id]
        for side in entry.sides:
            assert build_side(side, entry.denominator, 60).ring == INTEGER, entry_id
    # a count-row side is the one part of weight one
    assert all(len(side) == 1 and side[0][0] == 1 for side in by_id["NC-8"].sides)


def test_every_part_is_a_hashable_record(registry, parts):
    for entry in registry:
        for side in entry.sides:
            for scale, part in side:
                assert type(part) in RECORDS and not callable(part), (entry.id, part)
                assert isinstance(scale, (int, Fraction)), entry.id
                hash(part)
    census = Counter(type(part).__name__ for part in parts)
    assert census == {"Quot": 498, "Counts": 89, "G": 73, "ThetaSum": 5, "Eulerian": 2}
    # 485 distinct quotients have atoms; the other 13 are monomials q^e
    assert sum(1 for part in parts if type(part) is Quot and (part.num or part.den)) == 485
    # lists are normalised to tuples, so equal data is one part
    assert Quot([J(1, 2)], [], 3) == Quot((J(1, 2),), (), 3)
    assert Counts([[1, "rank", 0, 4]]) == Counts(((1, "rank", 0, 4),))
    assert len({Quot([J(1, 2)]), Quot((J(1, 2),))}) == 1


def test_the_registry_pickles_and_verifies_like_the_original(registry):
    copy = pickle.loads(pickle.dumps(registry))
    assert copy == registry
    assert [(r.id, r.status, r.verified_through, r.first_mismatch, r.notes)
            for r in verify_all(copy)] == [
        (r.id, r.status, r.verified_through, r.first_mismatch, r.notes)
        for r in verify_all(registry)]


def test_build_side_builds_its_parts_and_one_sum(monkeypatch):
    init, built = Series.__init__, []

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Series, "__init__", counting)
    side = terms(_quot(1, 1), _quot(Fraction(1, 2), 2), _quot(-3, -1))
    out = build_side(side, 2, 10)
    # three monomial windows, then the sum: no zero start, no scaled copies
    assert len(built) == 4
    assert (out.min_exp, out.prec) == (-1, 10)
    assert out.coeffs == (-6, 0, 2, 1) + (0,) * 7
