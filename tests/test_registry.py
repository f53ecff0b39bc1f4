"""The registry's builder DSL: each entry's one integer denominator."""

from fractions import Fraction

import pytest

from qdissect.registry import _dev, _eq, _quot, build_registry, deviation_sum, terms
from qdissect.rings import INTEGER
from qdissect.theta import J


@pytest.fixture(scope="module")
def by_id():
    return {e.id: e for e in build_registry()}


def test_denominator_is_derived_from_the_parts(by_id):
    dev_diff = terms(_dev(1, "rank", 0, 8), _dev(-1, "crank", 0, 8))
    assert dev_diff.denominator == 8
    assert by_id["lewis-dissection"].denominator == 8
    assert deviation_sum("rank", 5).denominator == 5
    assert by_id["dev-rank-5-sum"].denominator == 5
    assert by_id["rearr-1"].denominator == 1
    assert by_id["NC-10"].denominator == 1
    # lcm over every side: theta8 carries 1/8, G8 at scale 1/2 carries 1/2
    assert by_id["dev-rank-1-8"].denominator == 8


def test_a_scale_the_denominator_does_not_clear_raises():
    side = terms(_quot(Fraction(1, 3), 0, [J(1, 2)]))
    assert side.denominator == 3
    with pytest.raises(ValueError):
        side.at(2)
    # an entry takes the lcm, so the same part is cleared there
    entry = _eq("third", "third", [side, terms(_quot(Fraction(2, 6), 0, [J(1, 2)]))], 50)
    assert entry.denominator == 3


def test_every_builder_is_integral(by_id):
    for entry_id in ("dev-rank-0-4", "dev-crank-2-8-mid", "lewis-dissection-raw",
                     "dev-rank-8-sum", "mock-theta-f0", "NC-8"):
        for build in by_id[entry_id].builders:
            assert build(60).ring == INTEGER, entry_id
