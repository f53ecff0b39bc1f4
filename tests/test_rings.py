import pytest

from qdissect.rings import (
    INTEGER,
    RATIONAL,
    CyclicLaurent,
    Ring,
    RingError,
    cyclic_ring,
)


def test_count_vectors_have_no_arithmetic():
    ring = cyclic_ring(4)
    x = CyclicLaurent(4, (1, -1, 0, 2))
    assert x == CyclicLaurent(4, [1, -1, 0, 2]) and hash(x) == hash(CyclicLaurent(4, x.counts))
    assert x != CyclicLaurent(5, (1, -1, 0, 2, 0)) and x != 1
    assert x and not CyclicLaurent.zero(4) and ring.zero == CyclicLaurent.zero(4)
    assert repr(x) == "CyclicLaurent(4, (1, -1, 0, 2))"
    with pytest.raises(ValueError):
        CyclicLaurent(4, (1, 2, 3))
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "rotate", "augmentation"):
        assert not hasattr(CyclicLaurent, op), op
    with pytest.raises(TypeError):
        x + x
    with pytest.raises(RingError):
        ring.coerce(1)
    with pytest.raises(RingError):
        ring.coerce(CyclicLaurent(3, (1, 0, 0)))


def test_ring_tags():
    for modulus in (5, 11):
        assert cyclic_ring(modulus) is cyclic_ring(modulus)
        assert cyclic_ring(modulus).tag() == f"cyclic-laurent({modulus})"
    assert INTEGER.tag() == "integer"
    assert RATIONAL.tag() == "rational"
    # a tag builds, reads and prints; the arithmetic is the integer series'
    for attr in ("one", "invert_unit"):
        assert not hasattr(Ring, attr), attr
