"""The registry's sides: (scale, part) pairs whose parts are frozen data
records, the census of those parts, and the one integer denominator an
entry derives from the scales."""

import pickle
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qdissect.identities import (Counts, Eulerian, G, IdentityEntry, Quot, ThetaSum,
                                 build_side, verify_all, verify_identity)
from qdissect.registry import (LAWS, J4, _dev, _eq, _g, _law_entry, _line, _monomial, _quot,
                               build_registry, combo, count_rows, deviation, deviation_sum,
                               terms)
from qdissect.rings import INTEGER
from qdissect.series import Series
from qdissect.theta import J, Jbar, ThetaAtom, _normal_form, eta_atom

import oracles

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
    assert census == {"Quot": 497, "Counts": 89, "G": 81, "ThetaSum": 15, "Eulerian": 2}
    # 483 distinct quotients have atoms; the other 14 are monomials q^e
    assert sum(1 for part in parts if type(part) is Quot and (part.num or part.den)) == 483
    # lists are normalised to tuples, so equal data is one part
    assert Quot([J(1, 2)], [], 3) == Quot((J(1, 2),), (), 3)
    assert Counts([[1, "rank", 0, 4]]) == Counts(((1, "rank", 0, 4),))
    assert len({Quot([J(1, 2)]), Quot((J(1, 2),))}) == 1


def test_every_quotient_replays_from_the_oracles(parts):
    # each distinct Quot, rebuilt from the atoms' bilateral sums as written
    # (no fold) with dict products and one dict inverse, no Series arithmetic
    prec = 200

    def atoms(side):
        for item in side:
            atom, e = (item, 1) if isinstance(item, ThetaAtom) else item
            yield from [(atom.sign, atom.a, atom.m)] * e

    quots = [part for part in parts if type(part) is Quot]
    assert len(quots) == 497
    for part in quots:
        want = oracles.theta_quotient(list(atoms(part.num)), list(atoms(part.den)),
                                      part.shift, prec)
        got = part.build(prec)
        assert got.prec == prec and oracles.series_to_poly(got) == want, part


def test_every_count_combination_replays_from_the_oracles(parts):
    # each distinct Counts part read off the two-variable generating
    # functions (the rank Eulerian sum, the crank product), every row at
    # its own class, on its progression and with its twist, through
    # argument 200
    bound, tables = 200, {}

    def row(stat, a, M, n):
        if (stat, M) not in tables:
            oracle = {"rank": oracles.rank_counts_eulerian,
                      "crank": oracles.crank_counts_product}[stat]
            tables[stat, M] = oracle(M, bound)
        return tables[stat, M][n][a]

    counts = [part for part in parts if type(part) is Counts]
    assert len(counts) == 89
    assert {part.twist for part in counts} == {False, True}
    for part in counts:
        prec = -(-(bound - part.r) // part.t)  # every n with t*n + r < bound
        want = {}
        for n in range(prec):
            value = sum(c * row(stat, a, M, part.t * n + part.r) for c, stat, a, M in part.rows)
            if value:
                want[n] = -value if part.twist and n % 2 else value
        got = part.build(prec)
        assert got.prec == prec and oracles.series_to_poly(got) == want, part


def test_every_triple_product_sum_replays_from_the_oracles(parts):
    # each distinct ThetaSum against the bilateral sum at its base's sign
    prec = 200
    sums = [part for part in parts if type(part) is ThetaSum]
    assert len(sums) == 15 and {part.base_sign for part in sums} == {1, -1}
    for part in sums:
        atom = part.atom
        want = oracles.theta_sum(atom.sign, atom.a, atom.m, prec, base_sign=part.base_sign)
        got = part.build(prec)
        assert got.prec == prec and oracles.series_to_poly(got) == want, part


def test_both_eulerian_sums_replay_from_the_oracles(parts):
    # f0 and f1 with each term's (-q;q)_n multiplied out and inverted
    prec = 200
    kinds = sorted(part.kind for part in parts if type(part) is Eulerian)
    assert kinds == ["f0", "f1"]
    for kind in kinds:
        got = Eulerian(kind).build(prec)
        assert got.prec == prec
        assert oracles.series_to_poly(got) == oracles.fifth_order_sum(kind, prec), kind


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


def test_generated_entries_match_their_hand_written_sides(by_id):
    T = ThetaAtom
    hand = {
        "theta-pair-2": [terms(_quot(1, 0, [T(-1, 1, 3), T(-1, 2, 3)])),
                         terms(_quot(1, 0, [T(-1, 3, 6), T(-1, 4, 6)]),
                               _quot(1, 1, [T(-1, 6, 6), T(-1, 1, 6)]))],
        # (a, b, c, d) = (q^2, -q^4, q, -q) on base q^4
        "weierstrass-1": [
            terms(_quot(1, 0, [T(1, 3, 4), T(1, 1, 4), T(1, 5, 4), T(1, 3, 4)])),
            terms(_quot(1, 0, [T(-1, 3, 4), T(-1, 1, 4), T(-1, 5, 4), T(-1, 3, 4)]),
                  _quot(-1, 3, [T(-1, 6, 4), T(-1, -2, 4), T(-1, 2, 4), T(-1, 0, 4)]))],
        "gsplit-14": [terms(_g(1, 0, -1, 1, 4)),
                      terms(_quot(1, -1), _g(-1, 1, -1, 2, 16), _g(-1, 4, -1, 6, 16),
                            _quot(-1, -1, [eta_atom(8), (J(8, 16), 2)],
                                  [T(-1, 1, 4), Jbar(6, 8)]))],
        "base-split-2": [terms(_quot(1, 0, [J(6, 16)])),
                         terms(_quot(1, 0, [Jbar(28, 64)]), _quot(-1, 6, [Jbar(60, 64)]))],
        # q^2 and q^5 times the even and odd parts of g at x = q^2, q^6 on base q^16
        "g2-plus": [terms(_g(1, 2, 1, 2, 16), _g(1, 2, -1, 2, 16)),
                    terms(_g(-2, 18, -1, 20, 64),
                          _quot(2, 2, [eta_atom(32), (Jbar(16, 64), 2)],
                                [Jbar(20, 64), J(4, 32)]))],
        "g2-minus": [terms(_g(1, 2, 1, 2, 16), _g(-1, 2, -1, 2, 16)),
                     terms(_quot(-2, 0), _g(2, 12, -1, 12, 64),
                           _quot(2, 0, [eta_atom(32), (Jbar(16, 64), 2)],
                                 [Jbar(52, 64), J(4, 32)]))],
        "g6-plus": [terms(_g(1, 5, 1, 6, 16), _g(1, 5, -1, 6, 16)),
                    terms(_g(-2, 21, -1, 28, 64),
                          _quot(2, 5, [eta_atom(32), (Jbar(16, 64), 2)],
                                [Jbar(28, 64), J(12, 32)]))],
        "g6-minus": [terms(_g(1, 5, 1, 6, 16), _g(-1, 5, -1, 6, 16)),
                     terms(_quot(-2, -1), _g(2, 3, -1, 4, 64),
                           _quot(2, -1, [eta_atom(32), (Jbar(16, 64), 2)],
                                 [Jbar(60, 64), J(12, 32)]))],
    }
    for entry_id, sides in hand.items():
        assert by_id[entry_id].sides == tuple(sides), entry_id
    # the closing relation of Lewis's reductions is Weierstrass's law at
    # (a, b, c, d) = (1, q^6, -q^3, -q^4) on base q^16, as the paper writes it
    stop = _eq("stop", "stop", [
        terms(_quot(1, 0, [(J(6, 16), 2), J(1, 16), J(9, 16)]),
              _quot(1, 1, [(Jbar(3, 16), 2), Jbar(2, 16), Jbar(10, 16)])),
        terms(_quot(1, 0, [Jbar(3, 16), Jbar(7, 16), Jbar(4, 16), Jbar(12, 16)]))], 50)
    assert _statement(by_id["lewis-weierstrass-stop"]) == _statement(stop)
    # each support lemma reads its expansion's left side
    for entry_id in ("g2-plus", "g2-minus", "g6-plus", "g6-minus"):
        assert by_id[f"{entry_id}-support"].sides == by_id[entry_id].sides[:1]
    # right sides read from the deviation lines and the theta4 slots
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    right = {
        "split-rw-1": terms(_quot(1, 0, [Jbar(4, 8), Jbar(6, 16)], [J4]),
                            _quot(1, 2, [Jbar(0, 8), Jbar(14, 16)], [J4]),
                            _quot(-1, 1, [Jbar(4, 8), Jbar(14, 16)], [J4]),
                            _quot(-1, 1, [Jbar(0, 8), Jbar(6, 16)], [J4])),
        "split-rw-crank": terms(_quot(1, 0, [Jbar(4, 8), Jbar(6, 16)], [J4]),
                                _quot(-1, 2, [Jbar(0, 8), Jbar(14, 16)], [J4]),
                                _quot(1, 1, [Jbar(4, 8), Jbar(14, 16)], [J4]),
                                _quot(-1, 1, [Jbar(0, 8), Jbar(6, 16)], [J4])),
        "dev-crank-0-8-mid": terms(
            _quot(Fraction(3, 8), 0, [Jbar(4, 8), Jbar(6, 16)], [J4]),
            _quot(-eighth, 2, [Jbar(0, 8), Jbar(14, 16)], [J4]),
            _quot(eighth, 1, [Jbar(4, 8), Jbar(14, 16)], [J4]),
            _quot(Fraction(-3, 8), 1, [Jbar(0, 8), Jbar(6, 16)], [J4]),
            _quot(half, 0, [J(4, 8), J(6, 16)], [J4]),
            _quot(-half, 1, [J(4, 8), J(2, 16)], [J4])),
        "dev-crank-8-sum-01": combo(("theta8", (2, -2, 2, -2, -2, 2, 2, -2), 1),
                                    ("theta8prime", (1, 0, -1, 0), 1)),
        "dev-rank-8-sum-12": combo(("theta8", (6, -6, 2, -2, 2, -2, 2, -2), 1),
                                   ("G8", (-1, 1, 1, -1), half)),
    }
    for entry_id, side in right.items():
        assert by_id[entry_id].sides[-1] == side, entry_id


def _folded_rows(part):
    """The Counts part with each row (c, stat, a, M) read at class
    min(a, M - a), since N(a,M;n) = N(M-a,M;n), and like rows merged; None
    when every row cancels."""
    rows = Counter()
    for c, stat, a, M in part.rows:
        rows[stat, min(a, M - a), M] += c
    rows = sorted((c, *row) for row, c in rows.items() if c)
    return Counts(rows, part.t, part.r, part.twist) if rows else None


def _folded(side):
    """The side as {(key, shift): scale}: each quotient in theta's normal
    form, each count part with its rows folded, scales exact and like terms
    merged, vanishing terms dropped."""
    out = Counter()
    for scale, part in side:
        if type(part) is Quot:
            form = _normal_form(part.num, part.den, part.shift)
            if form is None:
                continue
            unit, shift, factors = form
            out[factors, shift] += scale * unit
        elif type(part) is G:
            out[part.spec, part.shift] += scale
        elif type(part) is Counts:
            rows = _folded_rows(part)
            if rows is not None:
                out[rows, 0] += scale
        else:
            out[part, 0] += scale
    return {term: c for term, c in out.items() if c}


def _statement(entry):
    """What an entry states once atoms are folded.  An equality is the set
    of its pairwise side differences, each taken up to one monomial and
    one scale (empty when the two sides fold to one series); the other
    kinds are their fields and folded sides."""
    sides = [_folded(side) for side in entry.sides]
    if entry.kind != "equality":
        return (entry.kind, entry.support_t, entry.support_allowed, entry.ineq_threshold,
                tuple(frozenset(side.items()) for side in sides))
    differences = set()
    for i, lhs in enumerate(sides):
        for rhs in sides[i + 1:]:
            diff = Counter(rhs)
            diff.subtract(lhs)
            diff = {term: c for term, c in diff.items() if c}
            low = min((shift for _, shift in diff), default=0)
            diff = {(key, shift - low): c for (key, shift), c in diff.items()}
            lead = diff[min(diff, key=lambda t: (t[1], repr(t[0])))] if diff else 1
            differences.add(frozenset((term, Fraction(c) / lead) for term, c in diff.items()))
    return frozenset(differences)


def test_no_statement_has_two_ids(registry, by_id):
    ids, restated = {}, []
    for entry in registry:
        key = _statement(entry)
        if key == {frozenset()}:
            continue  # states nothing; the next test refuses it
        if key in ids:
            restated.append((ids[key], entry.id))
        ids.setdefault(key, entry.id)
    assert restated == []
    # the 2-term split is one law under two labels
    assert LAWS["jsplit"][2] == LAWS["split-2-term"][2]
    # restatements up to the fold, a monomial and a scale are one statement:
    # jsplit at x = -q^2 and -q on base q, at x and q/x, and q^2 times g's
    # even part
    assert _statement(_law_entry("a", "jsplit", (1, (-1, 2)))) == _statement(
        _law_entry("b", "jsplit", (1, (-1, 1))))
    assert _statement(_law_entry("c", "jsplit", (5, (1, 1)))) == _statement(
        _law_entry("d", "jsplit", (5, (1, 4))))
    assert _statement(_law_entry("b", "g-even-part", (16, (1, 2)))) == _statement(
        by_id["g2-plus"])


def test_the_fold_reads_each_count_row_at_its_lesser_class():
    # rows (c, stat, a, M) fold to a = min(a, M - a), and like rows merge
    side = terms((1, Counts([(1, "rank", 3, 4), (2, "rank", 1, 4), (-1, "crank", 0, 1)])),
                 (2, Counts([(3, "rank", 1, 4), (-1, "crank", 0, 1)])),
                 (1, Counts([(1, "crank", 5, 8), (-1, "crank", 3, 8)], t=4, r=1)),
                 (1, Counts([(1, "crank", 6, 8)], t=2, r=1, twist=True)))
    assert _folded(side) == {(Counts([(-1, "crank", 0, 1), (3, "rank", 1, 4)]), 0): 3,
                             (Counts([(1, "crank", 2, 8)], t=2, r=1, twist=True), 0): 1}
    # so D(M-a,M) and D(a,M) are one series, and class 0 and M/2 stay put
    assert _folded(deviation("rank", 3, 4)) == _folded(deviation("rank", 1, 4))
    assert _folded(deviation("crank", 4, 8)) != _folded(deviation("crank", 0, 8))
    assert _folded(count_rows([(1, "rank", 6, 7)])) == _folded(count_rows([(1, "rank", 1, 7)]))


def test_no_equality_compares_one_series_with_itself(registry):
    # no two legs of an equality fold to one series
    assert [entry.id for entry in registry if entry.kind == "equality"
            and frozenset() in _statement(entry)] == []
    # a leg D(3,4) next to D(1,4) compares one count row with itself, even
    # when the entry's other leg is another series
    legs = _eq("legs", "legs", [deviation("rank", 1, 4), deviation("rank", 3, 4),
                                _line("rank", 4, {1: 1})], 50)
    assert frozenset() in _statement(legs) and len(_statement(legs)) == 2
    # j(q^4;q^3) = -q^-1 j(q;q^3) with both sides folded is one series
    folded = _eq("fold", "fold", [terms(_quot(1, 0, [J(4, 3)])), terms(_quot(-1, -1, [J(1, 3)]))],
                 50)
    assert _statement(folded) == {frozenset()}
    # and so is j(q^2;q^3) = j(q;q^3), the reflection at one spec
    reflected = _eq("reflect", "reflect", [terms(_quot(1, 0, [J(2, 3)])),
                                           terms(_quot(1, 0, [J(1, 3)]))], 50)
    assert _statement(reflected) == {frozenset()}


def test_no_quotient_has_a_vanishing_factor(registry):
    # a factor j(q^(km);q^m) = 0 would drop its term from the check
    assert [entry.id for entry in registry for side in entry.sides for _, part in side
            if type(part) is Quot and _normal_form(part.num, part.den, part.shift) is None] == []


def test_no_sum_recomputes_the_memo(registry):
    # a lone atom in the folded strip 0 <= a <= m/2 is memoized as its own
    # triple-product sum, so at base +q^m a ThetaSum must lie outside it
    sums = [part for entry in registry for side in entry.sides for _, part in side
            if type(part) is ThetaSum and part.base_sign == 1]
    assert sums and all(not 0 <= 2 * part.atom.a <= part.atom.m for part in sums)


def test_progression_is_read_off_the_count_parts(by_id):
    assert "progression" not in {f.name for f in fields(IdentityEntry)}
    with pytest.raises(TypeError):
        IdentityEntry("p", "p", "equality", 50, [terms(), terms()], progression=(2, 0))
    with pytest.raises(AttributeError):
        by_id["NC-10"].progression = (2, 0)
    assert by_id["NC-10"].progression == (4, 0)
    assert by_id["rank-diff-mod4-odd"].progression == (2, 1)
    assert by_id["lewis-positivity-id"].progression == (4, 3)
    # rows read on every argument, and no count part at all
    assert by_id["dev-rank-1-4"].progression is None
    assert by_id["rearr-1"].progression is None
    with pytest.raises(ValueError, match="more than one progression"):
        _eq("two", "two", [count_rows([(1, "rank", 0, 4)], t=2, r=0),
                           count_rows([(1, "rank", 0, 8)], t=4, r=1)], 50)


def test_a_spec_covers_every_variable_of_its_law():
    with pytest.raises(ValueError):
        _monomial((0, 1, 1), (3, (1, 1)))
    with pytest.raises(ValueError):
        _law_entry("pair", "theta-pair", (3, (1, 1)))
    # a variable the vector leaves out has power 0
    assert _monomial((2,), (3, (-1, 1), (-1, 5))) == (1, 6)
    # odd negative powers keep the sign an int
    for vec in ((0, -1), (1, -3), (0, -2)):
        sign, _ = _monomial(vec, (3, (-1, 2)))
        assert type(sign) is int and sign == (1 if vec[1] % 2 == 0 else -1)


THETA_LAWS = [name for name, (_, _, sides) in LAWS.items()
              if all(part[0] != "g" for side in sides for _, _, part in side)]
SPECS = st.integers(min_value=1, max_value=12).flatmap(lambda m: st.tuples(
    st.just(m), *[st.tuples(st.sampled_from([1, -1]), st.integers(-m, 2 * m))] * 4))


@given(SPECS)
@example((3, (1, 3), (1, 1), (1, 1), (1, 1)))  # x = q^m: the quintuple's j(x;q) vanishes
@settings(max_examples=40, deadline=None)
def test_the_theta_laws_hold_off_their_spec_lists(spec):
    assert len(THETA_LAWS) == 14
    for name in THETA_LAWS:
        report = verify_identity(_law_entry(name, name, spec), 50)
        vanishing = any("vanishing theta series" in note for note in report.notes)
        assert report.status == "pass" or (report.status == "error" and vanishing), (
            name, spec, report)
    # 0/0 is an error, not a zero quotient that fails
    if spec[1][1] % spec[0] == 0 and spec[1][0] == 1:
        assert verify_identity(_law_entry("q", "quintuple", spec), 50).status == "error"
