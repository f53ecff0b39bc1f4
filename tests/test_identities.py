import json

import jsonschema
import pytest

from qdissect.identities import (
    JSON_REPORT_SCHEMA,
    IdentityEntry,
    Mismatch,
    inequality_check,
    perturb_entry,
    positivity_check,
    report_json,
    support_check,
    verify_all,
    verify_identity,
)
from qdissect.registry import build_registry, counts
from qdissect.rings import INTEGER
from qdissect.series import Series
from qdissect import theta


@pytest.fixture(scope="module")
def registry():
    return build_registry()


def test_registry_size_and_unique_ids(registry):
    assert len(registry) >= 60
    ids = [e.id for e in registry]
    assert len(ids) == len(set(ids))
    assert all(e.default_prec >= 50 for e in registry)
    assert all(e.paper_label for e in registry)


def test_registry_contains_pinned_ids(registry):
    ids = {e.id for e in registry}
    for required in (
        "NC-8", "mock-theta-f0", "mock-theta-f1", "g2-plus-support",
        "lewis-ineq-2", "lewis-000", "lewis-003", "dev-rank-0-4",
        "dev-crank-0-8", "lewis-positivity",
    ):
        assert required in ids


def test_nc_filter_selects_exactly_ten(registry):
    reports = verify_all(registry, prec=50, id_filter="NC-*")
    assert [r.id for r in reports] == [f"NC-{k}" for k in range(8, 18)]


def test_empty_filter_is_a_pass(registry):
    reports = verify_all(registry, id_filter="no-such-entry-*")
    assert reports == []
    payload = report_json(reports, prec_default=100, timestamp="t")
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)


def test_prec_range_is_null_when_nothing_ran():
    payload = report_json([], prec_default=100, timestamp="t")
    assert payload["run"]["prec_range"] is None
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)


def test_single_entry_verification(registry):
    by_id = {e.id: e for e in registry}
    report = verify_identity(by_id["NC-8"], prec=60)
    assert report.status == "pass"
    assert report.verified_through >= 60
    report = verify_identity(by_id["mock-theta-f0"], prec=60)
    assert report.status == "pass"


def test_verification_rejects_tiny_precision(registry):
    with pytest.raises(ValueError):
        verify_identity(registry[0], prec=5)


def test_report_json_schema(registry):
    reports = verify_all(registry, prec=50, id_filter="rearr-*")
    payload = report_json(reports, prec_default=50, timestamp="2025-01-01T00:00:00")
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    assert all(r["status"] == "pass" for r in payload["results"])


def test_results_name_their_unit(registry):
    reports = {r.id: r for r in verify_all(registry, prec=60, id_filter="[Nrl]*")}
    assert reports["NC-8"].unit == "progression"
    assert reports["lewis-positivity-id"].unit == "progression"
    assert reports["lewis-ineq-0"].unit == "progression"
    assert reports["rank-diff-mod4-odd"].unit == "progression"
    assert reports["rearr-1"].unit == "q"
    assert reports["rank-diff-04-gf"].unit == "q"
    assert reports["lewis-000"].unit == "q"
    payload = report_json(list(reports.values()), 60, "t")
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    assert {r["unit"] for r in payload["results"]} == {"q", "progression"}


def test_results_give_their_argument_bound(registry):
    # t*prec + r on a progression t*n + r, the q-exponent bound otherwise
    by_id = {e.id: e for e in registry}
    for entry_id, prec, bound in (
        ("NC-8", 60, 120), ("NC-9", None, 2 * 151 + 1), ("NC-13", 60, 243),
        ("lewis-positivity-id", None, 4 * 101 + 3), ("lewis-ineq-1", 60, 242),
        ("rearr-1", None, 200), ("dev-rank-0-4", 60, 60),
    ):
        report = verify_identity(by_id[entry_id], prec=prec)
        assert report.argument_bound == bound, entry_id
        assert report.to_json_obj()["argument_bound"] == bound
    payload = report_json([report], 60, "t")
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)


def test_determinism_modulo_timing(registry):
    selected = "dev-rank-*-4"
    a = report_json(verify_all(registry, id_filter=selected), 100, "t")
    b = report_json(verify_all(registry, id_filter=selected), 100, "t")
    for payload in (a, b):
        for row in payload["results"]:
            row["ms"] = 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fault_injection_equality(registry):
    by_id = {e.id: e for e in registry}
    for entry_id, exponent in (
        ("NC-8", 50), ("mock-theta-f0", 37), ("dev-rank-0-4", 61),
        ("rearr-1", 93), ("lewis-000", 41),
    ):
        clean = verify_identity(by_id[entry_id])
        assert clean.status == "pass"
        broken = perturb_entry(by_id[entry_id], exponent)
        report = verify_identity(broken)
        assert report.status == "fail"
        assert report.first_mismatch.exponent == exponent


@pytest.mark.parametrize("entry_id, exponent, lhs, rhs", [
    ("dev-rank-0-4", 61, "1443/4", "1447/4"),
    ("dev-crank-2-8", 72, "3097/8", "3105/8"),
    ("lewis-dissection", 40, "-66/1", "-65/1"),
])
def test_perturbed_mismatch_reads_in_the_statements_units(registry, entry_id, exponent, lhs, rhs):
    # a clone perturbed by +q^e differs by exactly 1 at e, printed as num/den
    by_id = {e.id: e for e in registry}
    report = verify_identity(perturb_entry(by_id[entry_id], exponent))
    assert report.status == "fail"
    assert report.first_mismatch == Mismatch(exponent, lhs, rhs)


def test_fault_injection_support(registry):
    by_id = {e.id: e for e in registry}
    broken = perturb_entry(by_id["g2-plus-support"], 13)  # 13 = 1 mod 4
    report = verify_identity(broken)
    assert report.status == "fail"
    assert report.first_mismatch.exponent == 13


def test_fault_injection_positivity(registry):
    by_id = {e.id: e for e in registry}
    broken = perturb_entry(by_id["lewis-positivity"], 12, amount=-10**9)
    report = verify_identity(broken)
    assert report.status == "fail"
    assert report.first_mismatch.exponent == 12


def test_support_check_basics():
    zero = Series.zero(INTEGER, 40)
    assert support_check(zero, 7, {0}).ok
    f = Series.monomial(INTEGER, 6, 40) + Series.monomial(INTEGER, 9, 40)
    assert support_check(f, 3, {0}).ok
    out = support_check(f, 4, {2})
    assert not out.ok and out.exponent == 9


def test_positivity_check_basics():
    j1 = theta.theta_j(theta.eta_atom(1), 40)
    out = positivity_check(j1, 1, 39)
    assert not out.ok and out.exponent == 1
    one = Series.one(INTEGER, 40)
    out = positivity_check(one, 1, 39)
    assert not out.ok and out.exponent == 1  # zero is not strictly positive
    pgf = j1.invert()
    assert positivity_check(pgf, 0, pgf.prec - 1).ok


def test_inequality_check_reflexive():
    ranks = counts([(1, "rank", 0, 8)], t=4, r=1)(41)
    out = inequality_check(ranks, ranks, 0, 40)
    assert out.ok and not out.notes


def test_inequality_below_threshold_is_informational():
    # swapped first Lewis pair: C(0,8;1) = -1 < 1 = N(0,8;1) at n=0, but
    # C(0,8;5) = N(0,8;5); with threshold 1 and max_n 1 the n=0 violation
    # is a note, not a failure
    lhs = counts([(1, "crank", 0, 8)], t=4, r=1)(2)
    rhs = counts([(1, "rank", 0, 8)], t=4, r=1)(2)
    out = inequality_check(lhs, rhs, 1, 1)
    assert out.ok
    assert any("below threshold" in note for note in out.notes)
    # without the threshold the same pair fails outright at n=0
    out = inequality_check(lhs, rhs, 0, 1)
    assert not out.ok and out.exponent == 0


def test_perturbed_inequality_fails_at_its_index(registry):
    # the clone's rhs C(0,8;4n+3) gains 10^40 at index e
    entry = {e.id: e for e in registry}["lewis-ineq-2"]
    for e in (1, 50, 99):
        report = verify_identity(perturb_entry(entry, e, amount=10**40))
        assert report.status == "fail" and report.first_mismatch.exponent == e
        assert report.notes == ()
    # at e = 0, below the threshold n >= 1, it is a note
    report = verify_identity(perturb_entry(entry, 0, amount=10**40))
    assert report.status == "pass" and report.verified_through == 100
    assert len(report.notes) == 1 and "below threshold" in report.notes[0]


def test_equality_entry_window_discipline():
    # builders that cannot reach the requested precision are an error,
    # never a silent pass
    def narrow(prec):
        return Series.one(INTEGER, min(prec, 20))

    entry = IdentityEntry("window-test", "window", "equality", 50,
                          (narrow, narrow))
    report = verify_identity(entry, prec=50)
    assert report.status == "error"
    assert "window" in report.notes[0]


def test_support_entry_window_discipline():
    entry = IdentityEntry(
        "s", "s", "support", 50,
        builders=(lambda p: Series.zero(INTEGER, min(p, 20)),),
        support_t=2, support_allowed=frozenset({0}))
    report = verify_identity(entry, prec=50)
    assert (report.status, report.verified_through) == ("error", 20)
    assert report.notes == ("window ends at 20, requested 50",)


def test_builder_exceptions_are_reported():
    def boom(prec):
        raise ValueError("deliberate builder failure")

    entry = IdentityEntry("error-test", "error", "equality", 50,
                          (boom, lambda prec: Series.one(INTEGER, prec)))
    report = verify_identity(entry)
    assert report.status == "error"
    assert "deliberate builder failure" in report.notes[0]


def test_one_broken_entry_does_not_stop_the_run():
    def boom(prec):
        raise KeyError("missing atom")

    def one(prec):
        return Series.one(INTEGER, prec)

    broken = IdentityEntry("broken", "broken", "equality", 50, (boom, one))
    fine = IdentityEntry("fine", "fine", "equality", 50, (one, one))
    reports = verify_all([broken, fine])
    assert [r.status for r in reports] == ["error", "pass"]
    payload = report_json(reports, 50, "t")
    jsonschema.validate(payload, JSON_REPORT_SCHEMA)
    error = payload["results"][0]
    assert error["notes"] == ["KeyError: 'missing atom'"]
    assert error["prec"] == 50


# -- registry completeness checklist -------------------------------------------
#
# Every statement the library is responsible for maps to registry entries
# (asserted to exist); constructions that are definitions rather than
# identities map to the operation that realizes them; the remaining
# source-material displays are intentionally out of scope and documented
# here so the exclusion list is auditable in one place.

CHECKLIST_COVERED = {
    "seven classical eta-product rearrangements":
        [f"rearr-{k}" for k in ("0a", "0b", 1, 2, 3, 4, 5, 6)],
    "theta shift law j(qx;q) = -x^-1 j(x;q)":
        [f"shift-law-{k}" for k in range(5)],
    "theta reflection j(x;q) = j(q/x;q)":
        [f"reflect-law-{k}" for k in range(5)],
    "base-doubling product law":
        [f"base-double-{k}" for k in range(5)],
    "negated-base product law":
        [f"neg-base-{k}" for k in range(5)],
    "m-term splitting of a theta series (m = 2, 3, 5)":
        [f"split-{m}-term-{k}" for k, m in enumerate((2, 2, 3, 3, 5, 5))],
    "two-square splitting (20 specializations)":
        [f"jsplit-{k}" for k in range(20)],
    "generic two-theta product identity (20 specializations)":
        [f"theta-pair-{k}" for k in range(20)],
    "generic even two-theta sum identity (20 specializations)":
        [f"theta-pair-even-{k}" for k in range(20)],
    "three-term Weierstrass relation (10 specializations, incl. the closing one)":
        [f"weierstrass-{k}" for k in range(10)],
    "quintuple product (10 specializations incl. base q^25)":
        [f"quintuple-{k}" for k in range(10)],
    "Hecke-type vanishing sums (10 + 10 specializations)":
        [f"hecke-sum-{k}" for k in range(10)]
        + [f"hecke-sum-alt-{k}" for k in range(10)],
    "lost-notebook split of g at every g-argument in play":
        [f"gsplit-{k}" for k in range(17)],
    "even/odd root-of-unity corollaries of the g-split":
        [f"g-even-part-{k}" for k in range(14)]
        + [f"g-odd-part-{k}" for k in range(14)],
    "fifth-order mock theta conjectures":
        ["mock-theta-f0", "mock-theta-f1"],
    "rank deviation 2-dissections mod 4 (three lines + zero sum)":
        ["dev-rank-0-4", "dev-rank-1-4", "dev-rank-2-4", "dev-rank-4-sum"],
    "rank deviation mod 4, base-q^4 and base-q^16 intermediate forms":
        ["dev-rank-0-4-base", "dev-rank-1-4-base", "dev-rank-2-4-base",
         "dev-rank-0-4-pre", "dev-rank-1-4-pre", "dev-rank-2-4-pre",
         "dev-rank-2-4-alt"],
    "crank deviation 2-dissections mod 4 (+ first-stage form)":
        ["dev-crank-0-4", "dev-crank-1-4", "dev-crank-2-4", "dev-crank-4-sum",
         "dev-crank-0-4-pre"],
    "two-square split rewrites connecting the mod-4 shapes":
        ["split-rw-1", "split-rw-2", "split-rw-3", "split-rw-crank"],
    "rank deviation 2-dissections mod 8 (five lines + zero sum + pre-forms)":
        [f"dev-rank-{a}-8" for a in range(5)]
        + [f"dev-rank-{a}-8-pre" for a in range(5)] + ["dev-rank-8-sum"],
    "mod-8 split rewrite and the four base-q^64 splittings":
        ["split-rw-8"] + [f"base-split-{k}" for k in range(4)],
    "crank deviation 4-dissections mod 8 (five lines + zero sum + stages)":
        [f"dev-crank-{a}-8" for a in range(5)]
        + ["dev-crank-8-sum", "dev-crank-0-8-pre", "dev-crank-0-8-mid",
           "dev-crank-2-8-pre", "dev-crank-2-8-mid"],
    "pairwise deviation sums behind the four-way relations":
        ["dev-crank-8-sum-01", "dev-crank-8-sum-34",
         "dev-rank-8-sum-12", "dev-rank-8-sum-34"],
    "ten rank-crank relations":
        [f"NC-{k}" for k in range(8, 18)],
    "mod 4/8 rank-difference corollaries and generating-function theorems":
        ["rank-diff-mod4-even", "rank-diff-mod4-odd", "rank-diff-04-gf",
         "rank-diff-08-gf", "rank-diff-18-gf", "rank-diff-04-product",
         "rank-diff-04-prefinal", "mod8-diff-split-even",
         "mod8-diff-split-odd"],
    "g-combination support lemmas (expansions + residue classes)":
        ["g2-plus", "g2-minus", "g6-plus", "g6-minus",
         "g2-plus-support", "g2-minus-support", "g6-plus-support",
         "g6-minus-support"],
    "rank/crank deviation 5-dissections":
        [f"dev-rank-{a}-5" for a in range(3)]
        + [f"dev-crank-{a}-5" for a in range(3)]
        + ["dev-rank-5-sum", "dev-crank-5-sum"],
    "rank/crank deviation 7-dissections":
        [f"dev-rank-{a}-7" for a in range(4)]
        + [f"dev-crank-{a}-7" for a in range(4)]
        + ["dev-rank-7-sum", "dev-crank-7-sum"],
    "the two eta-product cancellations behind the 5/7-dissections":
        ["theta-product-5", "theta-product-7"],
    "J1 as a base-q^25 quintuple combination":
        ["eta1-quintuple"],
    "Lewis rank-crank difference: the 4-dissection and its raw form":
        ["lewis-dissection", "lewis-dissection-raw"],
    "Lewis reduction identities and their regrouped pieces (q^4-deflated)":
        ["lewis-000", "lewis-001", "lewis-002", "lewis-003",
         "lewis-001-reduced", "lewis-000-piece-1", "lewis-000-piece-2",
         "lewis-000-reduced", "eta1-as-quotient", "lewis-weierstrass-stop"],
    "Lewis inequalities and the closing positivity statement":
        ["lewis-ineq-0", "lewis-ineq-1", "lewis-ineq-2",
         "lewis-positivity-id", "lewis-positivity"],
}

# Definitions realized as constructors rather than identity entries.
CHECKLIST_CONSTRUCTORS = {
    "Pochhammer products": ("qdissect.theta", "pochhammer_infinite"),
    "theta function j, product and sum sides": ("qdissect.theta", "theta_j"),
    "universal mock theta g": ("qdissect.theta", "mock_g"),
    "Eulerian f0/f1 sums": ("qdissect.theta", "eulerian_sum"),
    "dissection combinators (all nine families)": ("qdissect.registry", "family"),
    "rank counting generating function": ("qdissect.partitions", "count_series"),
    "crank counting generating function": ("qdissect.partitions", "count_series"),
    "deviation series": ("qdissect.partitions", "deviation_series"),
}

# Deliberate exclusions, with the reason each cannot or should not be
# checked over exact integer/rational/cyclic coefficients.
CHECKLIST_EXCLUDED = [
    ("analytic zero-counting lemma", "analytic proof device, not a q-series statement"),
    ("free-variable theta decomposition over n-th roots of unity",
     "needs cyclotomic coefficient rings; no specialization-only check exists"),
    ("root-of-unity-valued intermediate splittings (5th/7th/8th roots)",
     "verified through their rational-coefficient consequences instead"),
    ("x -> 1 limit evaluations inside the dissection proofs",
     "proof steps, not statements; the limits leave the truncated-series model"),
    ("roots-of-unity deviation formulas as a computation route",
     "deviations are read from the integer residue-count rows instead"),
    ("the unpublished remainder of the hundred conjectured rank-crank dissections",
     "registry is extensible but ships only the printed statements"),
]


def test_registry_checklist_is_complete(registry):
    ids = {e.id: e for e in registry}
    listed = []
    for description, entry_ids in CHECKLIST_COVERED.items():
        for entry_id in entry_ids:
            assert entry_id in ids, f"{description}: missing {entry_id}"
        listed.extend(entry_ids)
    assert len(listed) == len(set(listed))
    # the checklist is exhaustive: no registry entry escapes the inventory
    unlisted = set(ids) - set(listed)
    assert not unlisted, f"entries missing from the checklist: {sorted(unlisted)}"
    # constructors exist
    import importlib

    for description, (module, attr) in CHECKLIST_CONSTRUCTORS.items():
        assert hasattr(importlib.import_module(module), attr), description
    # exclusions are documented with reasons
    assert all(reason for _, reason in CHECKLIST_EXCLUDED)
