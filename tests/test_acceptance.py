"""Acceptance suite: one test per criterion, each printing a PASS line.

The full registry run is shared session-wide; targeted criteria re-verify
their entries at the precision the statement demands (prec 101 checks
exponents 0..100 inclusive, prec 201 checks through q^200).
"""

import time

import pytest

from qdissect import theta
from qdissect.identities import perturb_entry, verify_all, verify_identity
from qdissect.partitions import count_series, partition_count, residue_count
from qdissect.registry import build_registry

import oracles

FULL_RUN_BUDGET_SECONDS = 120


@pytest.fixture(scope="session")
def registry():
    return build_registry()


@pytest.fixture(scope="session")
def full_run(registry):
    start = time.perf_counter()
    reports = verify_all(registry)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="session")
def by_id(registry):
    return {e.id: e for e in registry}


def _verify_at(by_id, entry_id, prec):
    report = verify_identity(by_id[entry_id], prec=prec)
    assert report.status == "pass", (
        f"{entry_id} at prec {prec}: {report.status}, "
        f"mismatch={report.first_mismatch}, notes={report.notes}"
    )
    return report


def test_criterion_01_full_registry_passes(full_run, registry):
    reports, elapsed = full_run
    failures = [r for r in reports if r.status != "pass"]
    assert not failures, [
        (r.id, r.status, r.first_mismatch, r.notes) for r in failures
    ]
    assert len(reports) == len(registry) >= 60
    assert elapsed < FULL_RUN_BUDGET_SECONDS
    print(
        f"\nACCEPTANCE 1: PASS - {len(reports)} registry entries verified "
        f"at default precisions in {elapsed:.1f}s"
    )


def test_criterion_02_mock_theta_conjectures(by_id):
    _verify_at(by_id, "mock-theta-f0", 101)
    _verify_at(by_id, "mock-theta-f1", 101)
    print("\nACCEPTANCE 2: PASS - f0 and f1 match their g-expressions through q^100")


DISSECTION_ENTRIES = (
    ["dev-rank-0-4", "dev-rank-1-4", "dev-rank-2-4",
     "dev-crank-0-4", "dev-crank-1-4", "dev-crank-2-4",
     "dev-rank-0-4-pre", "dev-rank-1-4-pre", "dev-rank-2-4-pre"]
    + [f"dev-rank-{a}-8" for a in range(5)]
    + [f"dev-rank-{a}-8-pre" for a in range(5)]
    + [f"dev-crank-{a}-8" for a in range(5)]
    + [f"dev-rank-{a}-5" for a in range(3)]
    + [f"dev-crank-{a}-5" for a in range(3)]
    + [f"dev-rank-{a}-7" for a in range(4)]
    + [f"dev-crank-{a}-7" for a in range(4)]
)

SUM_ZERO_ENTRIES = [
    "dev-rank-4-sum", "dev-crank-4-sum", "dev-rank-8-sum", "dev-crank-8-sum",
    "dev-rank-5-sum", "dev-crank-5-sum", "dev-rank-7-sum", "dev-crank-7-sum",
]


def test_criterion_03_dissection_theorems_through_q100(by_id):
    for entry_id in DISSECTION_ENTRIES:
        _verify_at(by_id, entry_id, 101)
    for entry_id in SUM_ZERO_ENTRIES:
        _verify_at(by_id, entry_id, 101)
    print(
        f"\nACCEPTANCE 3: PASS - {len(DISSECTION_ENTRIES)} dissection lines and "
        f"{len(SUM_ZERO_ENTRIES)} zero-sum families hold through q^100"
    )


def test_criterion_04_counting_oracle_equivalence():
    for M in (4, 5, 7, 8, 11):
        ranks = count_series("rank", M, 36)
        cranks = count_series("crank", M, 36)
        for n in range(1, 36):
            assert list(ranks.coeff(n).counts) == oracles.residue_counts("rank", M, n)
        for n in range(2, 36):
            assert list(cranks.coeff(n).counts) == oracles.residue_counts("crank", M, n)
        anomaly = cranks.coeff(1).counts
        expected = [0] * M
        expected[0], expected[1], expected[M - 1] = -1, 1, 1
        assert anomaly == tuple(expected)
    print(
        "\nACCEPTANCE 4: PASS - generating-function counts match enumeration "
        "for M in {4,5,7,8,11}, n <= 35 (crank n=1 anomaly asserted exactly)"
    )


def test_criterion_05_classical_congruences():
    for n in range(4, 201, 5):
        p = partition_count(n)
        assert p % 5 == 0
        assert all(residue_count("rank", a, 5, n) * 5 == p for a in range(5))
        assert all(residue_count("crank", a, 5, n) * 5 == p for a in range(5))
    for n in range(5, 201, 7):
        p = partition_count(n)
        assert p % 7 == 0
        assert all(residue_count("rank", a, 7, n) * 7 == p for a in range(7))
        assert all(residue_count("crank", a, 7, n) * 7 == p for a in range(7))
    for n in range(6, 151, 11):
        p = partition_count(n)
        assert all(residue_count("crank", a, 11, n) * 11 == p for a in range(11))
    for n in range(6, 201, 11):
        assert partition_count(n) % 11 == 0
    print(
        "\nACCEPTANCE 5: PASS - divisibility and equidistribution on 5n+4, "
        "7n+5 (args <= 200) and 11n+6 (counts <= 150, divisibility <= 200)"
    )


def test_criterion_06_rank_crank_relations(full_run, by_id):
    # defaults cover arguments <= 300: 2n at prec 151, 4n+k at prec 76
    for k in range(8, 18):
        entry = by_id[f"NC-{k}"]
        covered = (2 if k < 10 else 4) * (entry.default_prec - 1)
        assert covered >= 300
    reports = {r.id: r for r in full_run[0]}
    assert all(reports[f"NC-{k}"].status == "pass" for k in range(8, 18))
    print("\nACCEPTANCE 6: PASS - the ten rank-crank relations hold for arguments <= 300")


def test_criterion_07_rank_difference_relations(by_id):
    _verify_at(by_id, "rank-diff-mod4-even", 151)
    _verify_at(by_id, "rank-diff-mod4-odd", 151)
    print("\nACCEPTANCE 7: PASS - mod 4/8 rank-difference relations hold for arguments <= 301")


def test_criterion_08_support_lemmas(by_id):
    for entry_id in ("g2-plus", "g2-minus", "g6-plus", "g6-minus"):
        _verify_at(by_id, entry_id, 101)
        _verify_at(by_id, f"{entry_id}-support", 101)
    print("\nACCEPTANCE 8: PASS - g-combination support classes mod 4 hold through q^100")


def test_criterion_09_lewis_conjectures(by_id, full_run):
    for entry_id in ("lewis-dissection", "lewis-dissection-raw", "lewis-000",
                     "lewis-001", "lewis-002", "lewis-003", "eta1-as-quotient",
                     "lewis-weierstrass-stop", "lewis-positivity-id"):
        _verify_at(by_id, entry_id, 101)
    _verify_at(by_id, "lewis-positivity", 151)
    reports = {r.id: r for r in full_run[0]}
    for k, threshold in ((0, 2), (1, 2), (2, 1)):
        entry = by_id[f"lewis-ineq-{k}"]
        assert entry.ineq_threshold == threshold
        t, r = entry.progression
        assert t == 4 and t * (entry.default_prec - 1) + r >= 397  # covers args <= 400
        assert reports[f"lewis-ineq-{k}"].status == "pass"
    print(
        "\nACCEPTANCE 9: PASS - Lewis 4-dissection, reduction identities "
        "(q^4-deflated) through q^100, inequalities to argument 400, "
        "strict positivity for 1 <= n <= 150"
    )


TOOLKIT_PREFIXES = (
    "rearr-", "shift-law-", "reflect-law-", "base-double-", "neg-base-",
    "split-", "jsplit-", "theta-pair-", "weierstrass-", "quintuple-",
    "hecke-sum-", "gsplit-", "g-even-part-", "g-odd-part-",
)


def test_criterion_10_toolkit_property_suite(full_run, registry):
    reports = {r.id: r for r in full_run[0]}
    toolkit = [
        e.id for e in registry if e.id.startswith(TOOLKIT_PREFIXES)
    ]
    assert len(toolkit) >= 120
    assert all(reports[i].status == "pass" for i in toolkit)
    atoms = theta.cached_atoms()
    assert len(atoms) >= 40
    for atom in atoms:
        j = theta.theta_j(atom, 201)
        cmp = theta.theta_j_sum(atom, 201).compare(j)
        assert cmp.equal, f"sum/theta_j disagree for {atom} at {cmp.exponent}"
        product = oracles.triple_product(atom.sign, atom.a, atom.m, 201)
        assert oracles.series_to_poly(j) == product, (
            f"theta_j and the triple product disagree for {atom}"
        )
    print(
        f"\nACCEPTANCE 10: PASS - {len(toolkit)} toolkit specializations pass; "
        f"theta_j, the triple-product sum and the product agree through "
        f"q^200 for all {len(atoms)} atoms in play"
    )


def test_criterion_11_fault_injection(by_id, full_run):
    reports, _ = full_run
    assert all(r.status == "pass" for r in reports)
    samples = (
        ("NC-12", 33), ("dev-crank-2-8", 72), ("quintuple-3", 88),
        ("mock-theta-f1", 55), ("g6-minus-support", 21),
    )
    for entry_id, exponent in samples:
        report = verify_identity(perturb_entry(by_id[entry_id], exponent))
        assert report.status == "fail", f"{entry_id} did not fail when perturbed"
        assert report.first_mismatch.exponent == exponent
    print(
        "\nACCEPTANCE 11: PASS - perturbed clones fail at exactly the "
        "injected exponents; untouched registry is all green"
    )
