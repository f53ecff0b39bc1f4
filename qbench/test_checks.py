"""Tests of the benchmark's own checks: each must catch a wrong value.

    python3 -m pytest -q qbench
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import pytest  # noqa: E402

import reference  # noqa: E402
import sweep  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from qdissect import identities, partitions, theta  # noqa: E402
from qdissect.registry import build_registry  # noqa: E402
from qdissect.series import Series  # noqa: E402


# -- the independent references --------------------------------------------------


def test_partition_numbers():
    p = reference.partition_numbers(100)
    assert p[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert p[100] == 190569292


def test_enumeration_counts_every_partition_once():
    p = reference.partition_numbers(15)
    for n in range(1, 16):
        assert sum(reference.enumerated_counts("rank", 7, n)) == p[n]
    assert reference.crank((1,)) == -1
    assert reference.crank((4,)) == 4
    assert reference.crank((3, 1)) == 0
    assert reference.crank((2, 1, 1)) == -2
    assert reference.rank((4, 2, 1)) == 1


def test_theta_sum_gives_euler_pentagonal_series():
    # j(q; q^3) = (q; q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    coeffs = reference.theta_coefficients(1, 1, 3, 0, 16)
    want = [0] * 16
    for e, c in ((0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)):
        want[e] = c
    assert coeffs == want


# -- counts ------------------------------------------------------------------------


def count_rows(stat, M, depth):
    series = partitions.count_series(stat, M, depth + 1)
    return [list(series.coeff(n).counts) for n in range(depth + 1)]


DEPTH = 30
P = reference.partition_numbers(DEPTH)
SIZES = list(range(1, 16))


@pytest.mark.parametrize("stat,M", [("rank", 5), ("crank", 5), ("crank", 11)])
def test_count_checks_accept_library_counts(stat, M):
    rows = count_rows(stat, M, DEPTH)
    assert workloads.check_count_table(stat, M, rows, P, SIZES) == []


def test_count_checks_catch_a_wrong_count():
    rows = count_rows("rank", 5, DEPTH)
    rows[7][2] += 1
    problems = workloads.check_count_table("rank", 5, rows, P, SIZES)
    assert any("sum to" in p for p in problems)
    assert any("symmetric" in p for p in problems)


def test_count_checks_catch_a_balanced_error_on_the_progression():
    # sum and symmetry survive; equidistribution on 5n+4 and enumeration do not
    rows = count_rows("crank", 5, DEPTH)
    rows[9][0] -= 2
    rows[9][1] += 1
    rows[9][4] += 1
    problems = workloads.check_count_table("crank", 5, rows, P, SIZES)
    assert any("not all p(n)/5" in p for p in problems)
    assert any("enumeration" in p for p in problems)


def test_count_checks_catch_a_balanced_error_off_the_progression():
    rows = count_rows("rank", 8, DEPTH)
    rows[12][0] -= 2
    rows[12][3] += 1
    rows[12][5] += 1
    problems = workloads.check_count_table("rank", 8, rows, P, SIZES)
    assert problems == ["rank mod 8: counts at n=12 differ from enumeration"]


def test_count_checks_hold_the_crank_product_convention_at_n1():
    rows = count_rows("crank", 7, DEPTH)
    rows[1] = reference.enumerated_counts("crank", 7, 1)  # crank((1)) = -1 alone
    problems = workloads.check_count_table("crank", 7, rows, P, SIZES)
    assert "crank mod 7: counts at n=1 differ from enumeration" in problems


def test_count_checks_catch_a_wrong_empty_partition():
    rows = count_rows("rank", 7, DEPTH)
    rows[0] = [0] * 7
    problems = workloads.check_count_table("rank", 7, rows, P, SIZES)
    assert any("empty partition" in p for p in problems)


def test_deviation_check_catches_a_wrong_coefficient():
    rows = count_rows("crank", 8, DEPTH)
    devs = workloads.read_deviations("crank", 8, DEPTH + 1)
    assert workloads.check_deviations("crank", 8, rows, devs, P) == []
    devs[3][17] += 1
    assert workloads.check_deviations("crank", 8, rows, devs, P) == [
        f"D(3,8) for crank at q^17 is {devs[3][17]}"]


def test_counts_workload_counts_failed_reads():
    counts = {("rank", 5): [[1, 0, 0, 0, 0], [None, 1, 0, 0, 0]]}
    deviations = {("rank", 5): [[0], None]}
    assert workloads.Counts().ops((counts, deviations)) == (12, 2)


# -- theta-deep ----------------------------------------------------------------------


def bump(series, exponent):
    return series + Series.monomial(series.ring, exponent, series.prec)


@pytest.mark.parametrize("atom", [theta.J(3, 16), theta.Jbar(-5, 7), theta.J(14, 7)])
def test_atom_check(atom):
    series = theta.theta_j(atom, 120)
    assert workloads.check_atom(atom, 120, series) == []
    assert workloads.check_atom(atom, 120, bump(series, 41)) != []
    assert workloads.check_atom(atom, 121, series) != []


@pytest.mark.parametrize("spec", [theta.GSpec(1, 2, 10), theta.GSpec(-1, 6, 16)])
def test_g_check(spec):
    series = theta.mock_g(spec, 120)
    assert workloads.check_g(spec, 120, series) == []
    assert workloads.check_g(spec, 120, bump(series, 0)) != []
    assert workloads.check_g(spec, 120, series.truncate(119)) != []


def test_theta_deep_selects_the_entries_without_counts():
    workload = workloads.ThetaDeep()
    assert len(workload.entries) == 194
    assert not any(e.id.startswith(("NC-", "dev-", "lewis-")) for e in workload.entries)


def test_theta_deep_check_catches_a_short_verification():
    workload = workloads.ThetaDeep()
    workload.atoms = workload.g_specs = 0
    reports = [identities.VerificationReport(e.id, e.paper_label, "pass", workload.prec)
               for e in workload.entries]
    assert workload.check(reports, 1) == []
    reports[5] = identities.VerificationReport(
        reports[5].id, reports[5].paper_label, "pass", workload.prec - 1)
    assert len(workload.check(reports, 1)) == 1
    assert len(workload.check(reports[:-1], 1)) == 2


# -- registry --------------------------------------------------------------------------


def passing_payload():
    return {"run": {}, "results": [
        {"id": e.id, "paper_label": e.paper_label, "status": "pass",
         "verified_through": e.default_prec, "first_mismatch": None, "ms": 0}
        for e in build_registry()]}


def test_registry_check_catches_wrong_reports(monkeypatch):
    workload = workloads.Registry()
    workload.perturbations = 0
    assert workload.check((0, passing_payload()), 1) == []
    payload = passing_payload()
    payload["results"][3]["verified_through"] -= 1
    assert len(workload.check((0, payload), 1)) == 1
    payload = passing_payload()
    del payload["results"][-1]
    assert len(workload.check((0, payload), 1)) == 1
    assert workload.check((1, passing_payload()), 1) == ["exit code 1, expected 0"]


def test_perturbation_check_catches_a_clone_that_still_passes(monkeypatch):
    toolkit = [e for e in build_registry() if e.id.startswith("rearr-")]
    assert workloads.check_perturbations(toolkit, 3, 2) == []
    monkeypatch.setattr(identities, "perturb_entry", lambda entry, exponent: entry)
    assert len(workloads.check_perturbations(toolkit, 3, 2)) == 2


def test_registry_digest_ignores_timings_only():
    workload = workloads.Registry()
    a, b = passing_payload(), passing_payload()
    b["results"][0]["ms"] = 99
    assert workload.digest((0, a)) == workload.digest((0, b))
    b["results"][0]["status"] = "fail"
    assert workload.digest((0, a)) != workload.digest((0, b))


# -- tracing and the sweep -----------------------------------------------------------------


def test_tracer_counts_calls_coverage_and_restores_functions():
    original = partitions.count_series
    tracer = trace_layers.Tracer()
    uninstall = trace_layers.install(tracer)
    try:
        partitions.residue_count("rank", 1, 5, 20)
        partitions.residue_count("rank", 1, 5, 10)
        partitions.residue_count("crank", 1, 5, 10)
    finally:
        uninstall()
    assert partitions.count_series is original
    metrics = trace_layers.layer_metrics(tracer)
    assert metrics["partitions.count_series.calls"][0] == 3
    assert metrics["partitions.count_series.covered_share"][0] == pytest.approx(1 / 3)
    assert metrics["partitions.count_series.max_prec"][0] == 21
    assert metrics["series.init.calls"][0] > 0
    assert metrics["theta.theta_j.calls"][0] == 0
    assert metrics["partitions.count_series.self_s"][0] > 0


def test_self_time_subtracts_children():
    tracer = trace_layers.Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_fit_exponent():
    points = [(100, 0.5), (200, 2.0), (400, 8.0), (800, 32.0)]
    assert sweep.fit_exponent(points) == pytest.approx(2.0)
