"""The three workloads: what each pass runs and how its output is checked.

A workload provides

  * ``run_pass()``: one pass, cold or warm, returning the pass's output;
  * ``ops(output)``: how many operations the pass attempted and how many
    failed;
  * ``digest(output)``: a short fingerprint of the output without its
    timing fields, so that every pass of every worker can be compared;
  * ``check(output, seed)``: the correctness checks, run after the timed
    passes; it returns a list of problems, empty when all is well.

Inputs are fixed by the workload; the seed only picks the samples the
checks draw (perturbation exponents, theta atoms, g specialisations,
partition sizes), so every seed times the same work.
"""

from __future__ import annotations

import fnmatch
import hashlib
import io
import json
import random
from fractions import Fraction

import reference

from qdissect import cli, identities, partitions, theta
from qdissect.registry import build_registry


def fingerprint(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


def report_key(report) -> tuple:
    return report.id, report.status, report.verified_through, report.first_mismatch


# -- registry -------------------------------------------------------------------


class Registry:
    """`qdissect verify --json` over every entry at its default precision."""

    name = "registry"
    perturbations = 8

    def run_pass(self):
        out = io.StringIO()
        code = cli.run_cli(["verify", "--json"], out=out)
        return code, json.loads(out.getvalue())

    def ops(self, output):
        _, payload = output
        results = payload["results"]
        return len(results), sum(1 for r in results if r["status"] != "pass")

    def digest(self, output):
        code, payload = output
        untimed = [{k: v for k, v in r.items() if k != "ms"} for r in payload["results"]]
        return fingerprint((code, untimed))

    def check(self, output, seed):
        code, payload = output
        problems = []
        entries = build_registry()
        results = payload["results"]
        if len(results) != len(entries):
            problems.append(f"{len(results)} results for {len(entries)} entries")
        for entry, result in zip(entries, results):
            if result["id"] != entry.id:
                problems.append(f"result {result['id']} out of registry order")
            elif result["status"] == "pass" and result["verified_through"] != entry.default_prec:
                problems.append(
                    f"{entry.id} verified through {result['verified_through']}, "
                    f"ran at {entry.default_prec}")
        expected_code = 0 if all(r["status"] == "pass" for r in results) else 1
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        problems.extend(check_perturbations(entries, seed, self.perturbations))
        return problems


def check_perturbations(entries, seed, count):
    """Clones with q^e added to one side must fail at exactly e."""
    rng = random.Random(seed)
    equalities = [e for e in entries if e.kind == "equality"]
    problems = []
    for entry in rng.sample(equalities, count):
        exponent = rng.randrange(0, entry.default_prec)
        report = identities.verify_identity(identities.perturb_entry(entry, exponent))
        mismatch = report.first_mismatch
        if report.status != "fail" or mismatch is None or mismatch.exponent != exponent:
            problems.append(
                f"{entry.id} perturbed at q^{exponent}: {report.status}, "
                f"mismatch {mismatch}")
    return problems


# -- theta-deep -----------------------------------------------------------------

TOOLKIT_PREFIXES = (
    "rearr-", "shift-law-", "reflect-law-", "base-double-", "neg-base-",
    "split-", "jsplit-", "theta-pair-", "weierstrass-", "quintuple-",
    "hecke-sum-", "gsplit-", "g-even-part-", "g-odd-part-",
)
THETA_GLOBS = ("mock-theta-*", "g2-*", "g6-*")


def theta_deep_entries(registry):
    return [
        e for e in registry
        if e.id.startswith(TOOLKIT_PREFIXES)
        or any(fnmatch.fnmatchcase(e.id, g) for g in THETA_GLOBS)
    ]


class ThetaDeep:
    """The entries that touch no residue counts, all at one raised precision."""

    name = "theta-deep"
    prec = 300
    atoms = 8
    g_specs = 4

    def __init__(self):
        self.entries = theta_deep_entries(build_registry())

    def run_pass(self):
        return identities.verify_all(self.entries, prec=self.prec)

    def ops(self, reports):
        return len(reports), sum(1 for r in reports if r.status != "pass")

    def digest(self, reports):
        return fingerprint([report_key(r) for r in reports])

    def check(self, reports, seed):
        problems = []
        if len(reports) != len(self.entries):
            problems.append(f"{len(reports)} reports for {len(self.entries)} entries")
        for r in reports:
            if r.status == "pass" and r.verified_through != self.prec:
                problems.append(f"{r.id} verified through {r.verified_through}")
        rng = random.Random(seed)
        for _ in range(self.atoms):
            m = rng.randint(1, 64)
            atom = theta.ThetaAtom(rng.choice((1, -1)), rng.randint(-m, 2 * m), m)
            problems.extend(check_atom(atom, self.prec, theta.theta_j(atom, self.prec)))
        for _ in range(self.g_specs):
            m = rng.randint(2, 64)
            spec = theta.GSpec(rng.choice((1, -1)), rng.randint(1, m - 1), m)
            problems.extend(check_g(spec, self.prec, theta.mock_g(spec, self.prec)))
        return problems


def check_atom(atom, prec, series):
    if series.prec != prec:
        return [f"theta_j({atom}, {prec}) is known only below q^{series.prec}"]
    lo = min(series.min_exp, 0)
    want = reference.theta_coefficients(atom.sign, atom.a, atom.m, lo, prec)
    if [series.coeff(e) for e in range(lo, prec)] != want:
        return [f"theta_j({atom}, {prec}) disagrees with the triple-product sum"]
    return []


def check_g(spec, prec, series):
    if series.prec != prec:
        return [f"mock_g({spec}, {prec}) is known only below q^{series.prec}"]
    want = reference.g_coefficients(spec.sign, spec.a, spec.m, prec)
    if [series.coeff(e) for e in range(-spec.a, prec)] != want:
        return [f"mock_g({spec}, {prec}) disagrees with its defining sum"]
    return []


# -- counts ---------------------------------------------------------------------


class Counts:
    """Residue counts read one n at a time in ascending order, then D(a,M)."""

    name = "counts"
    tables = [(stat, M) for stat in ("rank", "crank") for M in (5, 7, 8, 11)]
    depth = 300
    enumerated_max = 22
    enumerated_extra = 3

    def run_pass(self):
        counts, deviations = {}, {}
        for stat, M in self.tables:
            counts[stat, M] = read_counts(stat, M, self.depth + 1)
            deviations[stat, M] = read_deviations(stat, M, self.depth + 1)
        return counts, deviations

    def digest(self, output):
        return fingerprint(output)

    def ops(self, output):
        counts, deviations = output
        attempted = failed = 0
        for rows in counts.values():
            for row in rows:
                attempted += len(row)
                failed += row.count(None)
        for devs in deviations.values():
            attempted += len(devs)
            failed += devs.count(None)
        return attempted, failed

    def check(self, output, seed):
        counts, deviations = output
        p = reference.partition_numbers(self.depth)
        rng = random.Random(seed)
        sizes = list(range(1, self.enumerated_max + 1)) + rng.sample(
            range(self.enumerated_max + 1, self.enumerated_max + 9), self.enumerated_extra)
        problems = []
        for (stat, M), rows in counts.items():
            problems.extend(check_count_table(stat, M, rows, p, sizes))
            problems.extend(check_deviations(stat, M, rows, deviations[stat, M], p))
        return problems


def read_counts(stat, M, prec):
    """N(a,M;n) (or C) for n < prec, each read on its own, ascending."""
    rows = []
    for n in range(prec):
        row = []
        for a in range(M):
            try:
                row.append(partitions.residue_count(stat, a, M, n))
            except (ValueError, ArithmeticError):
                row.append(None)
        rows.append(row)
    return rows


def read_deviations(stat, M, prec):
    out = []
    for a in range(M):
        try:
            out.append(partitions.deviation_series(stat, a, M, prec))
        except (ValueError, ArithmeticError):
            out.append(None)
    return [None if d is None else [d.coeff(n) for n in range(prec)] for d in out]


EQUIDISTRIBUTED = {5: ((5, 4), ("rank", "crank")),
                   7: ((7, 5), ("rank", "crank")),
                   11: ((11, 6), ("crank",))}


def check_count_table(stat, M, rows, p, sizes):
    problems = []
    label = f"{stat} mod {M}"
    for n, row in enumerate(rows):
        if None in row:
            continue
        if sum(row) != p[n]:
            problems.append(f"{label}: counts at n={n} sum to {sum(row)}, p(n)={p[n]}")
        if any(row[a] != row[-a % M] for a in range(M)):
            problems.append(f"{label}: counts at n={n} are not symmetric in a -> M-a")
    progression = EQUIDISTRIBUTED.get(M)
    if progression and stat in progression[1]:
        t, r = progression[0]
        for n in range(r, len(rows), t):
            if None not in rows[n] and any(c * M != p[n] for c in rows[n]):
                problems.append(f"{label}: counts at n={n} are not all p(n)/{M}")
    if rows and rows[0] != [1] + [0] * (M - 1):
        problems.append(f"{label}: n=0 should count the empty partition at a=0")
    for n in sizes:
        if n >= len(rows) or None in rows[n]:
            continue
        want = reference.enumerated_counts(stat, M, n)
        if stat == "crank" and n == 1:
            # the product convention z + z^-1 - 1 in place of crank((1)) = -1
            want = [0] * M
            want[0] -= 1
            want[1] += 1
            want[-1 % M] += 1
        if rows[n] != want:
            problems.append(f"{label}: counts at n={n} differ from enumeration")
    return problems


def check_deviations(stat, M, rows, devs, p):
    problems = []
    for a, coeffs in enumerate(devs):
        if coeffs is None:
            continue
        for n, c in enumerate(coeffs):
            if None in rows[n]:
                continue
            if c != rows[n][a] - Fraction(p[n], M):
                problems.append(f"D({a},{M}) for {stat} at q^{n} is {c}")
                break
    return problems


WORKLOADS = {w.name: w for w in (Registry, ThetaDeep, Counts)}
