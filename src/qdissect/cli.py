"""Command-line front end.

Subcommands:

  verify            run the identity registry (optionally filtered)
  table             residue-count table for ranks or cranks
  deviation         rational coefficients of a deviation series
  expand            dump a named series (J a m | Jbar a m | g a m | f0 | f1 | pq)
  dissect           like expand, restricted to one progression class
  check-congruence  the classical divisibility and equidistribution checks

Exit codes are the machine contract: 0 success, 1 verification failure,
2 usage error, 3 internal error.

Settings come from the command-line flags alone.  Without --prec,
deviation, expand and dissect run at DEFAULT_PREC and verify runs each
entry at its own precision.  All numeric output is exact: integers and
num/den rationals only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager

from . import partitions, theta
from .identities import MIN_VERIFY_PREC, all_passed, report_json, report_text, verify_all
from .registry import build_registry
from .series import Series
from .theta import GSpec, ThetaAtom

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_PREC = 120


class UsageError(Exception):
    """Bad input on the command line (exit 2)."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


@contextmanager
def _usage_errors():
    """Report a ValueError from validating user input as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="exact q-series toolkit for partition rank/crank dissections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity registry")
    p_verify.add_argument("--id", dest="id_pattern", help="glob pattern of entry ids")
    p_verify.add_argument("--prec", type=int, help="override every entry's precision")
    p_verify.add_argument("--json", action="store_true", help="emit the JSON report")
    p_verify.add_argument("--report", help="also write the JSON report to this path")

    p_table = sub.add_parser("table", help="residue-count table")
    p_table.add_argument("stat", choices=["rank", "crank"])
    p_table.add_argument("--modulus", type=int, required=True)
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--tsv", action="store_true")
    p_table.add_argument("--json", action="store_true")

    p_dev = sub.add_parser("deviation", help="deviation series coefficients")
    p_dev.add_argument("stat", choices=["rank", "crank"])
    p_dev.add_argument("--modulus", type=int, required=True)
    p_dev.add_argument("--a", type=int, required=True)
    p_dev.add_argument("--prec", type=int, default=DEFAULT_PREC)
    p_dev.add_argument("--json", action="store_true")

    for name in ("expand", "dissect"):
        p = sub.add_parser(
            name,
            help="dump a named series"
            + (" restricted to a progression" if name == "dissect" else ""),
        )
        p.add_argument("target", choices=["J", "Jbar", "g", "f0", "f1", "pq"])
        p.add_argument("params", nargs="*", type=int, help="a m for J/Jbar/g")
        p.add_argument("--neg", action="store_true", help="g at -q^a instead of q^a")
        p.add_argument("--prec", type=int, default=DEFAULT_PREC)
        p.add_argument("--json", action="store_true")
        if name == "dissect":
            p.add_argument("--t", type=int, required=True)
            p.add_argument("--r", type=int, required=True)
            p.add_argument("--deflate", action="store_true",
                           help="also compress the progression onto q^n")

    p_cong = sub.add_parser("check-congruence", help="classical congruence checks")
    p_cong.add_argument("modulus", type=int, choices=[5, 7, 11])
    p_cong.add_argument("--max", type=int, default=200, dest="max_arg")

    return parser


def _prec(args) -> int:
    _check(args.prec >= 0, "--prec must be nonnegative")
    return args.prec


def _expand_target(args) -> Series:
    prec = _prec(args)
    if args.target in ("J", "Jbar", "g"):
        _check(len(args.params) == 2, f"{args.target} takes two integers: a m")
    else:
        _check(not args.params, f"{args.target} takes no parameters")
    if args.target in ("J", "Jbar"):
        with _usage_errors():
            atom = ThetaAtom(1 if args.target == "J" else -1, *args.params)
        return theta.theta_j(atom, prec)
    if args.target == "g":
        with _usage_errors():
            spec = GSpec(-1 if args.neg else 1, *args.params)
        return theta.mock_g(spec, prec)
    if args.target in ("f0", "f1"):
        return theta.eulerian_sum(args.target, prec)
    return partitions.partition_series(prec)


def _print_series(series: Series, as_json: bool, out) -> None:
    if as_json:
        json.dump(series.to_json_obj(), out)
        out.write("\n")
    else:
        out.write(series.to_text())
        out.write("\n")


def _cmd_verify(args, out) -> int:
    _check(
        args.prec is None or args.prec >= MIN_VERIFY_PREC,
        f"--prec must be at least {MIN_VERIFY_PREC}",
    )
    registry = build_registry()
    reports = verify_all(registry, prec=args.prec, id_filter=args.id_pattern)
    _check(bool(reports), f"no registry entry matches --id {args.id_pattern!r}")
    payload = report_json(
        reports,
        prec_default=args.prec if args.prec is not None else DEFAULT_PREC,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    if args.report:
        try:
            handle = open(args.report, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write --report {args.report}: {exc.strerror}") from exc
        with handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write(report_text(reports))
        out.write("\n")
    return EXIT_OK if all_passed(reports) else EXIT_VERIFY_FAILED


def _cmd_table(args, out) -> int:
    M, max_n = args.modulus, args.max_n
    _check(M >= 1, "--modulus must be at least 1")
    _check(max_n >= 0, "--max-n must be nonnegative")
    series = partitions.count_series(args.stat, M, max_n + 1)
    pn = partitions.partition_series(max_n + 1).coeffs
    rows = [(n, list(series.coeff(n).counts), pn[n]) for n in range(max_n + 1)]
    if args.json:
        json.dump(
            {"stat": args.stat, "modulus": M,
             "rows": [{"n": n, "counts": c, "p": p} for n, c, p in rows]},
            out,
        )
        out.write("\n")
        return EXIT_OK
    header = ["n"] + [f"a={a}" for a in range(M)] + ["p(n)"]
    cells = [[str(n)] + [str(c) for c in counts] + [str(p)] for n, counts, p in rows]
    if args.tsv:
        out.write("\t".join(header) + "\n")
        for row in cells:
            out.write("\t".join(row) + "\n")
    else:
        widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
        out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n")
        for row in cells:
            out.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    return EXIT_OK


def _cmd_deviation(args, out) -> int:
    _check(args.modulus >= 1, "--modulus must be at least 1")
    _check(0 <= args.a < args.modulus, f"--a must lie in [0, {args.modulus})")
    prec = _prec(args)
    series = partitions.deviation_series(args.stat, args.a, args.modulus, prec)
    _print_series(series, args.json, out)
    return EXIT_OK


def _cmd_expand(args, out) -> int:
    series = _expand_target(args)
    if args.command == "dissect":
        _check(args.t >= 1, "--t must be at least 1")
        _check(0 <= args.r < args.t, f"--r must lie in [0, {args.t})")
        series = series.dissect(args.t, args.r)
        if args.deflate:
            series = series.deflate(args.t, args.r)
    _print_series(series, args.json, out)
    return EXIT_OK


def _cmd_congruence(args, out) -> int:
    M = args.modulus
    residue, offset = {5: (4, 5), 7: (5, 7), 11: (6, 11)}[M]
    letter = f"{offset}n+{residue}"
    _check(args.max_arg >= residue,
           f"--max must be at least {residue}, the first argument of {letter}")
    ok = True
    checked = 0
    n = residue
    prec = args.max_arg + 1
    pn = partitions.partition_series(prec).coeffs
    while n <= args.max_arg:
        p = pn[n]
        if p % M:
            out.write(f"FAIL p({n}) = {p} is not divisible by {M}\n")
            ok = False
        stats = ["crank"] if M == 11 else ["rank", "crank"]
        for stat in stats:
            counts = partitions.count_series(stat, M, prec).coeff(n).counts
            if any(c * M != p for c in counts):
                out.write(f"FAIL {stat} counts at n={n} are not all p(n)/{M}: {counts}\n")
                ok = False
        checked += 1
        n += offset
    status = "ok" if ok else "FAILED"
    out.write(
        f"congruence mod {M} on {letter}: {checked} arguments up to "
        f"{args.max_arg}: {status}\n"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Stdout:
    """sys.stdout for the handlers.  Once the reader has closed the pipe,
    writes are dropped: that is no fault of the command, which goes on
    to return its own exit code."""

    closed = False

    def write(self, text: str) -> None:
        if not self.closed:
            try:
                sys.stdout.write(text)
            except BrokenPipeError:
                self.closed = True


def run_cli(argv=None, out=None) -> int:
    out = out if out is not None else _Stdout()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        handler = {
            "verify": _cmd_verify,
            "table": _cmd_table,
            "deviation": _cmd_deviation,
            "expand": _cmd_expand,
            "dissect": _cmd_expand,
            "check-congruence": _cmd_congruence,
        }[args.command]
        return handler(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    code = run_cli()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # no reader: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
