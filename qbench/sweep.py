"""Precision sweep: how each kernel's cold time grows with the precision.

    python3 qbench/sweep.py

Run from the root of a source checkout.  Each kernel is timed at
P = 100, 200, 400 and 800, every timing in a forked copy of a process that
has only imported the library, so no cache is warm; the fastest of
REPEATS timings is kept.  The exponent k of time ~ P^k is the
least-squares slope of log(time) against log(P).  This is not part of the
checked runs; its figures are recorded in qbench/README.md.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
PRECISIONS = (100, 200, 400, 800)
REPEATS = 3


def kernels():
    from qdissect import partitions, theta

    atom = theta.J(1, 5)
    spec = theta.GSpec(1, 2, 10)

    def mul_inputs(P):
        return partitions.partition_series(P), theta.theta_j(theta.eta_atom(1), P)

    return {
        "theta.theta_j J(1,5)": (lambda P: (P,), lambda P: theta.theta_j(atom, P)),
        "theta.theta_j_inverse J(1,5)": (
            lambda P: (P,), lambda P: theta.theta_j_inverse(atom, P)),
        "theta.mock_g g(q^2;q^10)": (lambda P: (P,), lambda P: theta.mock_g(spec, P)),
        "partitions.count_series rank mod 8": (
            lambda P: (P,), lambda P: partitions.count_series("rank", 8, P)),
        "partitions.count_series crank mod 8": (
            lambda P: (P,), lambda P: partitions.count_series("crank", 8, P)),
        "Series.__mul__ p(n) x (q;q)_inf": (mul_inputs, lambda a, b: a * b),
        "Series.invert p(n)": (
            lambda P: (partitions.partition_series(P),), lambda s: s.invert()),
    }


def time_in_fork(timed) -> float:
    """Run timed() in a forked copy of this process, whose caches are as
    cold as this process's, and return the seconds it reports."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, repr(timed()).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        text = pipe.read().decode()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("a timed kernel failed in its forked copy")
    return float(text)


def fit_exponent(points):
    xs = [math.log(p) for p, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "qdissect")):
        print(f"sweep: no qdissect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    rows = {}
    for name, (make_inputs, kernel) in kernels().items():
        points = []
        for P in PRECISIONS:
            def timed(P=P):
                inputs = make_inputs(P)
                t0 = time.perf_counter()
                kernel(*inputs)
                return time.perf_counter() - t0

            best = min(time_in_fork(timed) for _ in range(REPEATS))
            points.append((P, best))
        rows[name] = {"seconds": {str(P): t for P, t in points},
                      "exponent": fit_exponent(points)}
        cells = "  ".join(f"{t:9.4f}" for _, t in points)
        print(f"{name:40s} {cells}  k={rows[name]['exponent']:.2f}", file=sys.stderr)
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    print(json.dumps(rows, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
