"""Benchmark entry point.

    python3 qbench/run.py --workload registry --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  With --trace 0 the run measures set-up time, then times whole
passes in fresh worker processes and prints the end-to-end metrics; with
--trace 1 it runs one cold and one warm pass in this process with every
layer's public functions wrapped and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics, and a copy goes to
qbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# workers start in rounds of PARALLEL (the machine has two processors):
# at least MIN_ROUNDS rounds, and more while they fit in --seconds; each
# worker contributes one cold pass and its warm passes
PARALLEL = 2
MIN_ROUNDS = 2
SETUP_RUNS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name, seed, seconds, stem):
    """Set-up time, then rounds of workers for `seconds` of measurement."""
    import harness

    setup_s = harness.setup_seconds(SRC, SETUP_RUNS)

    def command(i):
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", name]
        return argv + (["--check-seed", str(seed)] if i == 0 else [])

    results = harness.run_rounds(command, PARALLEL, seconds, MIN_ROUNDS)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_s": (statistics.median(r["cold_s"] for r in results), "s"),
        "warm_s": (statistics.median(t for r in results for t in r["warm_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    with open(stem + ".workers.json", "w", encoding="utf-8") as handle:
        json.dump([{k: v for k, v in r.items() if k != "digests"} for r in results],
                  handle)
        handle.write("\n")
    problems = [p for r in results for p in r["problems"]]
    if len({d for r in results for d in r["digests"]}) != 1:
        problems.append("passes gave different outputs")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    # on SIGTERM unwind normally, so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qdissect")):
        print(f"qbench: no qdissect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"qbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        import trace_layers
        metrics, attempted, failed, problems = trace_layers.traced_run(
            workloads.WORKLOADS[args.workload](), args.seed, stem + ".spans")
    else:
        metrics, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, stem)
    for problem in problems[:20]:
        print(f"qbench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result, sort_keys=True)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
