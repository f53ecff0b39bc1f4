"""One worker process of a benchmark run (started by run.py).

    python3 qbench/worker.py --workload NAME [--check-seed N]

Imports the library from ./src, runs one cold pass and then WARM_PASSES
warm passes, and prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
WARM_PASSES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--check-seed", type=int)
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, BENCH_DIR]
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result = harness.worker(workload, WARM_PASSES, args.check_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
