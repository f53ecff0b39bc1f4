"""Timing machinery: the worker processes and the set-up time.

Timings on a small shared machine drift by 10-20% over seconds as other
tenants load the hardware, and neither process time nor the minimum of a
few repeats removes that.  The drift on the two processors is only weakly
correlated, so a run times several whole passes in fresh worker
processes, two at a time, and reports medians over all of them.

A worker imports the library, runs one cold pass (every cache empty, as
in a fresh interpreter), then a fixed number of warm passes in the same
process, and prints one JSON line: the pass times, its peak resident
set, the operations attempted and failed, a digest of each pass's output
and, when asked, the problems the workload's checks found.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

perf_counter = time.perf_counter

WORKER_TIMEOUT_S = 150


def worker(workload, warm_passes: int, check_seed) -> dict:
    """Run the passes of one worker; called inside the worker process."""
    start = perf_counter()
    output = workload.run_pass()
    cold_s = perf_counter() - start
    outputs, warm_s = [output], []
    for _ in range(warm_passes):
        t0 = perf_counter()
        outputs.append(workload.run_pass())
        warm_s.append(perf_counter() - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = failed = 0
    for out in outputs:
        a, f = workload.ops(out)
        attempted += a
        failed += f
    problems = [] if check_seed is None else workload.check(output, check_seed)
    return {
        "cold_s": cold_s, "warm_s": warm_s, "peak_rss_mb": peak_mb,
        "attempted": attempted, "failed": failed,
        "digests": [workload.digest(out) for out in outputs],
        "problems": problems,
    }


def run_rounds(command_for, parallel: int, seconds: float, min_rounds: int) -> list:
    """Run rounds of `parallel` worker processes at once: at least
    `min_rounds`, and another while the longest round so far would still
    end within `seconds`.  Return the parsed results in start order;
    command_for(i) gives worker i's argv."""
    results = []
    start = perf_counter()
    longest = 0.0
    while (len(results) < parallel * min_rounds
           or perf_counter() - start + longest <= seconds):
        round_start = perf_counter()
        first = len(results)
        procs = [subprocess.Popen(command_for(first + k), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for k in range(parallel)]
        try:
            for k, proc in enumerate(procs):
                out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"worker {first + k} exited with "
                                       f"{proc.returncode}: {err.strip()[-2000:]}")
                results.append(json.loads(out.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        longest = max(longest, perf_counter() - round_start)
    return results


SETUP_SCRIPT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qdissect\n"
    "qdissect.build_registry()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def setup_seconds(src_dir: str, runs: int) -> float:
    """Median over fresh interpreters of import qdissect + build_registry().

    One extra interpreter runs first and is not counted: in a fresh
    checkout it writes the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    times = []
    for i in range(runs + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)
