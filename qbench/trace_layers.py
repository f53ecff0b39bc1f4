"""Per-layer tracing from outside the library.

The public functions of each qdissect module are wrapped where they are
looked up: the module attribute (and every other qdissect module that
imported the same function by name) or the Series class attribute.  Each
call records a span with its parent span; spans stay in memory and are
written to qbench/out/ when the run ends.  Self time is a span's duration
minus the durations of its direct children.

CyclicLaurent arithmetic and Ring.coerce get no spans: they run millions of
times per pass and timing each call would swamp the measurement.  Their
cost shows in the self time of the callers (count_series, Series.__init__).
"""

from __future__ import annotations

import json
import sys
import time

from qdissect import cli, identities, partitions, registry, theta
from qdissect.series import Series

perf_counter = time.perf_counter

FUNCTIONS = {
    "partitions": (partitions, ("count_series", "deviation_series",
                                "residue_series", "partition_series")),
    "theta": (theta, ("theta_j", "theta_j_inverse", "eta_quotient", "mock_g",
                      "eulerian_sum", "theta_j_sum")),
    "identities": (identities, ("verify_identity", "inequality_check",
                                "support_check", "positivity_check")),
    "registry": (registry, ("build_registry",)),
    "cli": (cli, ("run_cli",)),
}
SERIES_METHODS = {
    "init": "__init__", "mul": "__mul__", "mul_binomial": "mul_binomial",
    "div_binomial": "div_binomial", "invert": "invert", "add": "__add__",
    "compare": "compare",
}


class Tracer:
    """Span store plus the per-call quantities that are not times."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = {}     # "<layer>.<function>.<quantity>" -> number
        self.seen = {}       # function -> {key: widest prec asked this pass}

    def new_pass(self):
        self.seen = {}

    def add(self, metric, amount):
        self.counts[metric] = self.counts.get(metric, 0) + amount

    def cover(self, name, key, prec):
        """Record whether an earlier call of this pass already asked for
        this key at this precision or more."""
        seen = self.seen.setdefault(name, {})
        widest = seen.get(key)
        if widest is not None and widest >= prec:
            self.add(f"{name}.covered", 1)
        else:
            seen[key] = prec

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if note is not None:
                note(self, *args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def calls(self):
        out = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"]},
                      handle)
            handle.write("\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{index[name]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# -- the non-time quantities --------------------------------------------------


def _count_series_note(tracer, stat, M, prec):
    key = "partitions.count_series.max_prec"
    tracer.counts[key] = max(tracer.counts.get(key, 0), prec)
    tracer.cover("partitions.count_series", (stat, M), prec)


def _theta_j_note(tracer, atom, prec):
    tracer.cover("theta.theta_j", atom, prec)


def _init_note(tracer, series, ring, min_exp, coeffs, prec):
    tracer.add("series.init.coeffs", prec - min_exp)


def _mul_note(tracer, a, b):
    # a dense product truncated to the shorter window of length L
    # multiplies L(L+1)/2 coefficient pairs, counting zeros
    if isinstance(b, Series):
        length = max(0, min(a.prec - a.min_exp, b.prec - b.min_exp))
        tracer.add("series.mul.coeff_products", length * (length + 1) // 2)


def _compare_note(tracer, a, b):
    lo = min(a.min_exp, b.min_exp)
    tracer.add("series.compare.exponents", max(0, min(a.prec, b.prec) - lo))


NOTES = {
    "partitions.count_series": _count_series_note,
    "theta.theta_j": _theta_j_note,
    "series.init": _init_note,
    "series.mul": _mul_note,
    "series.compare": _compare_note,
}


def install(tracer):
    """Wrap every traced function; return a callable that undoes it."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qdissect" or n.startswith("qdissect."))]
    for layer, (module, names) in FUNCTIONS.items():
        for fname in names:
            original = getattr(module, fname)
            name = f"{layer}.{fname}"
            traced = tracer.wrap(name, original, NOTES.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, original))
    for short, method in SERIES_METHODS.items():
        original = Series.__dict__[method]
        name = f"series.{short}"
        setattr(Series, method, tracer.wrap(name, original, NOTES.get(name)))
        undo.append((Series, method, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


PER_LAYER = [
    ("partitions.count_series", ("calls", "self_s", "max_prec", "covered_share")),
    ("partitions.deviation_series", ("self_s",)),
    ("partitions.residue_series", ("self_s",)),
    ("partitions.partition_series", ("self_s",)),
    ("theta.theta_j", ("calls", "self_s", "covered_share")),
    ("theta.theta_j_inverse", ("calls", "self_s")),
    ("theta.eta_quotient", ("calls", "self_s")),
    ("theta.mock_g", ("calls", "self_s")),
    ("theta.eulerian_sum", ("self_s",)),
    ("theta.theta_j_sum", ("self_s",)),
    ("series.init", ("calls", "coeffs", "self_s")),
    ("series.mul", ("calls", "self_s", "coeff_products")),
    ("series.mul_binomial", ("calls", "self_s")),
    ("series.div_binomial", ("self_s",)),
    ("series.invert", ("calls", "self_s")),
    ("series.add", ("self_s",)),
    ("series.compare", ("calls", "self_s", "exponents")),
    ("identities.verify_identity", ("calls", "self_s")),
    ("identities.inequality_check", ("self_s",)),
    ("identities.support_check", ("self_s",)),
    ("identities.positivity_check", ("self_s",)),
    ("registry.build_registry", ("self_s",)),
    ("cli.run_cli", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s", "max_prec": "q-exponent",
         "covered_share": "share", "coeffs": "count",
         "coeff_products": "count-computed", "exponents": "count-computed"}


def layer_metrics(tracer):
    self_s = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for name, quantities in PER_LAYER:
        for quantity in quantities:
            if quantity == "calls":
                value = calls.get(name, 0)
            elif quantity == "self_s":
                value = self_s.get(name, 0.0)
            elif quantity == "covered_share":
                n = calls.get(name, 0)
                value = tracer.counts.get(f"{name}.covered", 0) / n if n else 0.0
            else:
                value = tracer.counts.get(f"{name}.{quantity}", 0)
            out[f"{name}.{quantity}"] = (value, UNITS[quantity])
    return out


def traced_run(workload, seed, spans_path):
    """One cold and one warm pass with every layer wrapped; the per-layer
    metrics sum over both passes.  Returns the metrics, the operations
    attempted and failed, and the problems the checks found."""
    tracer = Tracer()
    uninstall = install(tracer)
    outputs = []
    try:
        for label in ("cold", "warm"):
            tracer.new_pass()
            start = perf_counter()
            outputs.append(workload.run_pass())
            print(f"qbench: traced {label} pass {perf_counter() - start:.3f} s",
                  file=sys.stderr)
    finally:
        uninstall()
    tracer.write(spans_path)
    attempted = failed = 0
    for out in outputs:
        a, f = workload.ops(out)
        attempted += a
        failed += f
    problems = workload.check(outputs[0], seed)
    if workload.digest(outputs[0]) != workload.digest(outputs[1]):
        problems.append("the warm pass gave other results than the cold pass")
    return layer_metrics(tracer), attempted, failed, problems
