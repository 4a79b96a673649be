"""Per-layer tracing of mlcs from outside the package.

install() replaces the public functions of each layer module, wherever a
caller looks them up (the module itself, the package, and every module that
re-imported the name), with wrappers that record a span and count calls.
scipy.integrate.quad and scipy.optimize.brentq are wrapped the same way.
No file of the program changes.

A span is (name, start, end, parent).  Spans stay in memory and are written
out when the run ends.  A call made while a span of the same category is
open is counted but opens no span of its own: its time is that category's
either way, and skipping it keeps per-element helpers such as
coherent.structure_e from flooding the trace.  Self time of a span is its
duration minus the time its child spans cover; integrand code that calls no
traced function therefore counts as quadrature self time.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("mlfunc", "coherent", "thermal", "measure", "quadrature", "continuum", "cli")
KERNELS = ("meijer_g_weight", "meijer_g_weight_mb")
METHODS = (("continuum", "EnergyDensityState", ("build", "norm_mass", "norm_literal")),)

PER_LAYER = (
    ("mlfunc.calls", "count/round"),
    ("mlfunc.self_s", "s/round"),
    ("mlfunc.terms", "count/round"),
    ("coherent.calls", "count/round"),
    ("coherent.self_s", "s/round"),
    ("coherent.coeffs", "count/round"),
    ("thermal.calls", "count/round"),
    ("thermal.self_s", "s/round"),
    ("measure.kernel_calls", "count/round"),
    ("measure.kernel_self_s", "s/round"),
    ("measure.suite_self_s", "s/round"),
    ("quadrature.quad_calls", "count/round"),
    ("quadrature.integrand_evals", "count/round"),
    ("quadrature.evals_per_quad", "ratio"),
    ("quadrature.self_s", "s/round"),
    ("continuum.log_nu_calls", "count/round"),
    ("continuum.peak_solves", "count/round"),
    ("continuum.self_s", "s/round"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s/round"),
)


def _category(layer, name):
    if layer == "measure":
        return "measure.kernel" if name in KERNELS else "measure.suite"
    return layer


class Tracer:
    """Span and count store; records only while `enabled` is true."""

    def __init__(self):
        self.enabled = False
        self.labels = []  # label index -> "layer.name"
        self.categories = []  # label index -> category
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.label = array("l")
        self.counts = Counter()  # calls per label
        self.tallies = Counter()  # series terms, window coefficients, integrand evaluations
        self._stack = []  # (span index, category) of open spans

    def _register(self, label, category):
        self.labels.append(label)
        self.categories.append(category)
        return len(self.labels) - 1

    def wrap(self, layer, name, fn, on_result=None, call=None):
        label = f"{layer}.{name}"
        category = _category(layer, name)
        lid = self._register(label, category)
        call = call or fn
        counts = self.counts
        tallies = self.tallies
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counts[label] += 1
            if stack and stack[-1][1] == category:
                result = call(*args, **kwargs)
            else:
                idx = len(self.start)
                self.start.append(perf_counter())
                self.end.append(0.0)
                self.parent.append(stack[-1][0] if stack else -1)
                self.label.append(lid)
                stack.append((idx, category))
                try:
                    result = call(*args, **kwargs)
                finally:
                    stack.pop()
                    self.end[idx] = perf_counter()
            if on_result is not None:
                result = on_result(tallies, result)
            return result

        return traced

    # ------------------------------------------------------------ results

    def self_times(self):
        """Summed self time per category and summed duration per label."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        by_cat = Counter()
        by_label = Counter()
        for i in range(n):
            dur = self.end[i] - self.start[i]
            lid = self.label[i]
            by_cat[self.categories[lid]] += dur - covered[i]
            by_label[self.labels[lid]] += dur
        return by_cat, by_label

    def layer_metrics(self, rounds, interpreter_s, import_s):
        by_cat, by_label = self.self_times()
        c = self.counts

        def calls(layer):
            return sum(v for label, v in c.items() if label.split(".", 1)[0] == layer)

        quads = c["quadrature.quad"]
        evals = self.tallies["integrand_evals"]
        raw = {
            "mlfunc.calls": calls("mlfunc"),
            "mlfunc.self_s": by_cat["mlfunc"],
            "mlfunc.terms": self.tallies["series_terms"],
            "coherent.calls": calls("coherent"),
            "coherent.self_s": by_cat["coherent"],
            "coherent.coeffs": self.tallies["window_coeffs"],
            "thermal.calls": calls("thermal"),
            "thermal.self_s": by_cat["thermal"],
            "measure.kernel_calls": sum(c[f"measure.{k}"] for k in KERNELS),
            "measure.kernel_self_s": by_cat["measure.kernel"],
            "measure.suite_self_s": by_cat["measure.suite"],
            "quadrature.quad_calls": quads,
            "quadrature.integrand_evals": evals,
            "quadrature.self_s": by_cat["quadrature"],
            "continuum.log_nu_calls": c["continuum.log_nu"],
            "continuum.peak_solves": c["continuum.brentq"],
            "continuum.self_s": by_cat["continuum"],
            "cli.main_s": by_label["cli.main"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        out["quadrature.evals_per_quad"] = evals / quads if quads else 0.0
        out["cli.interpreter_s"] = interpreter_s
        out["cli.import_s"] = import_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{self.labels[self.label[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")


# ------------------------------------------------------------- counters


def _count_terms(tallies, result):
    terms = getattr(result, "terms_used", None)
    if terms is not None:
        tallies["series_terms"] += terms
    return result


def _count_window(tallies, result):
    arr = getattr(result, "coeffs", None)
    if arr is None:
        arr = getattr(result, "probs", None)
    if arr is not None:
        tallies["window_coeffs"] += arr.size
    return result


_ON_RESULT = {"mlfunc": _count_terms, "coherent": _count_window}


def _quad_counting_evals(quad, tallies):
    """quad as called by mlcs, asking for full_output only to read neval."""

    def call(*args, **kwargs):
        if "full_output" in kwargs or len(args) > 4:
            return quad(*args, **kwargs)
        value, err, info = quad(*args, full_output=1, **kwargs)[:3]
        tallies["integrand_evals"] += int(info["neval"])
        return value, err

    return call


def install(tracer):
    """Wrap every traced name in place."""
    import scipy.integrate
    import scipy.optimize

    import mlcs

    modules = {layer: importlib.import_module(f"mlcs.{layer}") for layer in LAYERS}
    lookups = [mlcs, importlib.import_module("mlcs.kcore")] + list(modules.values())
    replaced = {}
    for layer, mod in modules.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                replaced[id(fn)] = tracer.wrap(layer, name, fn, _ON_RESULT.get(layer))
    for target in lookups:
        for attr, value in list(vars(target).items()):
            if id(value) in replaced:
                setattr(target, attr, replaced[id(value)])
    for layer, cls_name, names in METHODS:
        cls = getattr(modules[layer], cls_name)
        for name in names:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(layer, name, raw.__func__)))
            else:
                setattr(cls, name, tracer.wrap(layer, name, raw))
    quad = scipy.integrate.quad
    scipy.integrate.quad = tracer.wrap("quadrature", "quad", quad,
                                       call=_quad_counting_evals(quad, tracer.tallies))
    scipy.optimize.brentq = tracer.wrap("continuum", "brentq", scipy.optimize.brentq)
