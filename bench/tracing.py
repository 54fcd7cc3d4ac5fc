"""Out-of-package tracer: spans and counts around every public noonsteer call.

``Tracer.install`` replaces each public function of the layer modules (and
every ``lru_cache`` table, public or not) by a wrapper that records a span:
name, start, end, parent span and op id. The package imports names directly
(``from .fock import wavefunction_stack``), so a wrapper is rebound in every
noonsteer module that holds the original object, not only where it is
defined. ``Tracer.remove`` puts every original back. Nothing here runs unless
the benchmark is asked for a traced run, so an untraced run leaves the
package exactly as imported.

A few probes add counts the span alone cannot give: quadrature nodes and
integrand evaluations, wavefunction and conditioning nodes, accepted shots
and merged bins. They read arguments and results only; the one that counts
integrand evaluations hands ``integrate`` a counting proxy of the integrand.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "steering", "inferred", "lossy", "quadrature", "fock", "sampling")


def _probe_integrate(bound):
    extra = {"nodes": 0, "levels": 0}
    f = bound.arguments["f"]

    def counted(x):
        extra["levels"] += 1
        extra["nodes"] += int(np.size(x))
        return f(x)

    bound.arguments["f"] = counted
    return extra


def _probe_nodes(argument):
    def probe(bound):
        return {"nodes": int(np.size(bound.arguments[argument]))}

    return probe


def _probe_accepted(bound):
    return {"accepted": int(bound.arguments["size"])}


def _probe_bins(bound):
    return {"bins_requested": int(bound.arguments["bins"])}


#: The lazy tables whose misses and hits the traced run reports. A table that
#: no longer exists reports zero, so the metric set stays the same.
TABLES = (
    "inferred.moment_integral",
    "inferred.overlap_abs_integral",
    "sampling._x_cdf_table",
    "sampling._envelope_constant",
)

#: name -> probe(bound arguments) -> extra dict stored on the span.
PROBES = {
    "quadrature.integrate": _probe_integrate,
    "fock.wavefunction_stack": _probe_nodes("x"),
    "lossy.conditioned_b_blocks": _probe_nodes("x"),
    "sampling.sample_quadrature_pair": _probe_accepted,
    "sampling.estimate_steering": _probe_bins,
}

#: name -> finisher(extra, result), for counts read from the result.
FINISHERS = {
    "sampling.estimate_steering": lambda extra, result: extra.update(bins_kept=result.bins),
}


def _layer_modules():
    return {layer: sys.modules[f"noonsteer.{layer}"] for layer in LAYERS}


def _is_table(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def traced_targets():
    """{id(original): (original, "layer.name")} for every wrapped callable."""
    targets = {}
    for layer, module in _layer_modules().items():
        for attr, obj in vars(module).items():
            if _is_table(obj):
                owner = obj.__wrapped__.__module__
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                owner = obj.__module__
            else:
                continue
            if owner == module.__name__:
                targets[id(obj)] = (obj, f"{layer}.{attr}")
    return targets


def cache_tables() -> dict:
    """{"layer.name": lru_cache object} for every table in the package."""
    return {name: obj for obj, name in traced_targets().values() if _is_table(obj)}


def package_modules():
    return [m for name, m in sys.modules.items() if name == "noonsteer" or name.startswith("noonsteer.")]


def package_snapshot() -> dict:
    """{(module, attribute): id(object)} over every noonsteer module."""
    return {(m.__name__, attr): id(obj) for m in package_modules() for attr, obj in vars(m).items()}


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = -1

    def _wrap(self, fn, name):
        probe = PROBES.get(name)
        finish = FINISHERS.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    extra = probe(bound)
                except KeyError:
                    # the probed parameter was renamed: count nothing rather
                    # than fail the run
                    extra = None
                args, kwargs = bound.args, bound.kwargs
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if finish is not None and extra is not None:
                finish(extra, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in traced_targets().items()}
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def op_span(self, op_id: int, kind: str):
        """The root span of one op; spans opened inside carry its id."""
        self.op = op_id
        span = [f"op.{kind}", time.perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def write(self, path: str):
        """Spans as compact JSON: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "counts"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))


def _count(span, key):
    return span[5].get(key, 0) if span[5] else 0


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover (single caller, so
    children never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, cache_deltas: dict, grid_ops: dict) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    ``cache_deltas`` maps a table name to its (hits, misses) over the pass;
    ``grid_ops`` maps the op id of each fig2-shaped sweep to its row count.
    """
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    calls, self_s, nodes = {}, {}, {}
    for s, own in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + own
        nodes[s[0]] = nodes.get(s[0], 0) + _count(s, "nodes")

    def ratio(num, den):
        return num / den if den else 0.0

    def total(name, key, parent=None, ops=None):
        return sum(_count(s, key) for s in spans if s[0] == name
                   and (parent is None or (s[3] >= 0 and names[s[3]] == parent))
                   and (ops is None or s[4] in ops))

    def children(name, parent):
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and names[s[3]] == parent)

    accepted = total("sampling.sample_quadrature_pair", "accepted")
    # every wavefunction_stack call made directly by sample_quadrature_pair is
    # a proposal round, except one per shot for the x profile of the density
    direct = total("fock.wavefunction_stack", "nodes", parent="sampling.sample_quadrature_pair")

    out = {
        "cli.render_rows.self_s": self_s.get("cli.render_rows", 0.0),
        "steering.steering_functional.calls": calls.get("steering.steering_functional", 0),
        "steering.threshold_efficiency.evals_per_solve": ratio(
            children("steering.steering_functional", "steering.threshold_efficiency"),
            calls.get("steering.threshold_efficiency", 0)),
        "steering.protocol_rhs.self_s": self_s.get("steering.protocol_rhs", 0.0),
    }
    for table in TABLES:
        hits, misses = cache_deltas.get(table, (0, 0))
        out[f"{table}.misses"] = misses
        if table == "inferred.moment_integral":
            out[f"{table}.hits"] = hits
    for name in ("inferred.inferred_variance_quadrature", "inferred.density_quadrature_variance",
                 "inferred.density_abs_conditional_mean"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("lossy.conditioned_b_blocks", "quadrature.integrate", "fock.wavefunction_stack"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.nodes"] = nodes.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["quadrature.integrate.levels"] = ratio(
        total("quadrature.integrate", "levels"), calls.get("quadrature.integrate", 0))
    out["quadrature.integrate_abs.calls"] = calls.get("quadrature.integrate_abs", 0)
    out["quadrature.integrate_abs.segments"] = ratio(
        children("quadrature.integrate", "quadrature.integrate_abs"),
        calls.get("quadrature.integrate_abs", 0))
    out["quadrature.integrate_abs.self_s"] = self_s.get("quadrature.integrate_abs", 0.0)
    out["sampling.sample_quadrature_pair.self_s"] = self_s.get("sampling.sample_quadrature_pair", 0.0)
    out["sampling.acceptance"] = ratio(accepted, direct - accepted)
    out["sampling.estimator_s"] = self_s.get("sampling.estimate_steering", 0.0)
    out["sampling.bins_kept"] = ratio(total("sampling.estimate_steering", "bins_kept"),
                                      total("sampling.estimate_steering", "bins_requested"))
    out["fock.wavefunction_stack.nodes_per_point"] = ratio(
        total("fock.wavefunction_stack", "nodes", ops=grid_ops), sum(grid_ops.values()))
    return out
