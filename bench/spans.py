"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of each conespec module
(and each name another module imported it under, as ``cone`` does with
``from .specfun import hurwitz_zeta``) by a wrapper that records a span
(id, name, start, end, parent, failed).  The ``quad`` names that ``mellin``
and ``specfun`` bind from scipy are wrapped too, counting calls, integrand
evaluations and IntegrationWarnings.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import threading
import time
import warnings

LAYERS = ("specfun", "expansions", "mellin", "sal", "cone", "deficiency", "cli")
CLI_COMMANDS = ("zeta-lp", "zeta-op", "eta", "heat-trace", "deficiency", "sal-expand", "verify")
QUAD_LAYERS = ("mellin", "specfun")

# Functions whose own numbers later changes are expected to move (see
# BENCHMARK.json for which end-to-end metric each should move).
FUNCTION_METRICS = (
    "specfun.hurwitz_zeta.calls", "specfun.hurwitz_zeta.self_s", "specfun.bernoulli.calls",
    "specfun.bessel_i_scaled.calls", "specfun.bessel_i_scaled.self_s",
    "specfun.log_gamma.calls", "specfun.log_gamma.self_s",
    "cone.zeta_hat_lp.calls", "cone.k_trace_operator.self_s",
    "cone.scalar_interior_coefficients.self_s",
    "mellin.regularized_integral.self_s", "sal.expand_phi_tx.self_s",
    "specfun.hankel_transform.self_s",
    "cone.zeta_hat_operator.self_s", "cone.eta_function_scalable.self_s",
    "specfun.gamma_ratio_expansion.self_s",
)


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "busy_s", "self_s", "errors")]
    names += list(FUNCTION_METRICS)
    names += ["mellin.quad.calls", "mellin.quad.evals", "mellin.quad.warnings",
              "mellin.quad.clean_ratio", "specfun.hankel.panels"]
    names += ["cli.startup_s", "cli.import.scipy_integrate_s"]
    names += [f"cli.main.{c}.self_s" for c in CLI_COMMANDS]
    names.append("trace_overhead")
    return names


def unit(name: str) -> str:
    if name == "trace_overhead" or name.endswith("clean_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.spans: list = []
        self.quad = {layer: {"calls": 0, "evals": 0, "warnings": 0, "clean": 0}
                     for layer in QUAD_LAYERS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._wrappers = self._build_wrappers()

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, failed))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_main(self, fn):
        @functools.wraps(fn)
        def traced(argv=None):
            command = argv[0] if argv else "none"
            return self._call(f"cli.main.{command}", fn, (argv,), {})
        return traced

    def _wrap_quad(self, layer: str, quad):
        from scipy.integrate import IntegrationWarning

        stats = self.quad[layer]

        def traced(func, a, b, *args, **kwargs):
            def counted(*x):
                stats["evals"] += 1
                return func(*x)

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                out = self._call(f"{layer}.quad", quad, (counted, a, b) + args, kwargs)
            n = sum(issubclass(w.category, IntegrationWarning) for w in caught)
            stats["calls"] += 1
            stats["warnings"] += n
            stats["clean"] += n == 0
            return out

        return traced

    def _build_wrappers(self) -> dict:
        """id(original) -> (original, wrapper) for every public function."""
        out = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap_main(obj) if (layer, name) == ("cli", "main") \
                    else self._wrap(f"{layer}.{name}", obj)
                out[id(obj)] = (obj, wrapper)
        return out

    def install(self) -> None:
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        for layer in QUAD_LAYERS:
            mod = self.modules[layer]
            self._patch(mod, "quad", self._wrap_quad(layer, mod.quad))

    def _patch(self, mod, name: str, new) -> None:
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self) -> None:
        while self._patches:
            mod, name, old = self._patches.pop()
            setattr(mod, name, old)

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers from the recorded spans.

        A span's self time is its duration minus its children's; a layer is
        busy for the duration of each span with no ancestor in that layer.
        """
        child = {}
        for sid, _name, start, end, parent, _failed in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out = {name: 0.0 for name in per_layer_names()}
        chains = {0: frozenset()}
        for sid, name, start, end, parent, failed in sorted(self.spans):
            layer = name.split(".", 1)[0]
            above = chains.get(parent, frozenset())
            chains[sid] = above | {layer}
            dur = end - start
            own = dur - child.get(sid, 0.0)
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            if layer not in above:
                out[f"{layer}.busy_s"] += dur
                out[f"{layer}.errors"] += failed
            for key, value in ((f"{name}.calls", 1), (f"{name}.self_s", own)):
                if key in out:
                    out[key] += value
        m = self.quad["mellin"]
        out["mellin.quad.calls"] = m["calls"]
        out["mellin.quad.evals"] = m["evals"]
        out["mellin.quad.warnings"] = m["warnings"]
        # no calls wastes nothing: the ratio of clean calls is then 1
        out["mellin.quad.clean_ratio"] = m["clean"] / m["calls"] if m["calls"] else 1.0
        out["specfun.hankel.panels"] = self.quad["specfun"]["calls"]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tfailed\n")
            for sid, name, start, end, parent, failed in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{int(failed)}\n")
