"""Layer spans and work counters for the benchmark's traced runs.

The tracer wraps the public module-level functions of each triphoton
layer from outside the package: it swaps every reference to such a
function, in every triphoton module namespace, for a wrapper that
records a span. Nothing under ``src/`` changes, and ``uninstall``
restores the original references, so untraced iterations run the
unmodified program.

A span is opened only where a call crosses from one category into
another; a call that stays inside the open span's category (for
example ``terms_to_matrix`` calling ``build_operator``) is part of that
span. A category's self time is its spans' durations minus the time
their child spans cover. The root span of every traced iteration is
``bench`` (the harness itself), so the self times of all categories sum
exactly to the traced iteration's wall time.

Work counters are taken at the same boundaries: ``rhs_evals`` where
``dynamics`` calls scipy's ``solve_ivp`` and the objective evaluations
where ``witnesses`` calls scipy's ``minimize``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "scenarios", "circuit", "rwa", "hilbert", "dynamics",
          "witnesses", "serialize")

# Category of a layer's functions, where the layer is split further.
_SPLIT = {
    "hilbert": {
        "terms_to_matrix": "hilbert.build",
        "build_operator": "hilbert.build",
        "expect_monomial": "hilbert.moment",
        "expectation": "hilbert.moment",
        "covariance_matrix": "hilbert.moment",
        "partial_trace": "hilbert.partial_trace",
    },
    "witnesses": {
        "optimize_vlf": "witnesses.vlf",
        "vlf_witness": "witnesses.vlf",
        "negativity": "witnesses.negativity",
        "qubit_bipartition_negativities": "witnesses.negativity",
    },
}
_DEFAULT = {"hilbert": "hilbert.other", "witnesses": "witnesses.moment",
            "dynamics": "dynamics.evolve", "serialize": "serialize.write"}
# Inner kernel of the VLF objective (~10^4 calls per optimize_vlf): a
# span there would measure the tracer, not the layer.
_UNWRAPPED = {("witnesses", "vlf_value")}

CATEGORIES = ("bench", "cli", "scenarios", "circuit", "rwa", "hilbert.build",
              "hilbert.moment", "hilbert.partial_trace", "hilbert.other",
              "dynamics.evolve", "witnesses.vlf", "witnesses.moment",
              "witnesses.negativity", "serialize.write")

# A restart "reaches" the reported best when its value is this close to
# it, relative to max(1, |best|).
RESTART_MATCH_TOL = 1e-9


def _category(layer: str, name: str) -> str:
    if layer in _SPLIT and name in _SPLIT[layer]:
        return _SPLIT[layer][name]
    return _DEFAULT.get(layer, layer)


def _register_dim(obj) -> int:
    """Register dimension of a layout or state argument, else 0."""
    dim = getattr(getattr(obj, "layout", obj), "total_dim", 0)
    return dim if isinstance(dim, int) else 0


class Tracer:
    """Spans and counters for one traced iteration at a time."""

    def __init__(self):
        self._layers = {layer: importlib.import_module(f"triphoton.{layer}")
                        for layer in LAYERS}
        # every namespace that can hold a reference to a layer function
        self._namespaces = [importlib.import_module("triphoton"),
                            importlib.import_module("triphoton.config"),
                            *self._layers.values()]
        self._patches: list[tuple[object, str, object]] = []
        self.label = ""
        self.reset()

    # -- per-iteration state -------------------------------------------
    def reset(self):
        self.stack: list[list] = []  # open spans: [category, child_time]
        self.self_s = {c: 0.0 for c in CATEGORIES}
        self.calls = {c: 0 for c in CATEGORIES}
        self.counters = {"rhs_evals": 0, "grid_points": 0, "max_dim": 0,
                         "norm_drift": 0.0, "objective_evals": 0,
                         "restarts": 0, "restarts_at_best": 0,
                         "rwa_terms": 0, "bytes": 0}
        self.vlf_best: dict[str, float] = {}  # per command label
        self._restart_values: list[float] = []
        self._point_of: dict[int, tuple[object, int]] = {}
        self._point_ms: dict[int, float] = {}
        self._n_points = 0

    def point_latencies_ms(self) -> list[float]:
        return list(self._point_ms.values())

    # -- spans -----------------------------------------------------------
    def span(self, category: str, fn, *args, **kwargs):
        stack = self.stack
        if stack and stack[-1][0] == category:
            return fn(*args, **kwargs)
        frame = [category, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.self_s[category] += elapsed - frame[1]
            self.calls[category] += 1
            if stack:
                stack[-1][1] += elapsed
        self._observe(category, fn.__name__, args, kwargs, result, elapsed)
        return result

    def _observe(self, category, name, args, kwargs, result, elapsed):
        counters = self.counters
        if category.startswith("hilbert."):
            dims = [_register_dim(a) for a in args[:2]]
            counters["max_dim"] = max([counters["max_dim"]] + dims)
            if name == "partial_trace" and args:
                self._map_point(result, args[0])
        elif name == "evolve":
            # a new trajectory: earlier states are no longer witnessed
            self._point_of.clear()
            counters["grid_points"] += len(result.times)
            norm = result.observables.get("norm")
            if norm is not None and len(norm):
                drift = float(max(abs(float(v) - 1.0) for v in norm))
                counters["norm_drift"] = max(counters["norm_drift"], drift)
            for state in result.states:
                self._point_of[id(state)] = (state, self._n_points)
                self._n_points += 1
        elif category.startswith("witnesses."):
            key = self._point_key(args[0]) if args else None
            if key is not None:
                self._point_ms[key] = self._point_ms.get(key, 0.0) \
                    + 1e3 * elapsed
            if name == "optimize_vlf":
                self._close_vlf(result.value)
        elif name == "atomic_write_text":
            text = args[1] if len(args) > 1 else kwargs.get("text", "")
            counters["bytes"] += len(text.encode())
        elif name in ("classify_terms", "rwa_reduce"):
            terms = args[0] if args else kwargs.get("terms", ())
            counters["rwa_terms"] += len(terms)

    def _point_key(self, state):
        entry = self._point_of.get(id(state))
        if entry is not None and entry[0] is state:
            return entry[1]
        return None

    def _map_point(self, reduced, source):
        key = self._point_key(source)
        if key is not None:
            self._point_of[id(reduced)] = (reduced, key)

    def _close_vlf(self, best: float):
        tol = RESTART_MATCH_TOL * max(1.0, abs(best))
        values = self._restart_values
        self.counters["restarts"] += len(values)
        self.counters["restarts_at_best"] += sum(v >= best - tol
                                                 for v in values)
        self._restart_values = []
        prev = self.vlf_best.get(self.label)
        self.vlf_best[self.label] = best if prev is None else max(prev, best)

    # -- scipy boundary counters -----------------------------------------
    def _solve_ivp(self, original):
        @functools.wraps(original)
        def solve_ivp(*args, **kwargs):
            sol = original(*args, **kwargs)
            self.counters["rhs_evals"] += int(sol.nfev)
            return sol
        return solve_ivp

    def _minimize(self, original):
        @functools.wraps(original)
        def minimize(*args, **kwargs):
            res = original(*args, **kwargs)
            self.counters["objective_evals"] += int(res.nfev)
            self._restart_values.append(-float(res.fun))
            return res
        return minimize

    # -- install / uninstall ---------------------------------------------
    def _wrapper(self, category, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(category, fn, *args, **kwargs)
        return traced

    def install(self):
        if self._patches:
            return
        replace: dict[int, object] = {}
        for layer, module in self._layers.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (layer, name) in _UNWRAPPED):
                    continue
                replace[id(fn)] = self._wrapper(_category(layer, name), fn)
        boundary = {(self._layers["dynamics"], "solve_ivp"): self._solve_ivp,
                    (self._layers["witnesses"], "minimize"): self._minimize}
        for module in self._namespaces:
            for name, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is None and (module, name) in boundary:
                    wrapper = boundary[(module, name)](value)
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []
