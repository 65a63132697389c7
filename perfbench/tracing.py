"""Per-layer tracing by wrapping sdwave's functions for the traced run only.

`Tracer.install` replaces every public function of the layer modules, in
its defining module and in every layer module that imported the name, plus
the few methods and private helpers the per-layer metrics name, with a
wrapper that records calls, self time and size counters.  `restore` puts
the originals back; `find_wrappers` lets the untraced run prove that none
is left installed.  Nothing under src/ is edited.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MARK = "__perfbench_wrapped__"

LAYERS = ("config", "model", "dispersion", "bounds", "profile", "kernels",
          "pdesim", "reporting", "cli")

# module -> layer.  _kernels re-exports the functions of its backend module.
MODULE_LAYER = {
    "sdwave.config": "config",
    "sdwave.model": "model",
    "sdwave.dispersion": "dispersion",
    "sdwave.bounds": "bounds",
    "sdwave.profile": "profile",
    "sdwave._kernels": "kernels",
    "sdwave._kernels._ref": "kernels",
    "sdwave._kernels._core": "kernels",
    "sdwave.pdesim": "pdesim",
    "sdwave.reporting": "reporting",
    "sdwave.cli": "cli",
}

# Scalar leaves called hundreds of thousands of times per pass; a wrapper
# would cost about as much as the call, so their time stays with the caller.
UNWRAPPED = {("sdwave.dispersion", "char_value"),
             ("sdwave.reporting", "canonical_float")}


def _f64_bytes(*arrays):
    return 8 * sum(int(np.size(a)) for a in arrays)


def _exp_conv_bytes(args, kwargs, result):
    return {"bytes": _f64_bytes(args[0], result)}


def _tridiagonal_bytes(args, kwargs, result):
    return {"bytes": _f64_bytes(*args[:4], result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _bound_points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


# (module, class or None, attribute, metric name, extra counter): the methods
# and private helpers the per-layer metrics need beyond the public functions.
EXTRA_TARGETS = (
    ("sdwave.bounds", "UpperSolution", "value", "bounds.value", _bound_points),
    ("sdwave.bounds", "LowerSolution", "value", "bounds.value", _bound_points),
    ("sdwave.pdesim", "_BaseSim", "step", "pdesim.step", None),
    ("sdwave.pdesim", "DelaySim", "reaction", "pdesim.reaction", None),
    ("sdwave.pdesim", "ComparisonSim", "reaction", "pdesim.reaction", None),
    ("sdwave.pdesim", "_BaseSim", "history_values", "pdesim.history_lookup", None),
    ("sdwave.pdesim", "HistoryBuffer", "lookup_uniform", "pdesim.history_lookup", None),
    ("sdwave.cli", None, "_sweep_row", "cli.sweep_row", None),
)

COUNTERS = {"kernels.exp_conv_pair": _exp_conv_bytes,
            "kernels.solve_tridiagonal": _tridiagonal_bytes,
            "reporting.write_csv": _csv_bytes}


class Stat:
    __slots__ = ("calls", "total", "self", "thread_cpu", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.thread_cpu = 0.0
        self.counts = defaultdict(int)


def layer_modules():
    """The imported sdwave modules that make up the layers."""
    return [sys.modules[name] for name in MODULE_LAYER if name in sys.modules]


class Tracer:
    """Aggregated spans: per metric name, calls, total and self time, counters."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = time.perf_counter() - t0
                cpu = time.thread_time() - cpu0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                extra = counter(args, kwargs, result) if counter and ok else {}
                with tracer._lock:
                    st = tracer.stats[name]
                    st.calls += 1
                    st.total += dt
                    st.self += dt - child
                    st.thread_cpu += cpu
                    for key, val in extra.items():
                        st.counts[key] += val

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        """Wrap the layer functions everywhere they are bound; see module doc."""
        modules = layer_modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (callable(obj) and not inspect.isclass(obj)
                        and not attr.startswith("_")
                        and getattr(obj, "__module__", None) in MODULE_LAYER
                        and (obj.__module__, obj.__name__) not in UNWRAPPED
                        and id(obj) not in wrappers):
                    name = f"{MODULE_LAYER[obj.__module__]}.{obj.__name__}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, COUNTERS.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        for module, cls, attr, name, counter in EXTRA_TARGETS:
            owner = sys.modules.get(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue   # gone after a refactor: its metrics read 0
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_seconds(self):
        """Self time summed per layer; unwrapped code counts to its caller."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st.self
        return out


def find_wrappers():
    """Names of tracer wrappers still bound in a layer module or class."""
    found = []
    for mod in layer_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if getattr(fn, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
