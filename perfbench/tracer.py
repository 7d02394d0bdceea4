"""Outside-in span recorder for qflow's layers.

Wraps each layer's public functions from outside the package.  qflow's
modules import each other's names with ``from .x import name``, so wrapping
only the defining module would miss every call made through another
module's binding; `Tracer.install` therefore rebinds the wrapper in every
loaded ``qflow`` module that holds the original function.

Spans (name, start, end, parent) are appended to flat arrays in memory and
written out once, by `Tracer.save`, after the traced execution.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# Wrapped public functions, by layer module.  Span names are
# "<layer>.<function>", except checks, which drop the "check_" prefix.
LAYER_FUNCTIONS = {
    "qspace": ("optimal_matching", "ascending_projection"),
    "grid": ("dirichlet_energy", "l2_distance_sq", "write_snapshot_csv",
             "build_domain"),
    "morseflow": ("run_flow", "minimize_step", "evaluate_at_time"),
    "oracle": ("brute_force_step", "implicit_euler_chain"),
    "cli": ("main",),
}

ROOT_SPAN = "workload"


def _span_name(layer: str, func: str) -> str:
    if layer == "checks":
        return "checks." + func[len("check_"):]
    return f"{layer}.{func}"


class Tracer:
    """Records nested spans and the exact counts read off layer results."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore = []
        self.rebound = {}
        self.counts = {
            "outer_iterations": 0,
            "accepted_outer": 0,
            "nonconverged_steps": 0,
            "checks_failed": 0,
            "snapshot_bytes": 0,
        }

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span: str, fn, on_return=None):
        """A wrapper recording one span per call of fn.  on_return, if
        given, sees (result, args, kwargs) after the span has closed."""
        nid = self._id(span)
        stack, clock = self._stack, time.perf_counter
        name, parent, start, end = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    # --- result hooks: exact counts read where the work happens ---------

    def _on_step(self, result, args, kwargs):
        report = result[1]
        c = self.counts
        c["outer_iterations"] += report.outer_iterations
        c["accepted_outer"] += len(report.objective_trace) - 1
        c["nonconverged_steps"] += not report.converged

    def _on_check(self, result, args, kwargs):
        self.counts["checks_failed"] += not (result.passed and result.margin >= 0)

    def _on_snapshot(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["snapshot_bytes"] += os.path.getsize(path)

    # --- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer function and rebind it wherever qflow holds it."""
        import qflow
        import qflow.checks

        hooks = {
            "morseflow.minimize_step": self._on_step,
            "grid.write_snapshot_csv": self._on_snapshot,
        }
        targets = [(layer, fn) for layer, fns in LAYER_FUNCTIONS.items()
                   for fn in fns]
        targets += [("checks", "check_" + n) for n in qflow.checks.CHECK_NAMES]
        modules = [m for key, m in sys.modules.items()
                   if key == "qflow" or key.startswith("qflow.")]
        for layer, func in targets:
            span = _span_name(layer, func)
            original = getattr(sys.modules["qflow." + layer], func)
            hook = self._on_check if layer == "checks" else hooks.get(span)
            wrapped = self.wrap(span, original, hook)
            holders = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))
                        holders.append(mod.__name__)
            self.rebound[span] = sorted(holders)

        # Constructions of the grid function class, wherever they happen.
        cls = qflow.grid.QGridFunction
        post_init = cls.__post_init__
        cls.__post_init__ = self.wrap("grid.QGridFunction", post_init)
        self._restore.append((cls, "__post_init__", post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def root(self, fn):
        """Run fn under the root span of one execution."""
        return self.wrap(ROOT_SPAN, fn)()

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def span_table(spans) -> dict:
    """Per span name: calls, inclusive durations and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so that is the time no child covers."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_s = dur - covered
    calls = np.bincount(name, minlength=len(names))
    self_sum = np.bincount(name, weights=self_s, minlength=len(names))
    return {
        n: {"calls": int(calls[i]), "self_s": float(self_sum[i]),
            "durations": dur[name == i]}
        for i, n in enumerate(names)
    }
