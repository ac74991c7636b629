"""Per-layer tracing installed from outside the program.

``install`` wraps the public functions listed in ``TRACED`` and rebinds
every module attribute of the ``fairslice`` package that holds one of them,
so a caller reaching a function through ``verify``'s own import, the
package re-export or the defining module is traced alike. Methods are
wrapped on their class. Private helpers stay unwrapped, so their time is
their caller's self time.

Each wrapper records the call and its self time: its duration minus the
time of the traced calls it made. Totals for the traced pass are kept in
memory and read out by the benchmark at the end.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, owner class or None, function) in the order they are reported.
TRACED = (
    ("measures", "StepDensity", "mass"),
    ("measures", "StepDensity", "quantile_left"),
    ("measures", "StepDensity", "density_at"),
    ("measures", "StepDensity", "median_interval"),
    ("measures", "StepDensity", "validate"),
    ("solve", None, "equal_value_solve"),
    ("solve", None, "greedy_cuts"),
    ("solve", None, "simplex_max"),
    ("solve", None, "decompose"),
    ("procedures", None, "equitability"),
    ("procedures", None, "moving_knife"),
    ("procedures", None, "surplus_divide"),
    ("procedures", None, "cut_and_choose"),
    ("verify", None, "pareto_optimal_check"),
    ("verify", None, "theorem_a_check"),
    ("verify", None, "weak_manipulation_search"),
    ("harness", None, "load_document"),
    ("harness", None, "load_allocation"),
    ("harness", None, "emit_report"),
    ("harness", None, "run_counterexample"),
    ("cli", None, "main"),
)


def _observe_equal_value(tracer, args, result):
    tracer.count("solve.equal_value_solve.feasible", result is not None)


def _observe_simplex(tracer, args, result):
    lp = args[0]
    tracer.count("solve.lp_vars_total", lp.n_vars)
    tracer.count("solve.lp_rows_total", len(lp.constraints))


def _observe_decompose(tracer, args, result):
    tracer.count("solve.decompose.cells_total", len(result.cells))


def _observe_pareto(tracer, args, result):
    tracer.count("verify.dominated", result.witness is not None)


def _observe_theorem_a(tracer, args, result):
    tracer.count("verify.enumerated_outcomes", result.details.get("enumerated_outcomes", 0))


OBSERVERS = {
    "solve.equal_value_solve": _observe_equal_value,
    "solve.simplex_max": _observe_simplex,
    "solve.decompose": _observe_decompose,
    "verify.pareto_optimal_check": _observe_pareto,
    "verify.theorem_a_check": _observe_theorem_a,
}


class Tracer:
    """Call counts, self times and counters for the current operation."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        # One entry per open span: the time its traced children took.
        self._children = [0.0]

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def measure(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._children.pop()
                self._children[-1] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @property
    def traced_s(self) -> float:
        """Time spent inside outermost traced calls since the last reset."""
        return self._children[0]


def install(tracer: Tracer) -> int:
    """Wrap every function in TRACED and rebind each of its names.

    Returns how many bindings were replaced.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "fairslice" or name.startswith("fairslice."))
    ]
    replaced = 0
    for module_name, owner, function in TRACED:
        home = sys.modules.get(f"fairslice.{module_name}")
        if home is None:  # never imported, so nothing can call it
            continue
        name = f"{module_name}.{function}"
        if owner is not None:
            cls = getattr(home, owner)
            original = cls.__dict__[function]
            setattr(cls, function, tracer.measure(name, original, OBSERVERS.get(name)))
            replaced += 1
            continue
        original = getattr(home, function)
        wrapped = tracer.measure(name, original, OBSERVERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    replaced += 1
    return replaced
