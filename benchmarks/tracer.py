"""Outside-in spans and counters around presnov's public entry points.

Nothing in ``src/presnov`` knows about tracing: ``Tracer.install`` swaps
each traced function for a timing wrapper in every ``presnov`` module
namespace that holds it (``decomposition.integrate_unit``, the names
``cli`` and ``equilibria`` imported, the global ``gradient_potential_many``
that ``ConservativePart`` looks up, ...), and ``Tracer.uninstall`` puts
the originals back.  The untraced benchmark run never installs a tracer.

A span's self time is its duration minus the durations of the traced
spans it called directly.  ``total_s`` counts only the outermost span of a
name, so a function that reaches itself again (``gradient_potential_many``
on a ``ConservativePart``) is not counted twice.

Field points are counted on leaf fields only (``CallableField`` and
``ExpressionField``); combinators such as ``ShiftedField`` or
``ConservativePart`` pass through untraced, so a point is counted once,
where the field formula is actually evaluated.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

SPANNED = {
    "decomposition": (
        "potential_many",
        "gradient_potential_many",
        "gradient_potential_integral_many",
        "decompose_many",
        "verify_decomposition",
    ),
    "radial": ("paired_probe", "coercivity_probe", "boundary_certificate"),
    "equilibria": ("find_equilibrium", "find_equilibrium_conservative", "perturbed_existence"),
    "cli": ("main",),
}

SOLVERS = ("equilibria.find_equilibrium", "equilibria.find_equilibrium_conservative")

_VERIFY = "decomposition.verify_decomposition"
# The two nested-quadrature checks of verify_decomposition, recognised by
# the field type they are called with directly under verify.
_VERIFY_PARTS = {
    ("decomposition.gradient_potential_many", "ConservativePart"): "decomposition.verify.idempotence_s",
    ("decomposition.potential_many", "SphereInvariantPart"): "decomposition.verify.residual_potential_s",
}

# Counters that must repeat exactly when the same jobs run again.
DETERMINISTIC = (
    "fields.evaluate_many.calls",
    "fields.evaluate_many.points",
    "quadrature.integrate_unit.calls",
    "quadrature.integrate_unit.nodes",
    "quadrature.integrate_unit.node_components",
    "equilibria.starts",
)


class Tracer:
    """Span timings and work counters for one traced phase."""

    def __init__(self):
        # Wrappers record only while active, so that the benchmark's own
        # output checks, which call presnov too, stay out of the figures.
        self.active = True
        self._stack = []  # open spans: [name, time spent in traced children]
        self._depth = defaultdict(int)
        self._undo = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.parts = defaultdict(float)

    def span(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        self._depth[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            if self._depth[name] == 0:
                self.total_s[name] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            if parent == _VERIFY and args:
                part = _VERIFY_PARTS.get((name, type(args[0]).__name__))
                if part is not None:
                    self.parts[part] += elapsed

    # -- installation ------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        from presnov import dsl, fields, quadrature

        for module_name, names in SPANNED.items():
            module = importlib.import_module(f"presnov.{module_name}")
            for name in names:
                original = getattr(module, name)
                span_name = f"{module_name}.{name}"
                wrapper = (
                    self._solver_wrapper(span_name, original)
                    if span_name in SOLVERS
                    else self._span_wrapper(span_name, original)
                )
                self._replace_everywhere(original, wrapper)
        self._replace_everywhere(quadrature.integrate_unit, self._quadrature_wrapper(quadrature.integrate_unit))

        original_evaluate = fields.VectorField.evaluate_many
        leaves = (fields.CallableField, dsl.ExpressionField)
        tracer = self

        def evaluate_many(field, points):
            if not (tracer.active and isinstance(field, leaves)):
                return original_evaluate(field, points)
            tracer.counts["fields.evaluate_many.calls"] += 1
            tracer.counts["fields.evaluate_many.points"] += len(points)
            return tracer.span("fields.evaluate_many", original_evaluate, (field, points), {})

        fields.VectorField.evaluate_many = evaluate_many
        self._undo.append((fields.VectorField, "evaluate_many", original_evaluate))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace_everywhere(self, original, wrapper):
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "presnov" and not name.startswith("presnov."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _span_wrapper(self, span_name, original):
        def wrapper(*args, **kwargs):
            return self.span(span_name, original, args, kwargs)

        return wrapper

    def _solver_wrapper(self, span_name, original):
        # Solver work is counted from the result's start count and the leaf
        # field calls made inside the span; EquilibriumResult.iterations is
        # not used because it is misreported for non-converged starts.
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            calls_before = self.counts["fields.evaluate_many.calls"]
            result = self.span(span_name, original, args, kwargs)
            self.counts["equilibria.solves"] += 1
            self.counts["equilibria.starts"] += int(result.starts_attempted)
            self.counts["equilibria.successful_solves"] += int(bool(result.success))
            self.counts["equilibria.solve_field_calls"] += (
                self.counts["fields.evaluate_many.calls"] - calls_before
            )
            return result

        return wrapper

    def _quadrature_wrapper(self, original):
        def integrate_unit(f, *args, **kwargs):
            if not self.active:
                return original(f, *args, **kwargs)

            def counted(ts):
                out = f(ts)
                components = 1 if out.ndim == 1 else out.shape[1]
                self.counts["quadrature.integrate_unit.nodes"] += len(ts)
                self.counts["quadrature.integrate_unit.node_components"] += len(ts) * components
                return out

            self.counts["quadrature.integrate_unit.calls"] += 1
            return self.span("quadrature.integrate_unit", original, (counted,) + args, kwargs)

        return integrate_unit

    # -- results -----------------------------------------------------------

    def deterministic_counts(self):
        return {name: self.counts[name] for name in DETERMINISTIC}

    def snapshot(self):
        """Every per-layer figure of the phase so far, as plain numbers."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.parts)
        out.update(self.counts)
        return out
