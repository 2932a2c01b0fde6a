"""Self-test of the benchmark's tracer and metric list.

    python3 benchmarks/selftest.py

Checks that the deterministic counters repeat exactly when a small traced
case runs twice, that a hand-computable case gives its known count, that
uninstalling the tracer restores every patched name, and that run.py
reports exactly the metrics and units BENCHMARK.json declares.  The traced
benchmark run (``--trace 1``) runs the same checks and reports
``correct: false`` if one fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _small_case():
    import presnov as pv

    field = pv.parse_field("x1^3 + 0.3*x2; x2^3 + 0.3*x1")
    points = pv.ball_points(2, 5, 3.0, 11)
    pv.decompose_many(field, points)
    pv.gradient_potential_integral_many(field, points)
    pv.find_equilibrium(pv.ShiftedField(field, [0.5, -0.25]), 2.0)


def _declared_metrics_problems():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    produced = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    if declared == produced:
        return []
    return [f"BENCHMARK.json and run.py disagree on: {sorted(set(declared.items()) ^ set(produced.items()))}"]


def _patchable_names():
    """A sample of the names the tracer replaces, read fresh from their modules."""
    import presnov as pv
    from presnov import decomposition, fields, quadrature

    return (
        fields.VectorField.evaluate_many,
        quadrature.integrate_unit,
        decomposition.integrate_unit,
        decomposition.gradient_potential_many,
        pv.find_equilibrium,
    )


def run_selftest():
    """Returns a list of problems; empty when every check passes."""
    import presnov as pv
    from tracer import DETERMINISTIC, Tracer

    problems = _declared_metrics_problems()
    originals = _patchable_names()
    tracer = Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.reset()
            _small_case()
            runs.append(tracer.deterministic_counts())
        if runs[0] != runs[1]:
            problems.append(f"counters differ between identical runs: {runs}")
        if not all(runs[0][name] > 0 for name in DETERMINISTIC):
            problems.append(f"a counter stayed at zero on the small case: {runs[0]}")

        # One dim-2 point of catalog 'identity': the integrand t |x|^2 is
        # integrated exactly by the first three 16-node panels, so the
        # potential costs 3 x 16 = 48 leaf points in one field call.
        tracer.reset()
        pv.potential_many(pv.catalog_field("identity", 2).field, [[0.6, -0.8]])
        expected = {
            "fields.evaluate_many.calls": 1,
            "fields.evaluate_many.points": 48,
            "quadrature.integrate_unit.calls": 1,
            "quadrature.integrate_unit.nodes": 48,
            "quadrature.integrate_unit.node_components": 48,
        }
        got = {name: tracer.counts[name] for name in expected}
        if got != expected:
            problems.append(f"identity potential: expected {expected}, counted {got}")
    finally:
        tracer.uninstall()

    restored = _patchable_names()
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("uninstall left a patched name behind")
    return problems


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    problems = run_selftest()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
