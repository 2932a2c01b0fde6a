import subprocess
import sys
from pathlib import Path

import presnov as pv

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SELFTEST = BENCHMARKS / "selftest.py"


def test_benchmark_selftest_passes():
    # The benchmark's tracer patches presnov's module globals by name, so a
    # refactor of those modules can break it without breaking the library.
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_quadrature_work_matches_field_points():
    # Each potential component is one ray, evaluated at one leaf point per
    # node, so the tracer's node components must equal the field points it
    # counts.  An active set that evaluated rays outside the integrand the
    # tracer wraps would break the equality.
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCHMARKS))
    field = pv.parse_field("tanh(20*(x1-1)); x2")
    tracer = Tracer()
    tracer.install()
    try:
        pv.potential_many(field, pv.ball_points(2, 200, 3.0, 5))
    finally:
        tracer.uninstall()
    points = tracer.counts["fields.evaluate_many.points"]
    assert points > 0
    assert tracer.counts["quadrature.integrate_unit.node_components"] == points
