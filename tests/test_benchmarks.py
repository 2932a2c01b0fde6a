import subprocess
import sys
from pathlib import Path

import presnov as pv
from conftest import src_env
from presnov.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SELFTEST = BENCHMARKS / "selftest.py"


def _tracer():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCHMARKS))
    return Tracer()


def test_benchmark_selftest_passes():
    # The benchmark's tracer patches presnov's module globals by name, so a
    # refactor of those modules can break it without breaking the library.
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, env=src_env()
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_quadrature_work_matches_field_points():
    # Each potential component is one ray, evaluated at one leaf point per
    # node, so the tracer's node components must equal the field points it
    # counts.  An active set that evaluated rays outside the integrand the
    # tracer wraps would break the equality.
    field = pv.parse_field("tanh(20*(x1-1)); x2")
    tracer = _tracer()
    tracer.install()
    try:
        pv.potential_many(field, pv.ball_points(2, 200, 3.0, 5))
    finally:
        tracer.uninstall()
    points = tracer.counts["fields.evaluate_many.points"]
    assert points > 0
    assert tracer.counts["quadrature.integrate_unit.node_components"] == points


def test_traced_cli_decompose_runs_the_public_verifier(capsys):
    # The tracer spans public names only, so a CLI that checked its split
    # through a private helper would leave the verify metrics at 0.
    tracer = _tracer()
    tracer.install()
    try:
        code = main(["decompose", "--catalog", "identity", "--dim", "2", "--sample", "4"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.calls["decomposition.verify_decomposition"] == 1
    assert tracer.calls["decomposition.decompose_many"] == 1
