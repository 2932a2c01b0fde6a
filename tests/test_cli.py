import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import presnov as pv
from conftest import src_env
from presnov.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def canonical(report):
    report = dict(report)
    report.pop("timing", None)
    return json.dumps(report, indent=2, sort_keys=True)


def test_decompose_catalog_sample(capsys):
    code, report, err = run_cli(
        capsys, "decompose", "--catalog", "identity", "--dim", "3",
        "--sample", "10", "--seed", "1",
    )
    assert code == 0
    assert report["report_version"] == 1
    samples = report["payload"]["samples"]
    assert len(samples) == 10
    worst = max(max(abs(v) for v in s["sphere_invariant"]) for s in samples)
    assert worst <= 1e-8
    assert report["payload"]["verification"]["passed"] is True
    assert "PASS" in err


def test_decompose_expression_at_point(capsys):
    code, report, _ = run_cli(capsys, "decompose", "--expr", "-x2; x1", "--at", "1,0")
    assert code == 0
    (sample,) = report["payload"]["samples"]
    assert sample["potential"] == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(sample["sphere_invariant"], [0.0, 1.0], atol=1e-9)


def test_decompose_at_origin(capsys):
    code, report, _ = run_cli(capsys, "decompose", "--expr", "x1 + 1; x2", "--at", "0,0")
    assert code == 0
    (sample,) = report["payload"]["samples"]
    assert np.allclose(sample["conservative"], [1.0, 0.0], atol=1e-9)


def test_decompose_identity_at_radius_ten(capsys):
    code, report, _ = run_cli(
        capsys, "decompose", "--catalog", "identity", "--dim", "3",
        "--sample", "40", "--sample-radius", "10", "--seed", "1",
    )
    assert code == 0
    assert report["payload"]["verification"]["passed"] is True


def test_identity_violation_exit_code_still_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "decompose", "--catalog", "identity", "--dim", "3",
        "--sample", "10", "--sample-radius", "10", "--seed", "1",
        "--threshold", "1e-14", "--out", str(out),
    ])
    assert "FAIL" in capsys.readouterr().err
    assert code == 4
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["payload"]["verification"]["passed"] is False
    assert len(report["payload"]["samples"]) == 10


def test_decompose_hand_potential(capsys):
    code, report, _ = run_cli(capsys, "decompose", "--expr", "x1^2; x2", "--at", "1,1")
    assert code == 0
    (sample,) = report["payload"]["samples"]
    assert sample["potential"] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_decompose_points_file_and_out(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("0.5,0.5\n-1.0,0.25\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main([
        "decompose", "--catalog", "rotation2d", "--points-file", str(points),
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert len(report["payload"]["samples"]) == 2


def test_field_file_source(tmp_path, capsys):
    src = tmp_path / "field.txt"
    src.write_text("x1^2; x2\n", encoding="utf-8")
    code, report, _ = run_cli(capsys, "decompose", "--field-file", str(src), "--at", "1,1")
    assert code == 0
    assert report["field"]["source"]["kind"] == "file"


def test_parse_error_exit_code(capsys):
    code, report, err = run_cli(capsys, "decompose", "--expr", "x1 +; x2", "--at", "1,1")
    assert code == 2
    assert report is None
    assert "error" in err


def test_unknown_catalog_exit_code(capsys):
    code, _, _ = run_cli(capsys, "decompose", "--catalog", "nope", "--dim", "2",
                         "--at", "1,1")
    assert code == 2


def test_arity_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "decompose", "--expr", "x1; x2; x3", "--dim", "2",
                         "--at", "1,1")
    assert code == 2


def test_numeric_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "decompose", "--expr", "1/x1; x2", "--at", "0,1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--catalog", "linear", "--matrix", "2,1,-1,3", "--sample-radius", "1e308",
         "--sample", "1"],
        ["decompose", "--expr", "x1^3; x2", "--sample-radius", "1e200", "--sample", "1"],
        # Newton's merit gradient J^T X overflows at the first start.
        ["equilibria", "--expr", "1e200*x1 + 1e200; x2", "--radius", "3", "--allow-uncertified"],
        ["equilibria", "--expr", "1e160*x1^3 + 1e150; x2", "--radius", "3",
         "--allow-uncertified"],
    ],
)
def test_overflow_is_one_error_line(argv):
    # Overflow inside numpy must not print a RuntimeWarning ahead of the
    # error line; the non-finite result is the error.
    done = subprocess.run(
        [sys.executable, "-m", "presnov", *argv],
        capture_output=True, text=True, env=src_env(),
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_verification_of_a_huge_field_is_finite_standard_json(capsys):
    # |X| = 1e300 is finite, so the verification norms must be too: norms
    # that square the entries made max_idempotence inf/inf = NaN, which
    # passed and was written as the non-standard JSON token NaN.
    code = main(["decompose", "--expr", "1e300*x1; x2", "--at", "1,1"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out, parse_constant=lambda token: pytest.fail(token))
    verification = report["payload"]["verification"]
    assert verification["passed"] is True
    for key in ("max_orthogonality", "max_radial_equality", "max_idempotence",
                "max_residual_potential"):
        assert 0.0 <= verification[key] <= 1e-10
    assert "verification PASS" in captured.err


def test_equilibria_of_a_field_with_sqrt_at_the_origin(capsys):
    # The first Newton start is the origin, where sqrt(norm2) has an
    # infinite local derivative but the field's Jacobian is finite.
    code, report, err = run_cli(
        capsys, "equilibria", "--expr", "x1*sqrt(norm2) + 1; x2*sqrt(norm2)", "--radius", "3",
    )
    assert code == 0, err
    result = report["payload"]["field_equilibrium"]
    assert result["success"] and np.allclose(result["point"], [-1.0, 0.0], atol=1e-12)


def test_coercivity_identity(capsys):
    code, report, _ = run_cli(capsys, "coercivity", "--catalog", "identity", "--dim", "2",
                              "--radius-count", "8", "--directions", "64")
    assert code == 0
    payload = report["payload"]
    assert payload["field_probe"]["verdict"] == "empirically-coercive"
    assert payload["conservative_probe"]["verdict"] == "empirically-coercive"
    assert payload["verdicts_agree"] is True
    assert payload["max_profile_discrepancy"] <= 1e-6


def test_coercivity_rotation(capsys):
    code, report, _ = run_cli(capsys, "coercivity", "--catalog", "rotation2d",
                              "--radius-count", "8", "--directions", "64")
    assert code == 0
    assert report["payload"]["field_probe"]["verdict"] == "not-coercive-witness"
    assert "witness" in report["payload"]["field_probe"]


def test_coercivity_singular_linear(capsys):
    code, report, _ = run_cli(capsys, "coercivity", "--catalog", "linear",
                              "--matrix", "1,2,0,1", "--radius-count", "8")
    assert code == 0
    assert report["payload"]["field_probe"]["verdict"] == "not-coercive-witness"
    assert report["payload"]["conservative_probe"]["verdict"] == "not-coercive-witness"


def test_equilibria_radius(capsys):
    code, report, _ = run_cli(capsys, "equilibria", "--catalog", "identity", "--dim", "2",
                              "--radius", "1")
    assert code == 0
    payload = report["payload"]
    assert payload["certificate"]["passed"] is True
    assert np.allclose(payload["field_equilibrium"]["point"], [0.0, 0.0], atol=1e-9)
    assert np.allclose(payload["conservative_equilibrium"]["point"], [0.0, 0.0], atol=1e-9)


def test_equilibria_certificate_failure_exit_code(capsys):
    code, report, err = run_cli(capsys, "equilibria", "--catalog", "rotation2d",
                                "--radius", "1")
    assert code == 5
    assert report["payload"]["certificate"]["passed"] is False


def test_equilibria_override_failure_is_numeric_exit(capsys):
    code, report, _ = run_cli(capsys, "equilibria", "--catalog", "constant",
                              "--vector", "1,0", "--radius", "1", "--allow-uncertified")
    assert code == 3
    assert report["payload"]["field_equilibrium"]["success"] is False


def test_equilibria_override_failure_of_a_constant_expression_is_numeric_exit(capsys):
    # A constant's table of grad H has an empty derivative: the exact Hessian is 0.
    code, report, _ = run_cli(capsys, "equilibria", "--expr", "1; 2", "--radius", "1",
                              "--allow-uncertified")
    assert code == 3
    assert report["payload"]["conservative_equilibrium"]["success"] is False


def test_equilibria_perturb_workflow(capsys):
    code, report, _ = run_cli(capsys, "equilibria", "--catalog", "identity", "--dim", "2",
                              "--perturb", "3,-4")
    assert code == 0
    payload = report["payload"]
    assert payload["rho"] == 8.0
    assert np.allclose(payload["field_equilibrium"]["point"], [-3.0, 4.0], atol=1e-8)
    assert np.allclose(payload["conservative_equilibrium"]["point"], [-3.0, 4.0], atol=1e-8)


def test_equilibria_perturb_rotation_fails_with_certificate_exit(capsys):
    code, report, err = run_cli(capsys, "equilibria", "--catalog", "rotation2d",
                                "--perturb", "1,0", "--max-radius-exponent", "8")
    assert code == 5
    assert report is None
    assert "not-coercive" in err


def test_shift_flag(capsys):
    code, report, _ = run_cli(capsys, "equilibria", "--catalog", "identity", "--dim", "2",
                              "--shift", "3,-4", "--radius", "6")
    assert code == 0
    assert np.allclose(report["payload"]["field_equilibrium"]["point"], [-3.0, 4.0],
                       atol=1e-8)
    assert report["field"]["source"]["kind"] == "shift"


@pytest.mark.parametrize(
    "argv",
    [
        ["coercivity", "--catalog", "identity", "--dim", "2", "--radius-count", "1"],
        ["coercivity", "--catalog", "identity", "--dim", "2", "--directions", "0"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--quad-order", "1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--abs-tol", "0"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--max-subdivisions", "0"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--seed", "-1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--sample", "0"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--points-file", "{dir}"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--points-file", "{ragged}"],
        ["decompose", "--field-file", "{dir}", "--at", "1,1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "-1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1",
         "--multistart", "-1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1",
         "--max-iterations", "0"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1",
         "--cert-samples", "0"],
        ["decompose", "--expr", "x1; x2", "--at", "1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--points-file", "{column}"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--shift", "1", "--at", "1,1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--sample-radius", "-1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--quad-order", "100000000"],
        ["decompose", "--catalog", "gradient_poly", "--dim", "2", "--coeffs", "1,2;3"],
        ["decompose", "--catalog", "constant", "--vector", "1,0", "--rel-tol", "inf"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "inf,1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "inf"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "1,1",
         "--max-radius-exponent", "-1"],
        ["equilibria", "--catalog", "rotation2d", "--perturb", "1,1",
         "--max-radius-exponent", "2000"],
        ["equilibria", "--catalog", "constant", "--vector", "1,0", "--radius", "1",
         "--allow-uncertified", "--solver-tol", "inf"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--threshold", "inf"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--threshold", "nan"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--threshold", "-1"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1",
         "--cert-threshold", "nan"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "1,1",
         "--margin-fraction", "nan"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "1,1",
         "--margin-fraction", "-1"],
        ["coercivity", "--catalog", "identity", "--dim", "2", "--growth-floor", "nan",
         "--radius-count", "4", "--directions", "8"],
        ["coercivity", "--catalog", "identity", "--dim", "2", "--initial-radius", "inf"],
        ["coercivity", "--catalog", "identity", "--dim", "2", "--radius-factor", "inf"],
        ["decompose", "--field-file", "{latin1}", "--at", "1"],
        ["decompose", "--catalog", "identity", "--dim", "2", "--points-file", "{latin1}"],
        ["decompose", "--expr", "+".join(["x1"] * 3000) + "; x2", "--at", "1,0"],
    ],
)
def test_bad_flag_values_are_usage_errors(argv, tmp_path, capsys):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    column = tmp_path / "column.txt"
    column.write_text("1\n2\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"x1\xff\n")
    argv = [arg.format(dir=tmp_path, ragged=ragged, column=column, latin1=latin1) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# One row per bad setting: its owner in the library, called on a field that
# counts its evaluations, and the CLI flags that reach the same owner.
_NAN, _INF = float("nan"), float("inf")
_BAD_SETTINGS = {
    "quadrature order": (
        lambda f: pv.QuadratureConfig(order=1),
        ["decompose", "--quad-order", "1"]),
    "solver tolerance": (
        lambda f: pv.SolverConfig(residual_tol=_INF),
        ["equilibria", "--radius", "1", "--solver-tol", "inf"]),
    "solver seed": (
        lambda f: pv.SolverConfig(seed=-1),
        ["equilibria", "--radius", "1", "--seed", "-1"]),
    "probe seed": (
        lambda f: pv.ProbeConfig(seed=-1),
        ["coercivity", "--seed", "-1"]),
    "growth floor": (
        lambda f: pv.ProbeConfig(growth_floor_factor=_NAN),
        ["coercivity", "--growth-floor", "nan"]),
    "initial radius": (
        lambda f: pv.ProbeConfig(initial_radius=_INF),
        ["coercivity", "--initial-radius", "inf"]),
    "radius schedule overflows": (
        lambda f: pv.ProbeConfig(radius_factor=1e308, radius_count=3),
        ["coercivity", "--radius-factor", "1e308", "--radius-count", "3"]),
    "verify threshold": (
        lambda f: pv.verify_decomposition(f, [[1.0, 0.5]], threshold=_INF),
        ["decompose", "--threshold", "inf"]),
    "no points": (
        lambda f: pv.verify_decomposition(f, np.zeros((0, 2))),
        ["decompose", "--points-file", "{empty}"]),
    "sample count": (
        lambda f: pv.ball_points(2, 0, 1.0),
        ["decompose", "--sample", "0"]),
    "sample radius": (
        lambda f: pv.ball_points(2, 3, -1.0),
        ["decompose", "--sample-radius", "-1"]),
    "infinite sample radius": (
        lambda f: pv.ball_points(2, 1, _INF),
        ["decompose", "--sample-radius", "inf"]),
    "sample seed": (
        lambda f: pv.ball_points(2, 3, 1.0, seed=-1),
        ["decompose", "--seed", "-1"]),
    "certificate radius": (
        lambda f: pv.boundary_certificate(f, _INF),
        ["equilibria", "--radius", "inf"]),
    "certificate samples": (
        lambda f: pv.boundary_certificate(f, 1.0, samples=0),
        ["equilibria", "--radius", "1", "--cert-samples", "0"]),
    "certificate threshold": (
        lambda f: pv.boundary_certificate(f, 1.0, threshold=_NAN),
        ["equilibria", "--radius", "1", "--cert-threshold", "nan"]),
    "margin fraction": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], margin_fraction=_NAN),
        ["equilibria", "--perturb", "1,1", "--margin-fraction", "nan"]),
    "negative margin fraction": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], margin_fraction=-1.0),
        ["equilibria", "--perturb", "1,1", "--margin-fraction", "-1"]),
    "radius exponent": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], max_radius_exponent=-1),
        ["equilibria", "--perturb", "1,1", "--max-radius-exponent", "-1"]),
    "radius exponent overflows": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], max_radius_exponent=1024),
        ["equilibria", "--perturb", "1,1", "--max-radius-exponent", "1024"]),
    "perturbation samples": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], certificate_samples=0),
        ["equilibria", "--perturb", "1,1", "--cert-samples", "0"]),
    "perturbation threshold": (
        lambda f: pv.perturbed_existence(f, [1.0, 1.0], threshold=_INF),
        ["equilibria", "--perturb", "1,1", "--cert-threshold", "inf"]),
}


@pytest.mark.parametrize("owner, flags", _BAD_SETTINGS.values(), ids=_BAD_SETTINGS)
def test_bad_settings_fail_alike_in_library_and_cli(owner, flags, tmp_path, capsys):
    evaluated = []

    def identity(points):
        evaluated.append(len(points))
        return points

    with pytest.raises(pv.ConfigError):
        owner(pv.CallableField(2, identity))
    assert evaluated == []

    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    command, *rest = flags
    argv = [command, "--catalog", "identity", "--dim", "2"]
    argv += [arg.format(empty=empty) for arg in rest]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    code = main(["decompose", "--catalog", "identity", "--dim", "2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_usage_error_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "decompose", "--catalog", "identity", "--expr", "x1",
                           "--at", "1")
    assert code == 2
    assert "exactly one" in err


def test_reports_reproducible_in_process(capsys):
    args = ["coercivity", "--catalog", "gradient_poly", "--dim", "2",
            "--radius-count", "8", "--directions", "64", "--seed", "3"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert canonical(first) == canonical(second)


def test_main_keeps_no_flags_between_calls(capsys):
    # main reuses one parser per process: a flag of one call must not
    # reach the next.
    plain = ["decompose", "--catalog", "identity", "--dim", "2", "--sample", "4"]
    tuned = ["decompose", "--expr", "x1^3 + 0.3*x2; x2^3 + 0.3*x1", "--shift", "0.5,0",
             "--sample", "6", "--sample-radius", "3", "--seed", "9", "--quad-order", "20",
             "--abs-tol", "1e-11", "--rel-tol", "1e-11", "--max-subdivisions", "1000",
             "--threshold", "1e-5"]
    reports = [run_cli(capsys, *argv)[1] for argv in (plain, tuned, plain)]
    child = subprocess.run([sys.executable, "-m", "presnov", *plain],
                           capture_output=True, text=True, env=src_env())
    assert child.returncode == 0
    first, second, third = map(canonical, reports)
    assert first == third == canonical(json.loads(child.stdout))
    assert second != first


def test_console_entry_point_subprocess():
    cmd = [sys.executable, "-m", "presnov", "decompose", "--catalog", "identity",
           "--dim", "2", "--sample", "4", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=src_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=src_env())
    assert first.returncode == 0 and second.returncode == 0
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    assert canonical(a) == canonical(b)


def key_paths(node, prefix=""):
    """Dotted paths of every key of a report; list items add "[]"."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(value, path)
    elif isinstance(node, list):
        for item in node:
            paths |= key_paths(item, prefix + "[]")
    return paths


def _object(path, *keys):
    return {path} | {f"{path}.{key}" for key in keys}


_BASE = (
    {"report_version", "command", "warnings", "payload", "field.source.kind"}
    | _object("tool", "name", "version")
    | _object("field", "label", "dimension", "source")
    | _object("config", "seed", "quadrature")
    | _object("config.quadrature", "order", "abs_tol", "rel_tol", "max_subdivisions")
)
_CATALOG = {"field.source.name", "field.source.parameters"}
_PROBE_CONFIG = _object(
    "config.probe", "initial_radius", "radius_factor", "radius_count", "directions", "seed",
    "growth_floor_factor",
)
_PROBE = ("field", "radii", "min_per_radius", "profiles", "verdict", "note")
_WITNESS = ("kind", "direction", "radii", "profile", "point")
_PAIRED = {"payload.max_profile_discrepancy", "payload.max_profile_discrepancy_absolute",
           "payload.verdicts_agree"}
_SOLVER_CONFIG = (
    _object("config", "solver", "certificate_samples", "certificate_threshold")
    | _object("config.solver", "residual_tol", "max_iterations", "multistart", "seed")
)
_CERTIFICATE = _object(
    "payload.certificate", "radius", "sample_count", "min_radial", "threshold", "margin",
    "passed", "seed", "note", "conservative_min_radial", "conservative_discrepancy",
)
_EQUILIBRIUM = ("point", "residual", "success", "target", "ball_radius", "inside_ball",
                "starts_attempted", "iterations", "degenerate", "certificate_overridden",
                "warnings")
_SOLVED = (
    _object("payload.field_equilibrium", *_EQUILIBRIUM)
    | _object("payload.conservative_equilibrium", *_EQUILIBRIUM, "minimizer_check")
)
_EQUILIBRIA = _BASE | _CATALOG | _SOLVER_CONFIG | _CERTIFICATE

# One run per report branch: (argv, exit code, key paths without "timing").
_SCHEMAS = {
    "decompose": (
        ["decompose", "--expr", "x1^3+0.3*x2;x2^3-0.3*x1", "--sample", "2"],
        0,
        _BASE | {"field.source.text", "config.threshold", "payload.samples"}
        | _object("config.points", "kind", "count", "radius", "seed")
        | {f"payload.samples[].{key}" for key in (
            "point", "potential", "potential_error", "conservative", "sphere_invariant",
            "orthogonality_residual", "radial_equality_residual", "estimated_error")}
        | _object("payload.verification", "point_count", "threshold", "max_orthogonality",
                  "max_radial_equality", "max_idempotence", "max_residual_potential",
                  "passed"),
    ),
    "coercivity": (
        ["coercivity", "--catalog", "identity", "--dim", "2", "--radius-count", "4",
         "--directions", "4"],
        0,
        _BASE | _CATALOG | _PROBE_CONFIG | _PAIRED
        | _object("payload.field_probe", *_PROBE)
        | _object("payload.conservative_probe", *_PROBE),
    ),
    "coercivity-witness": (
        ["coercivity", "--catalog", "rotation2d", "--radius-count", "4", "--directions", "4"],
        0,
        _BASE | _CATALOG | _PROBE_CONFIG | _PAIRED
        | _object("payload.field_probe", *_PROBE, "witness")
        | _object("payload.field_probe.witness", *_WITNESS)
        | _object("payload.conservative_probe", *_PROBE, "witness")
        | _object("payload.conservative_probe.witness", *_WITNESS),
    ),
    "radius": (
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1"],
        0,
        _EQUILIBRIA | {"config.radius"} | _SOLVED,
    ),
    "radius-uncertified": (
        ["equilibria", "--catalog", "rotation2d", "--radius", "1"],
        5,
        _EQUILIBRIA | {"config.radius"},
    ),
    "radius-override": (
        ["equilibria", "--catalog", "constant", "--vector", "1,0", "--radius", "1",
         "--allow-uncertified"],
        3,
        _EQUILIBRIA | {"config.radius", "field.source.parameters.value"} | _SOLVED,
    ),
    "perturb": (
        ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "3,-4"],
        0,
        _EQUILIBRIA | _SOLVED
        | {"config.perturb", "config.margin_fraction", "config.max_radius_exponent",
           "payload.rho", "payload.probe_verdict"},
    ),
}


@pytest.mark.parametrize("argv, code, paths", _SCHEMAS.values(), ids=_SCHEMAS)
def test_report_schema_is_pinned(argv, code, paths, capsys):
    # Reproducibility compares a run with itself, so it cannot see a key
    # that a change drops or renames; this table can.
    got_code, report, _ = run_cli(capsys, *argv)
    assert got_code == code
    report.pop("timing")
    assert key_paths(report) == paths


# Edge values for the CLI flag fuzz.  Each pool mixes valid values with
# negative, zero, non-finite and malformed ones.  Counts that size the work
# (--sample, --multistart, --max-iterations, --directions, --radius-count,
# --cert-samples, --max-radius-exponent) draw only small values or ones
# rejected before any work, and the ones with large defaults are always
# passed.
_FUZZ_FLOATS = ["0.5", "2", "-1", "0", "nan", "inf", "-inf", "1e308", "x"]
_FUZZ_VECTORS = ["1,2", "0.5,-3", "1", "1,2,3", "inf,1", "nan,0", "1,x", ",", "-1,2"]
_FUZZ_FIELDS = [
    ["--catalog", "identity", "--dim", "2"],
    ["--catalog", "identity"],
    ["--catalog", "rotation2d"],
    ["--catalog", "constant", "--vector", "1,0"],
    ["--catalog", "constant", "--vector", "nan,0"],
    ["--catalog", "linear", "--matrix", "2,1,-1,3"],
    ["--catalog", "linear", "--matrix", "0,0,0,0"],
    ["--catalog", "linear", "--matrix", "1,2,3"],
    ["--catalog", "gradient_poly", "--dim", "2"],
    ["--catalog", "gradient_poly", "--dim", "2", "--coeffs", "1,2;3"],
    ["--catalog", "cubic_radial", "--dim", "3"],
    ["--expr", "x1^3 + 0.3*x2; x2^3 - x1"],
    ["--expr", "x1 +; x2"],
    ["--catalog", "identity", "--expr", "x1; x2"],
]
_FUZZ_COMMON = {
    "--seed": ["0", "3", "-1", "x"],
    "--dim": ["2", "3", "-1", "0", "1", "x"],
    "--shift": _FUZZ_VECTORS,
    "--quad-order": ["8", "2", "-1", "1", str(10**8)],
    "--abs-tol": _FUZZ_FLOATS,
    "--rel-tol": _FUZZ_FLOATS,
    "--max-subdivisions": ["64", "1", "0", "-1"],
}
# Per subcommand: (flags always passed; optional flags, up to four drawn).
_FUZZ_COMMANDS = {
    "decompose": ({}, {
        "--sample": ["1", "3", "0", "-1"],
        "--at": _FUZZ_VECTORS,
        "--sample-radius": _FUZZ_FLOATS,
        "--threshold": _FUZZ_FLOATS,
    }),
    "coercivity": ({
        "--radius-count": ["2", "4", "1", "-1"],
        "--directions": ["1", "8", "0", "-1"],
    }, {
        "--initial-radius": _FUZZ_FLOATS,
        "--radius-factor": _FUZZ_FLOATS,
        "--growth-floor": _FUZZ_FLOATS,
    }),
    "equilibria": ({
        "--multistart": ["0", "2", "-1"],
        "--max-iterations": ["1", "5", "20", "0", "-1"],
        "--cert-samples": ["1", "16", "64", "0", "-1"],
    }, {
        "--radius": _FUZZ_FLOATS,
        "--perturb": _FUZZ_VECTORS,
        "--solver-tol": _FUZZ_FLOATS,
        "--cert-threshold": _FUZZ_FLOATS,
        "--margin-fraction": _FUZZ_FLOATS,
        "--max-radius-exponent": ["0", "3", "10", "-1", "2000"],
    }),
}


# Pool values that must exit 2 wherever the chosen mode reads their flag:
# each owner checks its settings before any numeric work.
_NOT_POSITIVE_FINITE = {"-1", "0", "nan", "inf", "-inf", "x"}
_NOT_NON_NEGATIVE_FINITE = {"-1", "nan", "inf", "-inf", "x"}
_FUZZ_REJECTED = {
    "--threshold": _NOT_POSITIVE_FINITE,
    "--solver-tol": _NOT_POSITIVE_FINITE,
    "--cert-threshold": {"nan", "inf", "-inf", "x"},
    "--margin-fraction": _NOT_NON_NEGATIVE_FINITE,
    "--growth-floor": _NOT_NON_NEGATIVE_FINITE,
    "--initial-radius": _NOT_POSITIVE_FINITE,
    "--radius-factor": _NOT_POSITIVE_FINITE | {"0.5"},
    "--sample-radius": _NOT_POSITIVE_FINITE,
}
# Flags that a mode never reads: --radius skips the perturbation search and
# --at the sampler, so their values go unchecked there.
_FUZZ_UNREAD = {"--radius": "--margin-fraction", "--at": "--sample-radius"}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    capped, optional = _FUZZ_COMMANDS[command]
    argv = [command] + draw(st.sampled_from(_FUZZ_FIELDS))
    if command == "equilibria":
        # One of the two modes, so that most draws get past that check.
        mode = draw(st.sampled_from(["--radius", "--perturb"]))
        capped = capped | {mode: optional[mode]}
    for flag, pool in capped.items():
        argv += [flag, draw(st.sampled_from(pool))]
    pools = _FUZZ_COMMON | optional
    for flag in draw(st.lists(st.sampled_from(sorted(pools)), max_size=4, unique=True)):
        argv += [flag, draw(st.sampled_from(pools[flag]))]
    if command == "equilibria" and draw(st.booleans()):
        argv.append("--allow-uncertified")
    return argv


# Valid, cheap commands: a single-fault draw adds exactly one flag from the
# pools to one of them, so no earlier bad flag masks the drawn value.
_FUZZ_BASELINES = [
    ["decompose", "--catalog", "identity", "--dim", "2", "--sample", "1"],
    ["coercivity", "--catalog", "identity", "--dim", "2", "--radius-count", "2",
     "--directions", "1"],
    ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1",
     "--multistart", "0", "--max-iterations", "5", "--cert-samples", "1"],
    ["equilibria", "--catalog", "identity", "--dim", "2", "--perturb", "1,1",
     "--multistart", "0", "--max-iterations", "5", "--cert-samples", "1",
     "--max-radius-exponent", "3"],
]


@st.composite
def _single_fault_argv(draw):
    argv = list(draw(st.sampled_from(_FUZZ_BASELINES)))
    capped, optional = _FUZZ_COMMANDS[argv[0]]
    pools = _FUZZ_COMMON | capped | optional
    flag = draw(st.sampled_from(sorted(pools)))
    return argv + [flag, draw(st.sampled_from(pools[flag]))]


@settings(max_examples=300, deadline=None)
@given(_fuzz_argv())
def test_cli_flag_fuzz_keeps_exit_code_contract(argv):
    _check_exit_code_contract(argv)


@settings(max_examples=200, deadline=None)
@given(_single_fault_argv())
def test_cli_single_fault_fuzz_keeps_exit_code_contract(argv):
    _check_exit_code_contract(argv)


def _baseline_reading(flag):
    for argv in _FUZZ_BASELINES:
        capped, optional = _FUZZ_COMMANDS[argv[0]]
        if flag in capped | optional and all(_FUZZ_UNREAD.get(arg) != flag for arg in argv):
            return argv
    raise LookupError(flag)


# The random draws reach most rejected values in a run; this reaches all.
@pytest.mark.parametrize(
    "flag, value", sorted((flag, value) for flag, pool in _FUZZ_REJECTED.items() for value in pool)
)
def test_every_rejected_fuzz_value_is_a_usage_error(flag, value):
    assert _check_exit_code_contract(_baseline_reading(flag) + [flag, value]) == 2


def _check_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, code)
    unread = {_FUZZ_UNREAD[mode] for mode in _FUZZ_UNREAD if mode in argv}
    if any(
        value in _FUZZ_REJECTED.get(flag, ()) and flag not in unread
        for flag, value in zip(argv, argv[1:])
    ):
        assert code == 2, argv
    if code == 2:
        assert out.getvalue() == "", argv
    if code in (0, 4):
        assert json.loads(out.getvalue())["report_version"] == 1
    return code
