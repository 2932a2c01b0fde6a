import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ],
)
def test_bad_flag_values_are_usage_errors(argv, tmp_path, capsys):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    column = tmp_path / "column.txt"
    column.write_text("1\n2\n", encoding="utf-8")
    argv = [arg.format(dir=tmp_path, ragged=ragged, column=column) for arg in argv]
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


def test_console_entry_point_subprocess():
    cmd = [sys.executable, "-m", "presnov", "decompose", "--catalog", "identity",
           "--dim", "2", "--sample", "4", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    assert canonical(a) == canonical(b)


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


# Pool values that must exit 2 wherever they appear: tolerances and
# thresholds are checked before any numeric work.
_NOT_POSITIVE_FINITE = {"-1", "0", "nan", "inf", "-inf", "x"}
_FUZZ_REJECTED = {
    "--threshold": _NOT_POSITIVE_FINITE,
    "--solver-tol": _NOT_POSITIVE_FINITE,
    "--cert-threshold": {"nan", "inf", "-inf", "x"},
}


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


@settings(max_examples=300, deadline=None)
@given(_fuzz_argv())
def test_cli_flag_fuzz_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, code)
    if any(value in _FUZZ_REJECTED.get(flag, ()) for flag, value in zip(argv, argv[1:])):
        assert code == 2, argv
    if code == 2:
        assert out.getvalue() == "", argv
    if code in (0, 4):
        assert json.loads(out.getvalue())["report_version"] == 1
