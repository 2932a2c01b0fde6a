"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_ast, random_polynomial_field_text, src_env
from presnov import (
    NoCertifiedRadiusError,
    catalog_field,
    compute_potential,
    find_equilibrium,
    find_equilibrium_conservative,
    gradient_potential_integral_many,
    gradient_potential_many,
    paired_probe,
    parse_field,
    perturbed_existence,
    potential_many,
)
from presnov.decomposition import ConservativePart, SphereInvariantPart
from presnov.dsl import _eval_raw, evaluate_ast, parse_expression, pretty
from presnov.errors import NonFiniteValueError, ParseError
from presnov.radial import VERDICT_COERCIVE, VERDICT_NOT_COERCIVE
from presnov.sampling import ball_points


def _report(number, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def _catalog_instances(dim=3):
    return [
        catalog_field("identity", dim),
        catalog_field("constant", value=[1.0, -2.0, 0.5][:dim]),
        catalog_field("linear", matrix=_seeded_matrix(dim, seed=1234)),
        catalog_field("rotation2d"),
        catalog_field("gradient_poly", dim),
        catalog_field("cubic_radial", dim),
        catalog_field("identity_plus_rotation2d"),
    ]


def _seeded_matrix(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(-1.0, 1.0, size=(n, n))


@pytest.fixture(scope="module")
def sweep():
    """10 fields (full catalog + 3 random degree<=3 polynomial DSL fields,
    seeds 0..2, dims 2/3/5) x 1000 seeded points with |x| <= 10."""
    fields = [entry.field for entry in _catalog_instances(dim=3)]
    for seed, dim in ((0, 2), (1, 3), (2, 5)):
        rng = np.random.Generator(np.random.Philox(seed))
        fields.append(parse_field(random_polynomial_field_text(rng, dim), dim))
    assert len(fields) == 10
    rows = []
    for index, field in enumerate(fields):
        points = ball_points(field.dimension, 1000, 10.0, seed=100 + index)
        values = field.evaluate_many(points)
        grad_fd = gradient_potential_many(field, points)
        grad_int = gradient_potential_integral_many(field, points)
        rows.append((field.label, points, values, grad_fd, grad_int))
    return rows


def test_criterion_01_radial_equality(sweep):
    worst = 0.0
    for label, points, values, grad_fd, _ in sweep:
        scale = (1.0 + np.linalg.norm(points, axis=1)) * (
            1.0 + np.linalg.norm(values, axis=1)
        )
        residual = np.abs(
            np.einsum("ij,ij->i", values, points)
            - np.einsum("ij,ij->i", grad_fd, points)
        )
        worst = max(worst, float(np.max(residual / scale)))
    _report(1, worst <= 1e-6,
            f"radial equality over 10 fields x 1000 points: max {worst:.3e} <= 1e-6")


def test_criterion_02_orthogonality(sweep):
    worst = 0.0
    for label, points, values, grad_fd, _ in sweep:
        residual_part = values - grad_fd
        scale = (1.0 + np.linalg.norm(points, axis=1)) * (
            1.0 + np.linalg.norm(values, axis=1)
        )
        residual = np.abs(np.einsum("ij,ij->i", residual_part, points))
        worst = max(worst, float(np.max(residual / scale)))
    _report(2, worst <= 1e-6,
            f"sphere-invariant orthogonality: max {worst:.3e} <= 1e-6")


def test_criterion_03_linear_field_oracle():
    worst = 0.0
    count = 0
    for n in (2, 3, 5, 8):
        for seed in range(5):
            a = _seeded_matrix(n, seed=7000 + 10 * n + seed)
            field = catalog_field("linear", matrix=a).field
            points = ball_points(n, 100, 5.0, seed=500 + count)
            grad = gradient_potential_many(field, points)
            values = field.evaluate_many(points)
            sym_oracle = points @ (0.5 * (a + a.T)).T
            skew_oracle = points @ (0.5 * (a - a.T)).T
            err_grad = np.linalg.norm(grad - sym_oracle, axis=1) / (
                1.0 + np.linalg.norm(sym_oracle, axis=1)
            )
            err_skew = np.linalg.norm((values - grad) - skew_oracle, axis=1) / (
                1.0 + np.linalg.norm(skew_oracle, axis=1)
            )
            worst = max(worst, float(err_grad.max()), float(err_skew.max()))
            count += 1
    _report(3, worst <= 1e-6 and count == 20,
            f"20 random matrices (n in 2,3,5,8): sym/skew relative error max {worst:.3e} <= 1e-6")


def test_criterion_04_potential_normalization_and_closed_forms():
    field = parse_field("x1^2; x2")
    origin, origin_err = compute_potential(field, [0.0, 0.0])
    hand, _ = compute_potential(field, [1.0, 1.0])
    ident = catalog_field("identity", 2).field
    norm_two, _ = compute_potential(ident, [1.2, 1.6])
    ok = (
        origin == 0.0
        and origin_err == 0.0
        and abs(hand - 5.0 / 6.0) <= 1e-9
        and abs(norm_two - 2.0) <= 1e-10
    )
    _report(4, ok,
            f"H(0)={origin!r} exactly; H(x1^2;x2)(1,1)={hand:.12f} (5/6 within 1e-9); "
            f"H(identity)(|x|=2)={norm_two:.12f} (2 within 1e-10)")


def test_criterion_05_idempotence_and_annihilation():
    worst_idem = 0.0
    worst_pot = 0.0
    for entry in _catalog_instances(dim=3):
        field = entry.field
        points = ball_points(field.dimension, 12, 2.0, seed=900)
        values = field.evaluate_many(points)
        scale = (1.0 + np.linalg.norm(points, axis=1)) * (
            1.0 + np.linalg.norm(values, axis=1)
        )
        conservative = ConservativePart(field)
        second = gradient_potential_many(conservative, points)
        first = gradient_potential_many(field, points)
        leftover = np.linalg.norm(second - first, axis=1) / scale
        worst_idem = max(worst_idem, float(leftover.max()))
        residual_field = SphereInvariantPart(field)
        residual_potentials, _ = potential_many(residual_field, points)
        worst_pot = max(worst_pot, float(np.abs(residual_potentials).max()))
    ok = worst_idem <= 1e-6 and worst_pot <= 1e-8
    _report(5, ok,
            f"re-splitting grad H leaves |u| max {worst_idem:.3e} <= 1e-6 (normalized); "
            f"potential of u max {worst_pot:.3e} <= 1e-8")


def test_criterion_06_paired_probe_verdict_agreement():
    instances = [
        catalog_field("identity", 2),
        catalog_field("constant", value=[1.0, -0.5]),
        catalog_field("linear", matrix=[[1.0, 2.0], [0.0, 1.0]]),
        catalog_field("rotation2d"),
        catalog_field("gradient_poly", 2),
        catalog_field("cubic_radial", 2),
        catalog_field("identity_plus_rotation2d"),
    ]
    worst = 0.0
    agree = True
    truth_ok = True
    for entry in instances:
        paired = paired_probe(entry.field)
        agree = agree and paired.verdicts_agree
        worst = max(worst, paired.max_profile_discrepancy)
        if entry.coercive is not None:
            expected = VERDICT_COERCIVE if entry.coercive else VERDICT_NOT_COERCIVE
            truth_ok = truth_ok and paired.field_report.verdict == expected
    ok = agree and worst <= 1e-6 and truth_ok
    _report(6, ok,
            f"paired verdicts identical on all 7 catalog fields and match ground "
            f"truth; max profile discrepancy {worst:.3e} <= 1e-6")


def test_criterion_07_co_existence_in_unit_ball():
    fields = [
        catalog_field("identity", 2).field,
        catalog_field("identity_plus_rotation2d").field,
        catalog_field("cubic_radial", 3).field,
        parse_field("x1 - x2; x1 + x2"),
    ]
    ok = True
    details = []
    for field in fields:
        rx = find_equilibrium(field, 1.0)
        rg = find_equilibrium_conservative(field, 1.0)
        good = (
            rx.certificate.passed
            and rx.success and rg.success
            and rx.residual <= 1e-10 and rg.residual <= 1e-10
            and np.linalg.norm(rx.point) < 1.0 and np.linalg.norm(rg.point) < 1.0
        )
        ok = ok and good
        details.append(f"{field.label}: {rx.residual:.1e}/{rg.residual:.1e}")
    _report(7, ok, "certificate at r=1 and both solves <= 1e-10 inside the open "
                   "ball for " + "; ".join(details))


def test_criterion_08_perturbation_workflow():
    out = perturbed_existence(catalog_field("identity", 2).field, [3.0, -4.0])
    good_identity = (
        out.rho <= 16.0
        and np.allclose(out.field_result.point, [-3.0, 4.0], atol=1e-8)
        and np.allclose(out.conservative_result.point, [-3.0, 4.0], atol=1e-8)
    )
    rotation_failed = False
    verdict = None
    try:
        perturbed_existence(
            catalog_field("rotation2d").field, [2.0, 1.0], max_radius_exponent=12
        )
    except NoCertifiedRadiusError as exc:
        rotation_failed = True
        verdict = exc.probe_verdict
    ok = good_identity and rotation_failed and verdict == VERDICT_NOT_COERCIVE
    _report(8, ok,
            f"identity+b: rho={out.rho} <= 16 with both equilibria at (-3,4) within "
            f"1e-8; rotation2d+b: no certified radius, probe verdict '{verdict}'")


def test_criterion_09_two_route_gradient_agreement(sweep):
    worst = 0.0
    for label, points, values, grad_fd, grad_int in sweep:
        gap = np.linalg.norm(grad_fd - grad_int, axis=1)
        bound = 1e-5 * (1.0 + np.linalg.norm(grad_fd, axis=1))
        worst = max(worst, float((gap / bound).max()))
    _report(9, worst <= 1.0,
            f"FD route vs differentiate-under-the-integral route: worst "
            f"gap/bound ratio {worst:.3e} <= 1 over the criterion-1 sweep")


_FUZZ_TOKENS = [
    "x1", "x2", "x3", "+", "-", "*", "/", "^", "(", ")", ";", "\n",
    "sin", "cos", "sqrt", "norm2", "pi", "e", "1.5", "2", ".5", "2e", "foo", " ",
]


def test_criterion_10_parser_fuzz_and_precedence():
    rng = np.random.Generator(np.random.Philox(77))
    parsed = 0
    for i in range(100_000):
        if i % 10 < 7:
            length = int(rng.integers(0, 30))
            text = bytes(rng.integers(0, 256, size=length).tolist()).decode("latin-1")
        else:
            count = int(rng.integers(1, 12))
            picks = rng.integers(0, len(_FUZZ_TOKENS), size=count)
            text = "".join(_FUZZ_TOKENS[j] for j in picks)
        try:
            parse_field(text, 2)
            parsed += 1
        except ParseError:
            pass
    # precedence property on 1000 random trees
    precedence_ok = True
    for seed in range(1000):
        tree_rng = np.random.Generator(np.random.Philox(3000 + seed))
        ast = random_ast(tree_rng, 3, 5)
        reparsed = parse_expression(pretty(ast), 3)
        pts = tree_rng.uniform(-3.0, 3.0, size=(100, 3))
        with np.errstate(all="ignore"):
            same = np.array_equal(
                _eval_raw(ast, pts), _eval_raw(reparsed, pts), equal_nan=True
            )
        precedence_ok = precedence_ok and reparsed == ast and same
    # the grammar examples
    examples_ok = (
        np.allclose(parse_field("-x2; x1", 2).evaluate([1.0, 0.0]), [0.0, 1.0])
        and np.allclose(parse_field("x1^2; x2", 2).evaluate([1.0, 1.0]), [1.0, 1.0])
        and evaluate_ast(parse_expression("x1*x2 + 1", 2), [2.0, 3.0]) == 7.0
        and evaluate_ast(parse_expression("sin(x1)", 1), [0.0]) == 0.0
    )
    arity_ok = False
    try:
        parse_field("x1; x2; x3", 2)
    except ParseError:
        arity_ok = True
    nonfinite_ok = False
    try:
        evaluate_ast(parse_expression("1/x1", 1), [0.0])
    except NonFiniteValueError:
        nonfinite_ok = True
    ok = precedence_ok and examples_ok and arity_ok and nonfinite_ok
    _report(10, ok,
            f"100000 fuzz inputs: no crash ({parsed} parsed cleanly); precedence "
            f"property held on 1000 random trees x 100 points; grammar examples "
            f"behave as specified")


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "presnov", *args], capture_output=True, text=True, env=src_env()
    )


def _canonical(stdout):
    report = json.loads(stdout)
    report.pop("timing", None)
    return json.dumps(report, indent=2, sort_keys=True).encode()


def test_criterion_11_cli_reproducibility():
    invocations = [
        ["decompose", "--catalog", "identity", "--dim", "3", "--sample", "10",
         "--seed", "1"],
        ["coercivity", "--catalog", "rotation2d", "--radius-count", "8",
         "--directions", "64"],
        ["equilibria", "--catalog", "identity", "--dim", "2", "--radius", "1"],
    ]
    ok = True
    for args in invocations:
        first = _run_cli(args)
        second = _run_cli(args)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and _canonical(first.stdout) == _canonical(second.stdout)
    _report(11, ok,
            "three CLI invocations repeated: byte-identical reports "
            "(timing field excluded)")
