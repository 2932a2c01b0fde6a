"""The benchmark's three workloads, each a fixed list of jobs built from a seed.

The list of fields is fixed.  The seed changes only the inputs: sample
points, constant offsets b, and the coefficients (never the monomials) of
the random polynomial fields.  A claim made on one seed can therefore be
re-checked on a held-out seed with the same work mix.

* ``verify``: in-process ``presnov decompose`` runs through
  ``presnov.cli.main``.  Almost all of such a run is the nested quadrature
  of ``verify_decomposition``, and it is the only workload that pays the
  CLI's report and JSON cost.
* ``sweep``: bulk library calls modelled on the acceptance sweep: a split
  (``decompose_many`` plus ``gradient_potential_integral_many``) on 1000
  ball points, a ``paired_probe``, and ``perturbed_existence`` for fields
  known to be coercive.  Two fields carry a sharp tanh feature, which
  forces shared subdivision on every point of a batch.
* ``solve``: ``find_equilibrium`` and ``find_equilibrium_conservative`` on
  ``ShiftedField(X, b)`` inside a ball the default certificate gate
  passes.  Each solve makes tens of tiny field calls, so per-call
  overhead dominates.

Every job checks its own output (see ``Job``); a check returns the job's
worst normalised error against an independent reference and raises
``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import presnov as pv
from presnov import cli

SAMPLE_RADIUS = 3.0
SWEEP_POINTS = 1000
# Offsets b have seeded directions and norms in [2, 3].  There the cubic
# terms dominate and one Newton start usually suffices; smaller offsets sit
# among competing equilibria, where the cost of a solve varies so much from
# one offset to the next that no seed would time like another.
OFFSET_NORMS = (2.0, 3.0)
# A normalised error above this marks a job's output as wrong; it is the
# CLI's own verification threshold.
TOLERANCE = 1e-6


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` is the timed call into presnov.  ``check`` receives its result,
    raises ``CheckFailed`` if it is wrong and otherwise returns the worst
    normalised error against the job's reference.  References are computed
    on the first check and cached, so later checks only compare.
    """

    group: str
    run: Callable[[], object]
    check: Callable[[object], float]


# ---------------------------------------------------------------------------
# Seeds and fields
# ---------------------------------------------------------------------------


def derived_seed(seed: int, *labels) -> int:
    """A non-negative seed for one input stream, fixed by the run seed and labels."""
    key = zlib.crc32("/".join(str(label) for label in labels).encode())
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def _rng(seed, *labels):
    return np.random.Generator(np.random.Philox(derived_seed(seed, *labels)))


def offsets(seed, key, dimension, count):
    """Seeded constant offsets with norms in OFFSET_NORMS."""
    rng = _rng(seed, "offsets", *key)
    directions = rng.standard_normal((count, dimension))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * rng.uniform(*OFFSET_NORMS, size=count)[:, None]


def cyclic_cubic(n: int) -> str:
    return "; ".join(f"x{i + 1}^3 + 0.3*x{(i + 1) % n + 1}" for i in range(n))


TRIG = "sin(x1)*exp(-0.1*x2^2) + 0.5*x1; cos(x1 + x2) - 0.3*tanh(x2)"
SHARP = {2: "tanh(20*(x1-1)); x2", 3: "tanh(20*(x1-1)); x2; x3"}
LINEAR_MATRIX = np.random.Generator(np.random.Philox(1234)).uniform(-1.0, 1.0, size=(3, 3))


def _coefficient(rng, low, high):
    return float(np.round(rng.uniform(low, high), 6))


def random_polynomial(dimension: int, seed: int, draw: int) -> str:
    """Degree <= 3 polynomial field, three terms per component: fixed monomials,
    seeded coefficients in [-1, 1]."""
    shape = np.random.Generator(np.random.Philox(100 + dimension))
    coefficients = _rng(seed, "polynomial", dimension, draw)
    components = []
    for _ in range(dimension):
        parts = []
        for _ in range(3):
            degree = int(shape.integers(1, 4))
            monomial = "*".join(f"x{j}" for j in shape.integers(1, dimension + 1, size=degree))
            parts.append(f"{_coefficient(coefficients, -1.0, 1.0)!r}*{monomial}")
        components.append(" + ".join(parts))
    return "; ".join(components)


def odd_cubic(dimension: int, seed: int, draw: int) -> str:
    """Coercive odd polynomial field a_i x_i^3 + d_i x_i x_j^2 + c_i x_j, j = i+1 cyclic.

    With a_i >= 0.8 and |d_i| <= 0.2 the quartic part of <X(x), x> is at
    least 0.4 |x|_4^4, so the field is coercive for every seed.  The linear
    coupling stays as weak as the cyclic cubic's (|c_i| <= 0.3): stronger
    coupling creates competing equilibria whose solves cost up to 100 times
    more on some seeds than on others.
    """
    rng = _rng(seed, "odd_cubic", dimension, draw)
    components = []
    for i in range(dimension):
        j = (i + 1) % dimension + 1
        a = _coefficient(rng, 0.8, 1.2)
        d = _coefficient(rng, -0.2, 0.2)
        c = _coefficient(rng, -0.3, 0.3)
        components.append(f"{a!r}*x{i + 1}^3 + {d!r}*x{i + 1}*x{j}^2 + {c!r}*x{j}")
    return "; ".join(components)


@dataclass(frozen=True)
class Subject:
    """A field under test, how the CLI names it, and what is known about it."""

    name: str
    field: object
    cli_args: tuple
    entry: Optional[object] = None  # catalog entry with closed forms, None for DSL fields
    coercive: Optional[bool] = None  # ground truth where known

    @property
    def dimension(self):
        return self.field.dimension


def _dsl(name, text, coercive=None):
    return Subject(name, pv.parse_field(text), ("--expr", text), None, coercive)


def _catalog(name, dimension=None, **params):
    entry = pv.catalog_field(name, dimension, **params)
    args = ["--catalog", name]
    if dimension is not None:
        args += ["--dim", str(dimension)]
    if "matrix" in params:
        args += ["--matrix", ",".join(repr(float(v)) for v in np.ravel(params["matrix"]))]
    label = name if dimension is None else f"{name}{dimension}"
    return Subject(label, entry.field, tuple(args), entry, entry.coercive)


FIXED_FIELDS = {
    "cubic2": lambda: _dsl("cubic2", cyclic_cubic(2), True),
    "cubic3": lambda: _dsl("cubic3", cyclic_cubic(3), True),
    "cubic5": lambda: _dsl("cubic5", cyclic_cubic(5), True),
    "trig2": lambda: _dsl("trig2", TRIG),
    "sharp2": lambda: _dsl("sharp2", SHARP[2], False),
    "sharp3": lambda: _dsl("sharp3", SHARP[3], False),
    "linear": lambda: _catalog("linear", matrix=LINEAR_MATRIX),
    "cubic_radial3": lambda: _catalog("cubic_radial", 3),
    "gradient_poly3": lambda: _catalog("gradient_poly", 3),
    "identity_plus_rotation2d": lambda: _catalog("identity_plus_rotation2d"),
    "rotation2d": lambda: _catalog("rotation2d"),
}
# Seeded fields: every draw has its own coefficients, so a run averages
# over several of them instead of timing one lucky or unlucky draw.
SEEDED_FIELDS = {
    "poly2": lambda seed, draw: _dsl("poly2", random_polynomial(2, seed, draw)),
    "poly3": lambda seed, draw: _dsl("poly3", random_polynomial(3, seed, draw)),
    "odd_cubic2": lambda seed, draw: _dsl("odd_cubic2", odd_cubic(2, seed, draw), True),
    "odd_cubic3": lambda seed, draw: _dsl("odd_cubic3", odd_cubic(3, seed, draw), True),
}


def _subjects(plan, seed):
    """(subject, draw, row) for each draw of each plan row; fixed fields built once."""
    fixed = {}
    for row in plan:
        name, draws = row[0], row[1]
        for draw in range(draws):
            if name in SEEDED_FIELDS:
                yield SEEDED_FIELDS[name](seed, draw), draw, row
            else:
                if name not in fixed:
                    fixed[name] = FIXED_FIELDS[name]()
                yield fixed[name], draw, row


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _accept(errors: dict) -> float:
    name, worst = max(errors.items(), key=lambda item: item[1])
    _require(worst <= TOLERANCE, f"{name} error {worst:.3e} exceeds {TOLERANCE:g}")
    return worst


def _norms(a):
    a = np.asarray(a, dtype=float)
    return np.abs(a) if a.ndim == 1 else np.linalg.norm(a, axis=1)


def _worst(got, reference, scale):
    return float(np.max(_norms(np.asarray(got) - np.asarray(reference)) / scale))


def _split_reference(subject, points, integral_route):
    """Field values, the normalising scale and the references for a split.

    Catalog fields are compared with their closed forms.  With
    ``integral_route`` the FD-route gradient is also compared with the
    independent integral route (differentiation under the integral).
    """
    values = subject.field.evaluate_many(points)
    ref = {"scale": (1.0 + _norms(points)) * (1.0 + _norms(values))}
    if subject.entry is not None:
        entry = subject.entry
        ref["potential"] = np.array([entry.potential(x) for x in points])
        ref["conservative"] = np.array([entry.conservative(x) for x in points])
        ref["sphere_invariant"] = np.array([entry.sphere_invariant(x) for x in points])
    if integral_route:
        ref["integral_route"] = pv.gradient_potential_integral_many(subject.field, points)
    return ref


def _split_errors(ref, potentials, conservative, sphere_invariant):
    scale = ref["scale"]
    errors = {}
    if "potential" in ref:
        errors["potential"] = _worst(potentials, ref["potential"], scale)
        errors["conservative"] = _worst(conservative, ref["conservative"], scale)
        errors["sphere_invariant"] = _worst(sphere_invariant, ref["sphere_invariant"], scale)
    if "integral_route" in ref:
        errors["fd_vs_integral"] = _worst(conservative, ref["integral_route"], scale)
    return errors


def _require_solved(result):
    _require(result.success, f"solver reported failure (residual {result.residual:.3e})")
    _require(np.linalg.norm(result.point) < result.ball_radius, "solution outside the ball")


def _residuals(subject, offset, x, conservative):
    """|X(x) + b|, or |grad H(x) + b| by the integral route and closed form, over 1 + |b|."""
    scale = 1.0 + np.linalg.norm(offset)
    if not conservative:
        return {"field_residual": np.linalg.norm(subject.field.evaluate(x) + offset) / scale}
    shifted = pv.ShiftedField(subject.field, offset)
    grad = pv.gradient_potential_integral_many(shifted, x[None, :])[0]
    errors = {"integral_route_residual": np.linalg.norm(grad) / scale}
    if subject.entry is not None:
        errors["closed_form_residual"] = np.linalg.norm(subject.entry.conservative(x) + offset) / scale
    return errors


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# (field, jobs, points per job).  Every job samples its own seeded points,
# and a random polynomial job its own field.  Verification cost grows
# steeply with dimension: a dim-5 job costs about 1.1 s, so there are two.
# The other DSL jobs are sized to cost about the same (0.15-0.3 s) and make
# up most of the list, so the median and the tail fall inside one broad
# cluster of distinct jobs rather than on the edge between small groups.
VERIFY_PLAN = (
    ("cubic2", 10, 20),
    ("cubic3", 6, 10),
    ("cubic5", 2, 10),
    ("trig2", 10, 40),
    ("poly3", 10, 20),
    ("linear", 3, 40),
    ("identity_plus_rotation2d", 3, 40),
    ("poly2", 6, 40),
)


def _verify_job(subject, count, point_seed, workdir):
    out = os.path.join(workdir, f"{subject.name}-{count}-{point_seed}.json")
    argv = [
        "decompose", *subject.cli_args,
        "--sample", str(count), "--sample-radius", repr(SAMPLE_RADIUS),
        "--seed", str(point_seed), "--out", out,
    ]
    points = pv.ball_points(subject.dimension, count, SAMPLE_RADIUS, point_seed)
    reference = functools.cache(
        lambda: _split_reference(subject, points, integral_route=subject.entry is None)
    )

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(code):
        _require(code == 0, f"exit code {code}")
        try:
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
        finally:
            os.remove(out)
        payload = report["payload"]
        _require(payload["verification"]["passed"], "verification did not pass")
        samples = payload["samples"]
        _require(
            np.array_equal([s["point"] for s in samples], points),
            "report points differ from the seeded sample",
        )
        return _accept(_split_errors(
            reference(),
            [s["potential"] for s in samples],
            [s["conservative"] for s in samples],
            [s["sphere_invariant"] for s in samples],
        ))

    return Job(f"verify:{subject.name}", run, check)


def build_verify(seed, workdir):
    return [
        _verify_job(subject, count, derived_seed(seed, "verify", subject.name, draw), workdir)
        for subject, draw, (_, _, count) in _subjects(VERIFY_PLAN, seed)
    ]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# (field, draws).  Each draw gets two splits on its own 1000 seeded
# points, one paired probe, and, if the field is known to be coercive, two
# perturbed_existence runs with seeded offsets.  The trig field of
# ``verify`` stays out: at the probe's largest radius its potential
# integrand oscillates hundreds of times along a ray, so paired_probe takes
# seconds and its two profiles differ by ~2e-5.
SWEEP_PLAN = (
    ("cubic2", 1),
    ("cubic3", 1),
    ("linear", 1),
    ("cubic_radial3", 1),
    ("gradient_poly3", 1),
    ("identity_plus_rotation2d", 1),
    ("rotation2d", 1),
    ("poly2", 2),
    ("poly3", 2),
    ("sharp2", 1),
    ("sharp3", 1),
)
SWEEP_SPLITS = 2
SWEEP_PERTURBS = 2


def _split_job(subject, points):
    reference = functools.cache(lambda: _split_reference(subject, points, integral_route=False))

    def run():
        split = pv.decompose_many(subject.field, points)
        return split, pv.gradient_potential_integral_many(subject.field, points)

    def check(output):
        split, integral = output
        ref = reference()
        errors = _split_errors(ref, split.potentials, split.conservative, split.sphere_invariant)
        errors["fd_vs_integral"] = _worst(split.conservative, integral, ref["scale"])
        if "conservative" in ref:
            errors["integral_vs_closed_form"] = _worst(integral, ref["conservative"], ref["scale"])
        return _accept(errors)

    return Job(f"split:{subject.name}", run, check)


def _probe_job(subject):
    scale = {}

    def run():
        return pv.paired_probe(subject.field)

    def check(report):
        _require(report.verdicts_agree, "field and conservative verdicts disagree")
        # Only catalog entries know coercivity exactly; a sampled probe may
        # miss the one bad direction of a DSL field such as sharp3.
        if subject.entry is not None and subject.coercive is not None:
            expected = "empirically-coercive" if subject.coercive else "not-coercive-witness"
            verdict = report.field_report.verdict
            _require(verdict == expected, f"verdict {verdict!r}, catalog says {expected!r}")
        # The profile gap at x = r d is <u(x), x> / r; normalise <u, x> as
        # the split checks do, by (1 + |x|)(1 + |X(x)|).
        radii, directions = report.field_report.radii, report.field_report.directions
        if "value" not in scale:
            points = (radii[:, None, None] * directions[None, :, :]).reshape(-1, subject.dimension)
            values = _norms(subject.field.evaluate_many(points)).reshape(radii.size, -1)
            scale["value"] = (1.0 + radii[:, None]) * (1.0 + values) / radii[:, None]
        gap = np.abs(report.field_report.profiles - report.conservative_report.profiles)
        return _accept({"radial_equality": float(np.max(gap / scale["value"]))})

    return Job(f"probe:{subject.name}", run, check)


def _perturb_job(subject, offset):
    def run():
        return pv.perturbed_existence(subject.field, offset)

    def check(outcome):
        errors = {}
        for conservative, result in ((False, outcome.field_result), (True, outcome.conservative_result)):
            _require_solved(result)
            errors.update(_residuals(subject, offset, result.point, conservative))
        return _accept(errors)

    return Job(f"perturb:{subject.name}", run, check)


def build_sweep(seed, workdir=None):
    jobs = []
    for subject, draw, _ in _subjects(SWEEP_PLAN, seed):
        n = subject.dimension
        for k in range(SWEEP_SPLITS):
            point_seed = derived_seed(seed, "sweep", subject.name, draw, k)
            jobs.append(_split_job(subject, pv.ball_points(n, SWEEP_POINTS, SAMPLE_RADIUS, point_seed)))
        jobs.append(_probe_job(subject))
        if subject.coercive:
            for offset in offsets(seed, ("sweep", subject.name, draw), n, SWEEP_PERTURBS):
                jobs.append(_perturb_job(subject, offset))
    return jobs


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# (field, draws, offsets per draw): 48 offsets per field, the seeded
# odd cubics spread over 8 draws of their coefficients.
SOLVE_PLAN = (
    ("cubic2", 1, 48),
    ("cubic3", 1, 48),
    ("cubic5", 1, 48),
    ("cubic_radial3", 1, 48),
    ("gradient_poly3", 1, 48),
    ("identity_plus_rotation2d", 1, 48),
    ("odd_cubic2", 8, 6),
    ("odd_cubic3", 8, 6),
)


def certified_radius(shifted) -> float:
    """1.5 times the first radius 2^(k/2) the default field-only gate passes.

    The solvers run the same deterministic gate, so the returned radius is
    certified for them too.
    """
    for k in range(41):
        radius = 1.5 * 2.0 ** (k / 2)
        if pv.boundary_certificate(shifted, radius / 1.5, check_conservative=False).passed and (
            pv.boundary_certificate(shifted, radius, check_conservative=False).passed
        ):
            return radius
    raise RuntimeError(f"no certified radius for {shifted.label}")


def _solve_job(subject, offset, radius, conservative):
    shifted = pv.ShiftedField(subject.field, offset)
    solver = "find_equilibrium_conservative" if conservative else "find_equilibrium"
    kind = "conservative" if conservative else "field"
    residuals = {}  # by solution point: repeated rounds return the same point

    def run():
        # Looked up per call, so that a traced run sees the traced entry point.
        return getattr(pv, solver)(shifted, radius)

    def check(result):
        _require_solved(result)
        key = result.point.tobytes()
        if key not in residuals:
            residuals[key] = _residuals(subject, offset, result.point, conservative)
        return _accept(residuals[key])

    return Job(f"solve-{kind}:{subject.name}", run, check)


def build_solve(seed, workdir=None):
    jobs = []
    for subject, draw, (_, _, count) in _subjects(SOLVE_PLAN, seed):
        for offset in offsets(seed, ("solve", subject.name, draw), subject.dimension, count):
            radius = certified_radius(pv.ShiftedField(subject.field, offset))
            jobs.append(_solve_job(subject, offset, radius, conservative=False))
            jobs.append(_solve_job(subject, offset, radius, conservative=True))
    return jobs


BUILDERS = {"verify": build_verify, "sweep": build_sweep, "solve": build_solve}
