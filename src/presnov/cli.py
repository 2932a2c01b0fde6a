"""Command-line interface: reproducible analyses with JSON reports.

Subcommands
    decompose    split a field at sample points and verify the identities
    coercivity   paired coercivity probe of a field and its conservative part
    equilibria   certify a ball and locate equilibria, or run the
                 constant-perturbation workflow (--perturb)

One JSON report (report_version 1) is written to stdout (or --out) as
one line with sorted keys; a short human-readable summary goes to
stderr.  ``main`` builds what every report shares: the field, the
quadrature config and the report's version, tool, command, field,
config (quadrature and seed) and warnings.  Each subcommand's handler then adds only its own config and
payload, and returns the exit code.  All randomness sits behind --seed,
and repeated invocations with identical flags produce identical reports
except for the "timing" field.

Exit codes: 0 success, 2 parse/usage error, 3 numeric failure,
4 internal-identity violation, 5 certificate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .decomposition import DEFAULT_VERIFY_THRESHOLD, VerificationReport, verify_decomposition
from .dsl import parse_field
from .errors import (
    CatalogError,
    CertificateError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NoCertifiedRadiusError,
    NonFiniteValueError,
    ParseError,
    QuadratureError,
)
from .fields import ShiftedField, catalog_field
from .quadrature import QuadratureConfig
from .radial import (
    DEFAULT_CERTIFICATE_THRESHOLD,
    ProbeConfig,
    RadialProbeReport,
    Witness,
    boundary_certificate,
    paired_probe,
)
from .equilibria import (
    DEFAULT_MARGIN_FRACTION,
    DEFAULT_MAX_RADIUS_EXPONENT,
    EquilibriumResult,
    SolverConfig,
    find_equilibrium,
    find_equilibrium_conservative,
    perturbed_existence,
)
from .sampling import DEFAULT_SEED, ball_points

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IDENTITY = 4
EXIT_CERTIFICATE = 5


def _parse_floats(text, flag):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} expects comma-separated finite numbers, got {text!r}")


def _read_text(path, what):
    """The text of a UTF-8 file, newlines translated as by ``open``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path!r} is not UTF-8 text") from None


def _build_field(args):
    sources = [s for s in (args.catalog, args.expr, args.field_file) if s is not None]
    if len(sources) != 1:
        raise ConfigError("specify exactly one of --catalog, --expr, --field-file")
    if args.catalog is not None:
        params = {}
        if args.matrix is not None:
            flat = _parse_floats(args.matrix, "--matrix")
            n = int(round(len(flat) ** 0.5))
            if n * n != len(flat):
                raise ConfigError("--matrix needs n*n comma-separated entries (row-major)")
            params["matrix"] = np.array(flat).reshape(n, n)
        if args.vector is not None:
            params["value"] = _parse_floats(args.vector, "--vector")
        if args.coeffs is not None:
            rows = [
                _parse_floats(row, "--coeffs")
                for row in args.coeffs.split(";")
                if row.strip() != ""
            ]
            params["coeffs"] = rows
        entry = catalog_field(args.catalog, args.dim, **params)
        field = entry.field
        source = {
            "kind": "catalog",
            "name": entry.name,
            "parameters": entry.parameters,
        }
    elif args.expr is not None:
        field = parse_field(args.expr, args.dim)
        source = {"kind": "expr", "text": args.expr}
    else:
        text = _read_text(args.field_file, "field file")
        field = parse_field(text, args.dim)
        source = {"kind": "file", "path": args.field_file, "text": text}
    if args.shift is not None:
        offset = _parse_floats(args.shift, "--shift")
        field = ShiftedField(field, offset)
        source = {"kind": "shift", "offset": offset, "inner": source}
    return field, source


def _resolve_points(args, field):
    if sum(value is not None for value in (args.at, args.points_file, args.sample)) > 1:
        raise ConfigError("use only one of --at, --points-file, --sample")
    if args.at is not None:
        point = _parse_floats(args.at, "--at")
        pts = np.array([point])
        spec = {"kind": "at", "point": point}
    elif args.points_file is not None:
        lines = _read_text(args.points_file, "points file").split("\n")
        rows = [_parse_floats(line.strip(), "points file line") for line in lines if line.strip()]
        if not rows:
            raise ConfigError(f"points file {args.points_file!r} contains no points")
        if len({len(row) for row in rows}) > 1:
            raise ConfigError(f"points file {args.points_file!r} has rows of different lengths")
        pts = np.array(rows)
        spec = {"kind": "file", "path": args.points_file, "count": len(rows)}
    else:
        count = args.sample if args.sample is not None else 10
        pts = ball_points(field.dimension, count, args.sample_radius, args.seed)
        spec = {
            "kind": "sample",
            "count": count,
            "radius": args.sample_radius,
            "seed": args.seed,
        }
    return pts, spec


def _emit(report, args, elapsed):
    report["timing"] = {"seconds": elapsed}
    text = json.dumps(report, sort_keys=True) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _from_flags(cls, args):
    """A config built from the flags whose dest names one of its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# Result fields that no report carries: an equilibrium's certificate is the
# payload's own "certificate", a probe's directions, seed and config are in
# the report's config, a witness carries its direction, not only its index,
# and the split a verification checked is the report's "samples".
_OMITTED = {
    VerificationReport: ("split",),
    EquilibriumResult: ("certificate",),
    RadialProbeReport: ("directions", "seed", "config"),
    Witness: ("direction_index",),
}
_RENAMED = {
    "field_label": "field",
    "field_report": "field_probe",
    "conservative_report": "conservative_probe",
}


def _payload(result):
    """A result dataclass as a report object: its fields, with nested
    results in turn, less those that are None or listed in ``_OMITTED``.
    An array or numpy scalar field becomes Python data."""
    omitted = _OMITTED.get(type(result), ())
    payload = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if value is None or f.name in omitted:
            continue
        if dataclasses.is_dataclass(value):
            value = _payload(value)
        elif isinstance(value, (np.ndarray, np.generic)):
            value = value.tolist()
        payload[_RENAMED.get(f.name, f.name)] = value
    return payload


def _sample_payloads(split):
    """``_payload(split.sample(i))`` for every point, built column by
    column: one ``tolist`` per array of the split."""
    columns = split.columns()
    rows = zip(*(column.tolist() for column in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _cmd_decompose(args, field, quad, report):
    points, report["config"]["points"] = _resolve_points(args, field)
    report["config"]["threshold"] = args.threshold
    verification = verify_decomposition(field, points, quad, args.threshold)
    report["payload"] = {
        "samples": _sample_payloads(verification.split),
        "verification": _payload(verification),
    }
    print(
        f"decompose: {points.shape[0]} point(s), "
        f"max |<u,x>| (normalized) = {verification.max_orthogonality:.3e}, "
        f"verification {'PASS' if verification.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if verification.passed else EXIT_IDENTITY


def _cmd_coercivity(args, field, quad, report):
    probe_cfg = _from_flags(ProbeConfig, args)
    report["config"]["probe"] = dataclasses.asdict(probe_cfg) | {
        "directions": probe_cfg.direction_count(field.dimension)
    }
    paired = paired_probe(field, probe_cfg, quad)
    report["payload"] = _payload(paired)
    print(
        f"coercivity: field verdict = {paired.field_report.verdict}, "
        f"conservative verdict = {paired.conservative_report.verdict}, "
        f"max discrepancy = {paired.max_profile_discrepancy:.3e}",
        file=sys.stderr,
    )
    if not paired.verdicts_agree:
        report["warnings"].append(
            "verdicts for the field and its conservative part disagree; this "
            "violates the radial equality and indicates an internal defect"
        )
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_equilibria(args, field, quad, report):
    if (args.radius is None) == (args.perturb is None):
        raise ConfigError("specify exactly one of --radius or --perturb")
    solver = _from_flags(SolverConfig, args)
    config = report["config"]
    config["solver"] = dataclasses.asdict(solver)
    config["certificate_samples"] = args.cert_samples
    config["certificate_threshold"] = args.cert_threshold

    if args.radius is not None:
        config["radius"] = args.radius
        certificate = boundary_certificate(
            field,
            args.radius,
            samples=args.cert_samples,
            seed=args.seed,
            threshold=args.cert_threshold,
            quadrature=quad,
        )
        report["payload"] = {"certificate": _payload(certificate)}
        if not certificate.passed and not args.allow_uncertified:
            report["warnings"].append(
                f"certificate failed at radius {args.radius}: "
                f"min radial value {certificate.min_radial:.6g}"
            )
            print(
                f"equilibria: certificate FAIL at r={args.radius} "
                f"(min radial {certificate.min_radial:.3e})",
                file=sys.stderr,
            )
            return EXIT_CERTIFICATE
        result_x = find_equilibrium(
            field, args.radius, solver, certificate=certificate,
            allow_uncertified=args.allow_uncertified,
        )
        result_g = find_equilibrium_conservative(
            field, args.radius, solver, quadrature=quad, certificate=certificate,
            allow_uncertified=args.allow_uncertified,
        )
        summary = "equilibria: "
    else:
        offset = _parse_floats(args.perturb, "--perturb")
        config["perturb"] = offset
        config["margin_fraction"] = args.margin_fraction
        config["max_radius_exponent"] = args.max_radius_exponent
        outcome = perturbed_existence(
            field,
            offset,
            solver,
            quadrature=quad,
            max_radius_exponent=args.max_radius_exponent,
            margin_fraction=args.margin_fraction,
            certificate_samples=args.cert_samples,
            threshold=args.cert_threshold,
        )
        report["warnings"].extend(outcome.warnings)
        report["payload"] = {
            "rho": outcome.rho,
            "certificate": _payload(outcome.certificate),
            "probe_verdict": outcome.probe.verdict,
        }
        result_x, result_g = outcome.field_result, outcome.conservative_result
        summary = f"equilibria: rho = {outcome.rho}, "

    report["payload"]["field_equilibrium"] = _payload(result_x)
    report["payload"]["conservative_equilibrium"] = _payload(result_g)
    print(
        f"{summary}field solve {'ok' if result_x.success else 'FAILED'} "
        f"(residual {result_x.residual:.3e}), conservative solve "
        f"{'ok' if result_g.success else 'FAILED'} (residual {result_g.residual:.3e})",
        file=sys.stderr,
    )
    return EXIT_OK if result_x.success and result_g.success else EXIT_NUMERIC


def _add_field_arguments(parser):
    group = parser.add_argument_group("field definition")
    group.add_argument("--catalog", help="catalog entry name")
    group.add_argument("--expr", help="field DSL source text")
    group.add_argument("--field-file", help="path to a UTF-8 field DSL file")
    group.add_argument("--dim", type=int, help="field dimension (inferred when possible)")
    group.add_argument("--matrix", help="row-major matrix entries for --catalog linear")
    group.add_argument("--vector", help="vector entries for --catalog constant")
    group.add_argument("--coeffs", help="rows 'a,b,c,d;...' for --catalog gradient_poly")
    group.add_argument("--shift", help="constant vector added to the field")


def _add_common_arguments(parser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for all randomness")
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.add_argument("--quad-order", dest="order", type=int, default=QuadratureConfig.order)
    parser.add_argument("--abs-tol", type=float, default=QuadratureConfig.abs_tol)
    parser.add_argument("--rel-tol", type=float, default=QuadratureConfig.rel_tol)
    parser.add_argument("--max-subdivisions", type=int, default=QuadratureConfig.max_subdivisions)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="presnov",
        description=(
            "Split vector fields into conservative and sphere-invariant parts, "
            "probe coercivity, and locate equilibria inside certified balls."
        ),
    )
    parser.add_argument("--version", action="version", version=f"presnov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="split a field and verify the identities")
    _add_field_arguments(p_dec)
    _add_common_arguments(p_dec)
    p_dec.add_argument("--at", help="single point, comma-separated coordinates")
    p_dec.add_argument("--points-file", help="file with one comma-separated point per line")
    p_dec.add_argument("--sample", type=int, help="number of seeded sample points")
    p_dec.add_argument("--sample-radius", type=float, default=1.0)
    p_dec.add_argument("--threshold", type=float, default=DEFAULT_VERIFY_THRESHOLD,
                       help="verification pass threshold on normalized residuals")
    p_dec.set_defaults(handler=_cmd_decompose)

    p_coe = sub.add_parser("coercivity", help="paired coercivity probe")
    _add_field_arguments(p_coe)
    _add_common_arguments(p_coe)
    p_coe.add_argument("--initial-radius", type=float, default=ProbeConfig.initial_radius)
    p_coe.add_argument("--radius-factor", type=float, default=ProbeConfig.radius_factor)
    p_coe.add_argument("--radius-count", type=int, default=ProbeConfig.radius_count)
    p_coe.add_argument("--directions", type=int, default=ProbeConfig.directions)
    p_coe.add_argument("--growth-floor", dest="growth_floor_factor", type=float,
                       default=ProbeConfig.growth_floor_factor)
    p_coe.set_defaults(handler=_cmd_coercivity)

    p_eq = sub.add_parser("equilibria", help="certify a ball and locate equilibria")
    _add_field_arguments(p_eq)
    _add_common_arguments(p_eq)
    p_eq.add_argument("--radius", type=float, help="ball radius to certify and search")
    p_eq.add_argument("--perturb", help="constant vector b for the perturbation workflow")
    p_eq.add_argument("--solver-tol", dest="residual_tol", type=float,
                      default=SolverConfig.residual_tol)
    p_eq.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    p_eq.add_argument("--multistart", type=int, default=SolverConfig.multistart)
    p_eq.add_argument("--cert-samples", type=int)
    p_eq.add_argument("--cert-threshold", type=float, default=DEFAULT_CERTIFICATE_THRESHOLD)
    p_eq.add_argument("--allow-uncertified", action="store_true")
    p_eq.add_argument("--margin-fraction", type=float, default=DEFAULT_MARGIN_FRACTION)
    p_eq.add_argument("--max-radius-exponent", type=int, default=DEFAULT_MAX_RADIUS_EXPONENT)
    p_eq.set_defaults(handler=_cmd_equilibria)
    return parser


# Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        field, source = _build_field(args)
        quad = _from_flags(QuadratureConfig, args)
        report = {
            "report_version": 1,
            "tool": {"name": "presnov", "version": __version__},
            "command": args.command,
            "field": {"label": field.label, "dimension": field.dimension, "source": source},
            "config": {"quadrature": dataclasses.asdict(quad), "seed": args.seed},
            "warnings": [],
        }
        code = args.handler(args, field, quad, report)
        _emit(report, args, time.perf_counter() - started)
    # OSError comes only from reading --field-file or --points-file or from
    # writing --out, and DimensionMismatchError only from a point or vector
    # flag whose length does not match the field.
    except (ParseError, CatalogError, ConfigError, DimensionMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoCertifiedRadiusError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (QuadratureError, NonFiniteValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
