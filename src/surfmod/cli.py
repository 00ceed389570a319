"""Command-line front end: compute, verify, and cross-validate moduli.

Exit codes: 0 when the run (and every executed check) succeeds, 1 when
a verification check fails, 2 for configuration problems, 3 for
numerical failures inside a computation.  All file output goes through
a fixed-format JSON or CSV writer that renders numbers with 17
significant digits, so re-reading a result file and re-serializing it
reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .catalog import available_families, build_entry
from .errors import ConfigError, SurfmodError
from .modulus import (
    admissibility_check,
    coarea_check,
    conjugate_exponent,
    extremal_density,
    extremality_probe,
    modulus_p,
    submersion_modulus,
)
from .oracle import cross_validate
from .quadrature import QuadratureScheme

__all__ = ["RunConfig", "run", "main"]

_ADMISSIBILITY_TOL = 1e-6
_COAREA_TOL = 1e-8
_ROUTE_TOL = 1e-7
_EXTREMALITY_SLACK = -1e-9
_ORACLE_BAND = 0.05

_COAREA_INTEGRANDS = (
    ("constant", lambda z: 1.0),
    ("radius-squared", lambda z: float(np.dot(z, z))),
    ("affine-product", lambda z: float(np.prod(1.0 + 0.25 * z))),
)


@dataclass
class RunConfig:
    """Validated configuration of one command-line run."""

    command: str
    family: str
    parameters: dict = field(default_factory=dict)
    p: float = 2.0
    order: int = 12
    subdivisions: int = 4
    ladder: tuple = (16, 32, 64)
    output: str | None = None
    format: str = "json"
    seed: int = 0
    trials: int = 50


# -- number-stable serialization ---------------------------------------


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    if value == 0.0:
        return "0"
    return format(value, ".17g")


def _format_cell(cell) -> str:
    """A CSV cell: text as it is, None empty, anything else a number."""
    if cell is None:
        return ""
    return cell if isinstance(cell, str) else _format_number(cell)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_to_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(isinstance(item, (dict, list, tuple)) for item in obj):
            items = [f"{inner}{_to_json(item, indent + 1)}" for item in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_to_json(item, indent) for item in obj) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _write_output(payload: dict, csv_rows, config: RunConfig):
    if config.output is None:
        return
    if config.format == "json":
        text = _to_json(payload) + "\n"
    else:
        header, rows = csv_rows
        lines = [
            f"# {key} {_format_number(val) if not isinstance(val, str) else val}"
            for key, val in payload.items()
            if isinstance(val, (str, int, float, bool))
        ]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        text = "\n".join(lines) + "\n"
    with open(config.output, "w", encoding="ascii") as handle:
        handle.write(text)


# -- configuration parsing ---------------------------------------------


def _parse_box(text: str):
    try:
        axes = []
        for part in text.split(";"):
            lo, hi = (float(tok) for tok in part.split(","))
            axes.append([lo, hi])
        return axes
    except ValueError as exc:
        raise ConfigError(
            f"box argument {text!r} is not 'lower,upper' pairs separated by ';'"
        ) from exc


def _parse_matrix(text: str):
    try:
        return [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ConfigError(f"matrix argument {text!r} is malformed") from exc


def _parse_ladder(text: str):
    try:
        rungs = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"ladder {text!r} must be comma-separated integers") from exc
    if any(r < 1 for r in rungs):
        raise ConfigError(f"ladder {text!r} must contain positive resolutions")
    return rungs


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}

# The RunConfig fields a config file may set, each with the JSON types it
# takes (null means "not given").
_FILE_TYPES = {
    "command": (str, "a string"),
    "family": (str, "a string"),
    "parameters": (dict, "an object"),
    "p": ((int, float), "a number"),
    "order": (int, "an integer"),
    "subdivisions": (int, "an integer"),
    "ladder": ((list, str), "a list of integers or a string"),
    "output": (str, "a string"),
    "format": (str, "a string"),
    "seed": (int, "an integer"),
    "trials": (int, "an integer"),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_FILE_TYPES)
    if unknown:
        raise ConfigError(f"config file has unknown keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        types, expected = _FILE_TYPES[key]
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    return data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfmod",
        description="p-modulus of parametrized surface families",
    )
    sub = parser.add_subparsers(dest="command")
    for name, blurb in (
        ("compute", "compute the modulus and compare with the closed form"),
        ("verify", "run admissibility, change-of-variables, route, and extremality checks"),
        ("cross-validate", "compare against the discrete oracle on a grid ladder"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="JSON file with RunConfig fields")
        cmd.add_argument("--family", help=f"one of: {', '.join(available_families())}")
        cmd.add_argument("--p", type=float, help="modulus exponent, p > 1")
        cmd.add_argument("--u", help="parameter box, 'lower,upper' per axis joined by ';'")
        cmd.add_argument("--v", help="surface box, same syntax as --u")
        cmd.add_argument("--b", help="shear matrix, rows joined by ';'")
        cmd.add_argument("--r0", type=float, help="inner radius (annulus families)")
        cmd.add_argument("--r1", type=float, help="outer radius (annulus families)")
        cmd.add_argument("--scale", type=float, help="determinant scale (pq-map)")
        cmd.add_argument("--sx", type=float, help="first diagonal entry (condenser)")
        cmd.add_argument("--sy", type=float, help="second diagonal entry (condenser)")
        cmd.add_argument("--order", type=int, help="quadrature order per cell")
        cmd.add_argument("--subdivisions", type=int, help="quadrature cells per axis")
        cmd.add_argument("--seed", type=int, help="random seed, recorded in the output")
        cmd.add_argument("--output", help="path of the result file")
        cmd.add_argument("--format", choices=["json", "csv"], help="result file format")
        if name == "verify":
            cmd.add_argument("--trials", type=int, help="extremality competitor count")
        if name == "cross-validate":
            cmd.add_argument("--ladder", help="comma-separated grid resolutions")
            cmd.add_argument("--surfaces", type=int, help="surfaces per parameter axis")
            cmd.add_argument("--samples", type=int, help="samples per surface axis")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    if "command" in file_values and file_values["command"] != args.command:
        raise ConfigError(
            f"config file names command {file_values['command']!r} but "
            f"{args.command!r} was invoked"
        )

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values and file_values[name] is not None:
            return file_values[name]
        return _DEFAULTS.get(name)

    family = pick("family")
    if family is None:
        raise ConfigError("no family given; pass --family or a config file")

    parameters = dict(file_values.get("parameters") or {})
    if getattr(args, "u", None) is not None:
        parameters["u"] = _parse_box(args.u)
    if getattr(args, "v", None) is not None:
        parameters["v"] = _parse_box(args.v)
    if getattr(args, "b", None) is not None:
        parameters["b"] = _parse_matrix(args.b)
    for scalar in ("r0", "r1", "scale", "sx", "sy"):
        if getattr(args, scalar, None) is not None:
            parameters[scalar] = float(getattr(args, scalar))

    ladder = pick("ladder")
    if isinstance(ladder, str):
        ladder = _parse_ladder(ladder)
    else:
        ladder = tuple(ladder)
        if not ladder or any(type(r) is not int or r < 1 for r in ladder):
            raise ConfigError(
                f"config key 'ladder' must hold positive integer resolutions, got {list(ladder)!r}"
            )
    for count in ("surfaces", "samples"):
        if getattr(args, count, None) is not None:
            parameters[count] = int(getattr(args, count))
        value = parameters.get(count)
        if value is not None and (type(value) is not int or value < 1):
            raise ConfigError(f"{count} must be a positive integer, got {value!r}")

    config = RunConfig(
        command=args.command,
        family=str(family),
        parameters=parameters,
        p=float(pick("p")),
        order=int(pick("order")),
        subdivisions=int(pick("subdivisions")),
        ladder=ladder,
        output=pick("output"),
        format=str(pick("format")),
        seed=int(pick("seed")),
        trials=int(pick("trials")),
    )
    if config.format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {config.format!r}")
    if config.trials < 1:
        raise ConfigError("trials must be a positive integer")
    if config.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {config.seed}")
    try:
        QuadratureScheme(config.order, config.subdivisions)
        conjugate_exponent(config.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


# -- command implementations -------------------------------------------


def _run_compute(config: RunConfig) -> int:
    entry = build_entry(config.family, config.parameters, p=config.p)
    quad = QuadratureScheme(config.order, config.subdivisions)
    report = modulus_p(entry.family, config.p, quad)
    expected = float(entry.expected_modulus(config.p))
    relative_error = abs(report.modulus - expected) / abs(expected)
    payload = {
        "family": entry.name,
        "parameters": dict(entry.parameters),
        "p": report.p,
        "q": report.q,
        "modulus": report.modulus,
        "expected_modulus": expected,
        "relative_error": relative_error,
        "l_samples": [
            {"x": list(x), "l": l_val} for x, l_val in report.l_samples
        ],
        "diagnostics": {
            "min_jacobian": report.min_jacobian,
            "node_count": report.node_count,
            "quadrature": {
                "order": config.order,
                "subdivisions": config.subdivisions,
            },
        },
        "seed": config.seed,
    }
    dim = entry.family.param_box.dim
    header = [f"x{i}" for i in range(dim)] + ["l"]
    rows = [list(x) + [l_val] for x, l_val in report.l_samples]
    _write_output(payload, (header, rows), config)
    print(
        f"{entry.name}: modulus_{_format_number(config.p)} = "
        f"{report.modulus:.12g} (expected {expected:.12g}, "
        f"relative error {relative_error:.3e})"
    )
    return 0


def _check(name: str, passed: bool, value: float, tolerance: float) -> dict:
    return {"name": name, "passed": passed, "value": value, "tolerance": tolerance}


def _run_verify(config: RunConfig) -> int:
    entry = build_entry(config.family, config.parameters, p=config.p)
    quad = QuadratureScheme(config.order, config.subdivisions)
    fam = entry.family
    report = modulus_p(fam, config.p, quad)
    checks = []

    density = extremal_density(fam, config.p, quad)
    per_axis = max(2, int(np.ceil(32 ** (1.0 / fam.param_box.dim))))
    samples = fam.param_box.grid(per_axis, inset=0.01)
    surface_integrals = admissibility_check(fam, density, quad, samples)
    worst = max(abs(value - 1.0) for _, value in surface_integrals)
    checks.append(_check("admissibility", worst <= _ADMISSIBILITY_TOL, worst, _ADMISSIBILITY_TOL))

    if entry.submersion is not None:
        worst = 0.0
        for _, integrand in _COAREA_INTEGRANDS:
            lhs, rhs = coarea_check(fam, entry.submersion, integrand, quad)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        checks.append(_check("coarea", worst <= _COAREA_TOL, worst, _COAREA_TOL))
        alt = submersion_modulus(entry.submersion, fam, config.p, quad)
        gap = abs(alt.modulus - report.modulus) / report.modulus
        checks.append(_check("route-equivalence", gap <= _ROUTE_TOL, gap, _ROUTE_TOL))
    else:
        checks.append({"name": "coarea", "passed": None, "skipped": True})
        checks.append({"name": "route-equivalence", "passed": None, "skipped": True})

    gap = extremality_probe(fam, config.p, quad, trials=config.trials, seed=config.seed)
    checks.append(_check("extremality", gap >= _EXTREMALITY_SLACK, gap, _EXTREMALITY_SLACK))

    payload = {
        "family": entry.name,
        "parameters": dict(entry.parameters),
        "p": report.p,
        "modulus": report.modulus,
        "checks": checks,
        "seed": config.seed,
    }
    header = ["name", "passed", "value", "tolerance"]
    rows = [[c["name"], c["passed"], c.get("value"), c.get("tolerance")] for c in checks]
    _write_output(payload, (header, rows), config)
    failed = False
    for check in checks:
        if check.get("skipped"):
            print(f"SKIP {check['name']} (no submersion for this family)")
            continue
        status = "PASS" if check["passed"] else "FAIL"
        failed = failed or not check["passed"]
        print(
            f"{status} {check['name']}: {check['value']:.3e} "
            f"(tolerance {check['tolerance']:.1e})"
        )
    return 1 if failed else 0


def _run_cross_validate(config: RunConfig) -> int:
    entry = build_entry(config.family, config.parameters, p=config.p)
    expected = float(entry.expected_modulus(config.p))
    rng = np.random.default_rng(config.seed)
    rows = cross_validate(
        entry.family,
        config.p,
        expected,
        config.ladder,
        surfaces_count=config.parameters.get("surfaces"),
        samples_per_surface=config.parameters.get("samples"),
        rng=rng,
    )
    payload = {
        "family": entry.name,
        "parameters": dict(entry.parameters),
        "p": config.p,
        "expected_modulus": expected,
        "rows": [
            {
                "resolution": row.resolution,
                "discrete_modulus": row.discrete_modulus,
                "relative_gap": row.relative_gap,
            }
            for row in rows
        ],
        "seed": config.seed,
    }
    header = ["resolution", "discrete_modulus", "relative_gap"]
    table = [[row.resolution, row.discrete_modulus, row.relative_gap] for row in rows]
    _write_output(payload, (header, table), config)
    for row in rows:
        print(
            f"resolution {row.resolution:4d}: discrete modulus "
            f"{row.discrete_modulus:.8g} (gap {row.relative_gap:.3%})"
        )
    final_gap = rows[-1].relative_gap
    if final_gap > _ORACLE_BAND:
        print(f"FAIL final gap {final_gap:.3%} exceeds {_ORACLE_BAND:.0%}")
        return 1
    print(f"PASS final gap {final_gap:.3%} within {_ORACLE_BAND:.0%}")
    return 0


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        if config.command == "compute":
            return _run_compute(config)
        if config.command == "verify":
            return _run_verify(config)
        if config.command == "cross-validate":
            return _run_cross_validate(config)
        raise ConfigError(f"unknown command {config.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SurfmodError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: no command given", file=sys.stderr)
        return 2
    try:
        config = _build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
