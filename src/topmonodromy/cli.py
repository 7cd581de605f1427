"""Command-line front end: simulations, invariants, spectral curves,
discriminant scans, and monodromy, emitted as JSON (stdout) and CSV files.

Every report is deterministic (stable key order, no timestamps) and carries
``schema_version``, ``command`` and ``tolerances`` (the tolerances the run
actually used).  A failure prints an object of just ``schema_version`` and
``error`` (its ``type`` and ``message``) and exits 2 for invalid input,
argparse's errors included, 1 otherwise; a failed run writes no CSV.  Each
command returns its own fields and ``main`` alone writes the report.  A
JSON config file can supply any option; explicit flags win over the file.
The ``TOPMONODROMY_TOL`` environment variable overrides the default
quadrature tolerance when no explicit value is given.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os

from .discriminant import (
    classify_special_points,
    delta_c_csv,
    g2_branch_csv,
    in_component_C,
)
from .errors import NearDiscriminantError, TopmonodromyError, ValidationError
from .periods import action_I1, action_I1_cubic
from .spectral import (
    SpectralCoeffs,
    spectral_coefficient_drift,
    spectral_from_levels,
    spectral_from_state,
)
from .topsys import (
    LevelVector,
    TopState,
    check_span,
    first_integrals,
    integrate,
    level_labels,
)
from .tracking import (
    monodromy_actions_g1,
    monodromy_periods,
    named_loop,
    parameter_loop,
    picard_lefschetz_route,
    torus_block,
)

SCHEMA_VERSION = 1
_DEFAULT_TOL = 1e-9
_TOL_ENV = "TOPMONODROMY_TOL"
_MAX_SAMPLES = 100_000  # discriminant --samples: the CSV is built in memory


def _checked_tolerance(value, label):
    """A quadrature tolerance: a finite number in (0, 1)."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{label} must be a number, got {value!r}")
    if not (0.0 < tol < 1.0) or not math.isfinite(tol):
        raise ValidationError(f"{label} must lie in (0, 1), got {value!r}")
    return tol


def _tolerance(opts):
    """--tol (flag or config), else TOPMONODROMY_TOL, else the default."""
    if opts.get("tol") is not None:
        return _checked_tolerance(opts["tol"], "--tol")
    value = os.environ.get(_TOL_ENV)
    if value is None:
        return _DEFAULT_TOL
    return _checked_tolerance(value, _TOL_ENV)


def _parse_floats(text, label):
    """Numbers from a comma-separated string or a (config file) list."""
    try:
        if isinstance(text, (list, tuple)):
            return [float(v) for v in text]
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except (TypeError, ValueError):
        raise ValidationError(f"{label} must be a comma-separated number list")


def _parse_rows(text, label):
    """Semicolon-separated rows of comma-separated numbers (or nested lists)."""
    if isinstance(text, (list, tuple)):
        return [_parse_floats(row, label) for row in text]
    return [
        _parse_floats(part, label)
        for part in str(text).split(";")
        if part.strip() != ""
    ]


def _parse_state(m, text):
    rows = _parse_rows(text, "state")
    if not rows or any(len(r) != 3 for r in rows):
        raise ValidationError("state needs rows of 3: omega;gamma_1;...;gamma_g")
    if len(rows) < 2:
        raise ValidationError("state needs at least one gamma row after omega")
    return TopState.of(m, rows[0], rows[1:])


def _cmd_simulate(opts):
    state = _parse_state(_require(opts, "m"), _require(opts, "state"))
    t_end = _opt(opts, "t", 10.0)
    dt = _opt(opts, "dt", 1e-3)
    check_span(t_end, dt)
    first_integrals(state)  # a start whose integrals overflow is invalid input
    every = opts.get("every")
    if every is None:
        every = max(1, round(t_end / dt / 1000))
    out = opts.get("out") or "trajectory.csv"
    trajectory = integrate(state, t_end, dt, sample_every=every)
    trajectory.to_csv(out)
    drift = trajectory.max_relative_drift()
    return {
        "g": state.g,
        "m": state.m,
        "t_end": t_end,
        "dt": dt,
        "sample_every": every,
        "samples": len(trajectory),
        "csv": out,
        "drift": dict(zip(level_labels(state.g), map(float, drift))),
        "spectral_drift": spectral_coefficient_drift(trajectory),
    }


def _cmd_invariants(opts):
    state = _parse_state(_require(opts, "m"), _require(opts, "state"))
    levels = first_integrals(state)
    return {
        "g": state.g,
        "m": state.m,
        "values": dict(zip(level_labels(state.g), map(float, levels.values))),
    }


def _cmd_spectral(opts):
    m = _require(opts, "m")
    if (opts.get("state") is None) == (opts.get("levels") is None):
        raise ValidationError("spectral needs exactly one of --state or --levels")
    residual = None
    if opts.get("state") is not None:
        state = _parse_state(m, opts["state"])
        coeffs = spectral_from_state(state)
        from_levels = spectral_from_levels(first_integrals(state))
        residual = max(
            abs(x - y) for x, y in zip(coeffs.a, from_levels.a)
        )
        g, m = state.g, state.m
    else:
        values = _parse_floats(opts["levels"], "levels")
        levels = LevelVector.of(m, values)
        coeffs = spectral_from_levels(levels)
        g, m = levels.g, levels.m
    report = {"g": g, "m": m, "a": list(coeffs.a), "factorization_residual": residual}
    if g in (1, 2):
        try:
            report["no_real_branch_points"] = in_component_C(coeffs)
        except NearDiscriminantError:
            report["no_real_branch_points"] = None
    return report


def _point_payload(point):
    return {
        "location": [float(point.location[0]), float(point.location[1])],
        "kind": point.kind,
        "witness": [[w.real, w.imag] for w in point.witness],
    }


def _cmd_discriminant(opts):
    g = _opt(opts, "g", 1)
    out = opts.get("out") or "discriminant.csv"
    if g == 1:
        if opts.get("c") is None:
            raise ValidationError("discriminant --g 1 needs --c")
        c = opts["c"]
        rule, floor = "u_min < u_max", -math.inf
        lo, hi = _opt(opts, "u_min", 0.2), _opt(opts, "u_max", 3.0)
    elif g == 2:
        sign = _opt(opts, "sign", 1)
        rule, floor = "0 < c2_min < c2_max", 0.0
        lo, hi = _opt(opts, "c2_min", 0.5), _opt(opts, "c2_max", 2.0)
    else:
        raise ValidationError("discriminant supports --g 1 or --g 2")
    count = _opt(opts, "samples", 61)
    if not math.isfinite(hi - lo):
        raise ValidationError(f"the sample range [{lo!r}, {hi!r}] must be finite")
    if not 2 <= count <= _MAX_SAMPLES or not floor < lo < hi:
        raise ValidationError(f"need {rule} and 2 <= samples <= {_MAX_SAMPLES}")
    xs = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
    csv_text = io.StringIO()  # written to out only once the report stands
    if g == 1:
        report = {
            "c": c,
            "samples": delta_c_csv(csv_text, c, xs),
            "special_points": [_point_payload(p) for p in classify_special_points(c)],
        }
    else:
        report = {
            "sign": sign,
            "samples": g2_branch_csv(csv_text, xs, sign=sign),
            "c2_range": [lo, hi],
        }
    with open(out, "w", newline="") as fh:
        fh.write(csv_text.getvalue())
    return {"g": g, "csv": out, **report}


def _parse_loop(opts):
    g = _opt(opts, "g", 1)
    orientation = _opt(opts, "orientation", 1)
    name = opts.get("loop")
    waypoints = opts.get("waypoints")
    if (name is None) == (waypoints is None):
        raise ValidationError("monodromy needs exactly one of --loop or --waypoints")
    if name is not None:
        loop = named_loop(name, orientation=orientation)
        if loop.g != g:
            raise ValidationError(
                f"loop {name!r} lives over genus {loop.g}, not {g}"
            )
    else:
        loop = parameter_loop(
            g, _parse_rows(waypoints, "waypoints"), orientation=orientation
        )
    base = opts.get("base")
    if base is not None:
        want = _parse_floats(base, "base")
        if len(want) != 3 or any(
            abs(a - b) > 1e-12 for a, b in zip(want, loop.base)
        ):
            raise ValidationError(
                f"--base {base} does not match the loop base {loop.base}"
            )
    return loop


def _cmd_monodromy(opts):
    loop = _parse_loop(opts)
    tol = _tolerance(opts)
    route = opts.get("route") or "periods"
    if route == "periods":
        result = monodromy_periods(loop, tol=tol)
    else:
        result = picard_lefschetz_route(loop, tol=tol)
    reduced = monodromy_actions_g1(result) if loop.g == 1 else torus_block(result)
    return {
        "name": loop.name,
        "g": loop.g,
        "route": route,
        "orientation": loop.orientation,
        "basis": list(reduced.basis),
        "matrix": [list(row) for row in reduced.matrix],
        "residual": result.residual,
        "permutation": list(result.permutation),
        "lattice_basis": list(result.basis),
        "lattice_matrix": [list(row) for row in result.matrix],
        "steps_used": result.steps_used,
        "condition": result.condition,
        "tolerances": {"quadrature": tol},
    }


def _cmd_actions(opts):
    point = _parse_floats(_require(opts, "point"), "point")
    if len(point) != 3:
        raise ValidationError("--point needs a1,a2,a3")
    area = _opt(opts, "area", 1.0)
    if not math.isfinite(area):
        raise ValidationError(f"--area must be finite, got {area!r}")
    i1 = action_I1(point, A=area)
    cross = action_I1_cubic(point, A=area)
    return {
        "point": point,
        "area": area,
        "I1": i1,
        "I2": area * point[0] / 2.0,
        "I3": area * point[2] / 2.0,
        "cross_check_residual": abs(i1 - cross),
        "tolerances": {"cross_check": 1e-8},
    }


_COMMANDS = {
    "simulate": _cmd_simulate,
    "invariants": _cmd_invariants,
    "spectral": _cmd_spectral,
    "discriminant": _cmd_discriminant,
    "monodromy": _cmd_monodromy,
    "actions": _cmd_actions,
}


def _opt(opts, key, default):
    """Option value, or the default when the option was not given (an
    explicit zero is a value, not a missing option)."""
    value = opts.get(key)
    return default if value is None else value


def _require(opts, key):
    value = opts.get(key)
    if value is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (an unknown flag, a missing or
    mistyped value) raise ValidationError, which main reports as JSON;
    --help still prints its text and exits 0."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    """The parser, and per command the argparse action of each option."""
    parser = _Parser(
        prog="topmonodromy",
        description="Spectral curves, periods, and monodromy of the "
        "generalized Lagrange top.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}

    def add(name, help_text, *specs):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of options; flags override")
        actions = (p.add_argument(flag, **kwargs) for flag, kwargs in specs)
        options[name] = {action.dest: action for action in actions}

    num = {"type": float}
    add(
        "simulate",
        "integrate the flow; write a trajectory CSV and a drift report",
        ("--m", num),
        ("--state", {"help": "omega;gamma_1;...;gamma_g rows of 3"}),
        ("--t", num),
        ("--dt", num),
        ("--every", {"type": int}),
        ("--out", {}),
    )
    add(
        "invariants",
        "first-integral values at a state",
        ("--m", num),
        ("--state", {}),
    )
    add(
        "spectral",
        "spectral-curve coefficients from a state or level values",
        ("--m", num),
        ("--state", {}),
        ("--levels", {}),
    )
    add(
        "discriminant",
        "discriminant-section CSV and special-point classification",
        ("--g", {"type": int}),
        ("--c", num),
        ("--u-min", {**num, "dest": "u_min"}),
        ("--u-max", {**num, "dest": "u_max"}),
        ("--sign", {"type": int}),
        ("--c2-min", {**num, "dest": "c2_min"}),
        ("--c2-max", {**num, "dest": "c2_max"}),
        ("--samples", {"type": int}),
        ("--out", {}),
    )
    add(
        "monodromy",
        "integer monodromy of the period lattice around a loop",
        ("--g", {"type": int}),
        ("--loop", {"help": "cushman, kappa1, kappa2, or kappa3"}),
        ("--waypoints", {"help": "x,y,z;x,y,z;... closed path"}),
        ("--base", {"help": "assert the loop base point"}),
        ("--orientation", {"type": int}),
        ("--route", {"choices": ["periods", "local"]}),
        ("--tol", num),
    )
    add(
        "actions",
        "action values I1, I2, I3 at a point with a cross-check residual",
        ("--point", {"help": "a1,a2,a3"}),
        ("--area", num),
    )
    return parser, options


def _config_value(action, value):
    """A config value read as its flag's text would be: by the option's
    type (so 1.7 is no int and true no number) and within its choices."""
    if value is None:
        return None
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise ValidationError(
                f"config option {action.dest!r} must be {action.type.__name__}, "
                f"got {value!r}"
            )
    if action.choices is not None and value not in action.choices:
        raise ValidationError(
            f"config option {action.dest!r} must be one of {list(action.choices)}, "
            f"got {value!r}"
        )
    return value


def _merge_config(args, actions):
    """Options from --config, typed by their argparse actions, overlaid by
    explicitly given flags."""
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config is None:
        return opts
    with open(args.config) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(loaded) - set(opts)
    if unknown:
        raise ValidationError(f"config has unknown options: {sorted(unknown)}")
    merged = {k: _config_value(actions[k], v) for k, v in loaded.items()}
    merged.update({k: v for k, v in opts.items() if v is not None})
    for key in opts:
        merged.setdefault(key, None)
    return merged


def main(argv=None) -> int:
    parser, options = _build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _merge_config(args, options[args.command])
        command = _COMMANDS[args.command]
        report = {"command": args.command, "tolerances": {}, **command(opts)}
        code = 0
    except (TopmonodromyError, OSError) as exc:
        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        report = {"error": {"type": kind, "message": str(exc)}}
        code = 2 if isinstance(exc, ValidationError) else 1
    report["schema_version"] = SCHEMA_VERSION
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
