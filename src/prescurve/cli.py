"""Command-line front end: solve, sweep, immersed, magnetic, cylinder, check.

Configuration comes from a JSON document (the same dialect as the curve and
field files); command-line flags override config keys, which override
defaults.  A solver's number and bool settings are read off its signature:
each is the config key of its parameter's name (``_config_args``).  Exit codes: 0 success, 1 numerical failure, 2 usage or
validation error.  Identical config produces byte-identical outputs
(floats are written with shortest round-trip decimals).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from ._read import read_json, read_numeric
from ._text import rows_text
from .curves import derivative, length, read_curve, write_curve
from .energy import build_context
from .errors import PrescurveError
from .fields import (
    DECAYING_ADMISSIBLE_NORM,
    PERIODIC_ADMISSIBLE_OSCILLATION,
    CurvatureField,
    _number,
    field_from_dict,
    radial_curvature_from_dict,
    read_field,
)
from .immersed import LSConfig, build_immersed_loop, find_radii
from .minimize import (
    SWEEP_CSV_HEADER,
    MinimizeOptions,
    check_tau_grid,
    minimize_area_constrained,
    sweep_isoperimetric,
)
from .physics import (
    MagneticConfig,
    gyroradius,
    integrate_curvature_ode,
    lift_to_cylinder,
    simulate_magnetic,
    verify_solution,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        cfg = read_json(args.config)
        if not isinstance(cfg, dict):
            raise ValueError(
                f"config file {args.config} must hold a JSON object, not {type(cfg).__name__}"
            )
    # flags override config keys
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key.replace("-", "_")] = value
    cfg.setdefault("out", "out")
    _check_out(cfg["out"])
    return cfg


def _check_out(value) -> None:
    """``ValueError`` naming 'out' unless ``value`` is a path that is a
    directory or whose nearest existing ancestor is one: checked before the
    work, making nothing (:func:`_out_dir` makes it after)."""
    if not isinstance(value, str):
        raise ValueError(f"config key 'out' must be a directory path, got {value!r}")
    out = Path(value)
    found = next((p for p in (out, *out.parents) if os.path.lexists(p)), Path("."))
    if not os.path.isdir(found):
        message = f"config key 'out': cannot make directory {out}: {found} is not a directory"
        raise ValueError(message)


def _out_dir(cfg) -> Path:
    """The output directory, made if missing; ``ValueError`` naming 'out'
    when it cannot be made (it names a file, or a path beneath one)."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"config key 'out': cannot make directory {out}: {exc.strerror}"
        raise ValueError(message) from None
    return out


def _config_path(cfg, key: str) -> Path:
    """The existing file named under ``key``; ``ValueError`` naming the key
    when the value is not a non-empty string or names no file."""
    value = cfg.get(key)
    if not (isinstance(value, str) and value):
        raise ValueError(f"config key '{key}' must be a file path, got {value!r}")
    path = Path(value)
    if not path.is_file():
        raise ValueError(f"config key '{key}': file not found: {path}")
    return path


def _load_field(cfg) -> CurvatureField:
    if "field" not in cfg:
        raise ValueError("no field given (config key 'field' or --field PATH)")
    value = cfg["field"]
    if isinstance(value, str):
        return read_field(_config_path(cfg, "field"))
    if not isinstance(value, dict):
        raise ValueError(
            f"config key 'field' must be a file path or a JSON object, got {value!r}"
        )
    return field_from_dict(value)[0]


def _warn_hypotheses(field: CurvatureField) -> None:
    """Print theory-hypothesis warnings without refusing to run."""
    report = field.admissibility()
    if report.get("periodic_ok") is False:
        print(
            f"warning: periodic oscillation {report['periodic_oscillation']:.4g} "
            f"exceeds the smallness threshold {PERIODIC_ADMISSIBLE_OSCILLATION:.4g}; "
            "existence is not guaranteed",
            file=sys.stderr,
        )
    if report.get("decaying_ok") is False:
        print(
            f"warning: decaying-part norm {report['lorentz_21']:.4g} exceeds "
            f"{DECAYING_ADMISSIBLE_NORM:.4g}; existence is not guaranteed",
            file=sys.stderr,
        )
    if report.get("combined_ok") is False:
        print(
            f"warning: combined smallness value {report['combined']:.4g} >= 1; "
            "existence is not guaranteed",
            file=sys.stderr,
        )


def _config_value(key: str, value, kind):
    """``value`` as ``kind``: true or false for bool, else a number by
    ``fields._number``.  Raises ``ValueError`` naming ``key`` otherwise."""
    if kind is not bool:
        return _number(key, value, kind)
    if not isinstance(value, bool):
        raise ValueError(f"config key '{key}' must be true or false, got {value!r}")
    return value


def _config_list(cfg, key: str, kind, length=None, default=None) -> tuple:
    """The nonempty list under ``key`` (of ``length`` entries, when given)
    as a tuple of ``kind`` (see ``_config_value``), or ``default`` when the
    key is absent."""
    if key not in cfg:
        return default
    value = cfg[key]
    if not (isinstance(value, list) and value and length in (None, len(value))):
        noun = "integers" if kind is int else "numbers"
        size = "nonempty" if length is None else f"{length}-entry"
        raise ValueError(f"config key '{key}' must be a {size} list of {noun}, got {value!r}")
    return tuple(_config_value(key, v, kind) for v in value)


def _config_args(cfg, fn) -> dict:
    """The config keys that ``fn``'s signature declares, as keyword
    arguments of ``fn``.  A parameter whose default is a bool, an int, a
    float or a nonempty tuple of them is the key of its name, of the
    default's kind: a scalar of its type (``_config_value``) or a list of
    as many entries of the first entry's type (``_config_list``).  Each
    such key is read from ``cfg`` when present, else set to its default;
    other parameters are left out."""
    args = {}
    for name, param in inspect.signature(fn).parameters.items():
        default = param.default
        entries = default if isinstance(default, tuple) else (default,)
        if not (entries and all(isinstance(v, (bool, int, float)) for v in entries)):
            continue
        kind = type(entries[0])
        if isinstance(default, tuple):
            args[name] = _config_list(cfg, name, kind, len(default), default)
        else:
            args[name] = _config_value(name, cfg[name], kind) if name in cfg else default
    return args


def _config_lam(cfg) -> float:
    """The multiplier shift under 'lam' (or 'lambda'), default 0."""
    key = "lam" if "lam" in cfg else "lambda"
    return _config_value(key, cfg.get(key, 0.0), float)


def _minimize_options(cfg) -> MinimizeOptions:
    kwargs = _config_args(cfg, MinimizeOptions)
    if "initial_curve" in cfg:
        kwargs["initial"] = read_curve(_config_path(cfg, "initial_curve"))
    return MinimizeOptions(**kwargs)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=1))


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _results_text(docs) -> str:
    """``json.dumps(docs, indent=1)`` for a list of loop documents whose
    "phi" values are float arrays.  A finite array is written by
    ``rows_text``, one value a line at the indentation json gives it there;
    any other is left to json, for its ``NaN`` and ``Infinity``."""
    finite = [bool(np.isfinite(doc["phi"]).all()) for doc in docs]
    text = json.dumps(
        [{**doc, "phi": None if ok else doc["phi"].tolist()} for doc, ok in zip(docs, finite)],
        indent=1,
    )
    parts = text.split('"phi": null')
    arrays = [
        "[\n   " + rows_text(doc["phi"].reshape(-1, 1), "", ",\n   ") + "\n  ]"
        if len(doc["phi"]) else "[]"
        for doc, ok in zip(docs, finite)
        if ok
    ]
    return parts[0] + "".join(f'"phi": {array}{part}' for array, part in zip(arrays, parts[1:]))


def cmd_solve(cfg) -> int:
    field = _load_field(cfg)
    _warn_hypotheses(field)
    tau = cfg.get("tau")
    if tau is not None:
        tau = _config_value("tau", tau, float)
    if not tau:
        raise ValueError("need a nonzero area value (config key 'tau' or --tau)")
    opts = _minimize_options(cfg)
    ctx = build_context(field)
    result = minimize_area_constrained(ctx, tau, opts)
    out = _out_dir(cfg)
    write_curve(result.curve, out / "minimizer_curve.json")
    _write_json(
        out / "solve_report.json",
        {
            "tau": tau,
            "lambda": result.lam,
            "energy": result.energy_value,
            "curvature_residual": result.curvature_residual,
            "area_error": result.area_error,
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        },
    )
    if not result.converged:
        print(
            f"not converged: residual {result.curvature_residual:.3e}, "
            f"area error {result.area_error:.3e} after {result.iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(cfg) -> int:
    field = _load_field(cfg)
    _warn_hypotheses(field)
    grid = check_tau_grid(_config_list(cfg, "tau_grid", float, default=()))
    kwargs = _config_args(cfg, sweep_isoperimetric)
    opts = _minimize_options(cfg)
    rows = sweep_isoperimetric(build_context(field), grid, opts, **kwargs)
    out = _out_dir(cfg)
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")
    _write_plot(out / "plot_tau_vs_SH.csv", "tau,S_H", [(r.tau, r.s_h) for r in rows])
    _write_plot(
        out / "plot_tau_vs_lambda.csv", "tau,lambda", [(r.tau, r.lam) for r in rows]
    )
    _write_plot(
        out / "plot_sqrt_tau_vs_stilde.csv",
        "sqrt_tau,stilde",
        [(math.sqrt(abs(r.tau)), r.stilde) for r in rows],
    )
    bad = [r for r in rows if not r.converged]
    if bad:
        print(f"{len(bad)} of {len(rows)} rows did not converge", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _write_plot(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for vals in rows:
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def cmd_immersed(cfg) -> int:
    params = cfg.get("radial_params")
    if params is not None:
        h = radial_curvature_from_dict(params)
    elif isinstance(cfg.get("field"), str):
        path = _config_path(cfg, "field")
        h = field_from_dict(read_numeric(path))[1]
        if h is None:
            raise ValueError(f"config key 'field': {path} has no 'radial_params'")
    else:
        raise ValueError("need 'radial_params' or a field file with them")

    n_list = _config_list(cfg, "n_list", int, default=(32, 64))
    if min(n_list) < 2:
        raise ValueError(f"config key 'n_list' entries must be >= 2, got {list(n_list)!r}")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"config key 'n_list' repeats an entry, got {list(n_list)!r}")
    config = LSConfig(
        **_config_args(cfg, LSConfig),
        r_bracket=_config_list(cfg, "r_bracket", float, length=2),
    )
    # the searches of all n run together; each loop is assembled in list
    # order, and the first n whose search failed raises there
    results = [
        build_immersed_loop(res.n, h, config, result=res)
        for res in find_radii(n_list, h, config)
    ]

    out = _out_dir(cfg)
    docs = []
    all_ok = True
    for curve, res in results:
        write_curve(curve, out / f"immersed_n{res.n}_curve.json")
        docs.append(
            {
                "n": res.n,
                "R": res.R,
                "r": res.r,
                "mirror": res.mirror,
                "lambda1": res.lambda1,
                "lambda2": res.lambda2,
                "residual": res.residual,
                "iterations": res.iterations,
                "radius_evals": res.radius_evals,
                "converged": res.converged,
                "phi": res.phi,
                "curve_file": f"immersed_n{res.n}_curve.json",
                "stop_reason": res.stop_reason,
                "rotation_identity": res.rotation_identity,
            }
        )
        all_ok = all_ok and res.converged
    _write_text(out / "immersed_results.json", _results_text(docs))
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def cmd_magnetic(cfg) -> int:
    kwargs = _config_args(cfg, MagneticConfig)
    # both the gyroradius m v / (|e| b) and the b_field map divide by e
    charge = kwargs["charge"]
    if charge == 0:
        raise ValueError(f"config key 'charge' must be nonzero, got {charge!r}")
    b = cfg.get("b")
    if b is not None:
        b = _config_value("b", b, float)
        if b == 0:
            raise ValueError(f"config key 'b' must be nonzero, got {b!r}")
    elif "b_field" in cfg:
        # derive the intensity from a curvature field: b = -m v (H - lam)/e,
        # so the transverse orbit follows the shifted-curvature loop
        lam = _config_lam(cfg)
        scale = -kwargs["mass"] * kwargs["speed"] / charge
        b = read_field(_config_path(cfg, "b_field")).mapped_at(scale, lam)
    else:
        raise ValueError("need a field strength 'b' or a 'b_field' file")
    mc = MagneticConfig(b=b, **kwargs)
    if not math.isfinite(mc.v_parallel * mc.t_final):
        raise PrescurveError("the axial position v_parallel * t_final overflows")
    sim = simulate_magnetic(mc)
    with np.errstate(over="ignore", invalid="ignore"):
        # summed as always; a sum that leaves the floats is named below
        center = sim.trajectory[:-1, :2].mean(axis=0)
        radii = np.hypot(*(sim.trajectory[:, :2] - center).T)
        measured = float(radii.mean())
    report = {
        "gyroradius_measured": measured,
        "closure_defect": sim.closure_defect,
        "speed_drift": sim.speed_drift,
    }
    if isinstance(b, float):
        report["gyroradius_expected"] = gyroradius(mc)
    for key, value in report.items():
        if not math.isfinite(value):
            raise PrescurveError(f"'{key}' overflows: {value}")
    out = _out_dir(cfg)
    text = rows_text(np.column_stack([sim.times, sim.trajectory]), ",", "\n")
    with open(out / "trajectory.csv", "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n" + text + "\n")
    _write_json(out / "magnetic_report.json", report)
    return EXIT_OK


def cmd_cylinder(cfg) -> int:
    path = _config_path(cfg, "curve")
    kwargs = _config_args(cfg, lift_to_cylinder)
    if min(kwargs["grid"]) < 2:
        raise ValueError(f"config key 'grid' entries must be >= 2, got {list(kwargs['grid'])!r}")
    curve = read_curve(path)
    lift = lift_to_cylinder(curve, **kwargs)
    out = _out_dir(cfg)
    lift.write_off(out / "cylinder.off")
    z = lift.vertices[:, :, 2]
    _write_json(
        out / "cylinder_report.json",
        {
            "conformality_residual": lift.conformality_residual(),
            "z_min": float(z.min()),
            "z_max": float(z.max()),
        },
    )
    return EXIT_OK


def cmd_check(cfg) -> int:
    steps = _config_value("steps", cfg.get("steps", 4096), int)
    tol = _config_value("tol", cfg.get("tol", 1e-3), float)
    if not tol > 0:
        raise ValueError(f"config key 'tol' must be positive, got {tol!r}")
    lam = _config_lam(cfg)
    curve = read_curve(_config_path(cfg, "curve"))
    field = _load_field(cfg)
    report = verify_solution(curve, field, lam)
    # closure of the curvature ODE restarted from the curve's initial data
    du = derivative(curve, 1)
    v0 = du[0] / np.hypot(*du[0])
    ode = integrate_curvature_ode(field.at, lam, curve.samples[0], v0, length(curve), steps)
    doc = {
        "speed_variation": report.speed_variation,
        "curvature_residual": report.curvature_residual,
        "ode_residual": report.ode_residual,
        "gradient_norm": report.gradient_norm,
        "ode_closure_defect": ode.closure_defect,
        "tolerance": tol,
        "ok": report.ok(tol) and ode.closure_defect <= tol,
    }
    _write_json(_out_dir(cfg) / "check_report.json", doc)
    if not doc["ok"]:
        print(f"check failed: {doc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a negative decimal in exponent form
    too (``-5.3e-05``, as ``repr`` writes one) as a value, not a flag; on
    Python 3.11 argparse reads only ``-5`` and ``-0.5`` as numbers.  Its
    subcommands' parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prescurve",
        description="closed planar curves with prescribed curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: out)")
        # every command runs in one process; 1 is accepted for callers that pass it
        p.add_argument("--jobs", type=int, choices=(1,), help="1: one process")

    p = sub.add_parser("solve", help="area-constrained minimization")
    common(p)
    p.add_argument("--field", help="field definition file")
    p.add_argument("--tau", type=float, help="signed area constraint")

    p = sub.add_parser("sweep", help="isoperimetric-function sweep")
    common(p)
    p.add_argument("--field", help="field definition file")

    p = sub.add_parser("immersed", help="immersed loops for radial curvature")
    common(p)
    p.add_argument("--field", help="field file with radial_params")

    p = sub.add_parser("magnetic", help="charged-particle trajectory")
    common(p)

    p = sub.add_parser("cylinder", help="lift a curve file to a cylinder mesh")
    common(p)
    p.add_argument("--curve", help="curve file")

    p = sub.add_parser("check", help="verify a curve file against a field")
    common(p)
    p.add_argument("--curve", help="curve file")
    p.add_argument("--field", help="field definition file")
    p.add_argument("--lam", type=float, help="multiplier shift")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "immersed": cmd_immersed,
    "magnetic": cmd_magnetic,
    "cylinder": cmd_cylinder,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrescurveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
