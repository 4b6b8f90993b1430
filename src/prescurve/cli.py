"""Command-line front end: solve, sweep, immersed, magnetic, cylinder, check.

Configuration comes from a JSON document (the same dialect as the curve and
field files); command-line flags override config keys, which override
defaults.  Exit codes: 0 success, 1 numerical failure, 2 usage or
validation error.  Identical config produces byte-identical outputs
(floats are written with shortest round-trip decimals).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .curves import derivative, length, read_curve, write_curve
from .energy import build_context
from .errors import PrescurveError
from .fields import (
    DECAYING_ADMISSIBLE_NORM,
    PERIODIC_ADMISSIBLE_OSCILLATION,
    CurvatureField,
    _read_json,
    field_from_dict,
    radial_curvature_from_dict,
    read_field,
    read_radial_curvature,
)
from .immersed import LSConfig, build_immersed_loop
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
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        cfg = _read_json(path)
        if not isinstance(cfg, dict):
            raise ValueError(
                f"config file {path} must hold a JSON object, not {type(cfg).__name__}"
            )
    # flags override config keys
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key.replace("-", "_")] = value
    cfg.setdefault("out", "out")
    cfg.setdefault("jobs", 1)
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
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
    return field_from_dict(value)


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


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}


def _config_value(key: str, value, kind):
    """``value`` as ``kind`` (int, float or bool); ints, unlike bools, also
    pass as floats, and numbers must be finite, ints within a float's
    range.  Raises ``ValueError`` naming ``key`` otherwise."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float) if kind is float else int)
        # compared exactly: math.isfinite would overflow on a huge int
        ok = ok and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not ok:
        raise ValueError(f"config key '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _config_values(cfg, kinds: dict) -> dict:
    """The keys of ``kinds`` present in ``cfg``, each checked against its
    kind by ``_config_value``."""
    return {
        key: _config_value(key, cfg[key], kind)
        for key, kind in kinds.items()
        if key in cfg
    }


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


def _config_lam(cfg) -> float:
    """The multiplier shift under 'lam' (or 'lambda'), default 0."""
    key = "lam" if "lam" in cfg else "lambda"
    return _config_value(key, cfg.get(key, 0.0), float)


def _minimize_options(cfg) -> MinimizeOptions:
    kwargs = _config_values(
        cfg,
        {
            "n_samples": int,
            "max_iter": int,
            "tol_grad": float,
            "tol_residual": float,
            "tol_area": float,
        },
    )
    if "initial_curve" in cfg:
        kwargs["initial"] = read_curve(_config_path(cfg, "initial_curve"))
    return MinimizeOptions(**kwargs)


@contextmanager
def _task_map(cfg):
    """The ``map`` that runs independent tasks: the builtin one for
    ``jobs`` 1, else the ``map`` of a pool of ``jobs`` processes, which is
    shut down on exit."""
    jobs = _config_value("jobs", cfg["jobs"], int)
    if jobs < 1:
        raise ValueError(f"config key 'jobs' must be >= 1, got {jobs!r}")
    if jobs == 1:
        yield map
        return
    # imported here: the pool machinery costs every call's start-up otherwise
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs) as pool:
        yield pool.map


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


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
    warm = _config_value("warm_start", cfg.get("warm_start", True), bool)
    opts = _minimize_options(cfg)
    with _task_map(cfg) as task_map:
        ctx = build_context(field)
        rows = sweep_isoperimetric(ctx, grid, opts, warm_start=warm, map=task_map)
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
        h = read_radial_curvature(_config_path(cfg, "field"))
    else:
        raise ValueError("need 'radial_params' or a field file with them")

    n_list = _config_list(cfg, "n_list", int, default=(32, 64))
    if min(n_list) < 2:
        raise ValueError(f"config key 'n_list' entries must be >= 2, got {list(n_list)!r}")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"config key 'n_list' repeats an entry, got {list(n_list)!r}")
    kwargs = _config_values(
        cfg,
        {
            "num_samples": int,
            "tol_fp": float,
            "tol_root": float,
            "max_iter": int,
            "samples_per_loop": int,
        },
    )
    if "r_bracket" in cfg:
        kwargs["r_bracket"] = _config_list(cfg, "r_bracket", float, length=2)
    config = LSConfig(**kwargs)
    with _task_map(cfg) as task_map:
        results = list(task_map(partial(build_immersed_loop, h=h, config=config), n_list))

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
                "phi": res.phi.tolist(),
                "curve_file": f"immersed_n{res.n}_curve.json",
                "stop_reason": res.stop_reason,
                "rotation_identity": res.rotation_identity,
            }
        )
        all_ok = all_ok and res.converged
    _write_json(out / "immersed_results.json", docs)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def cmd_magnetic(cfg) -> int:
    kwargs = _config_values(
        cfg,
        {
            "charge": float,
            "mass": float,
            "speed": float,
            "v_parallel": float,
            "t_final": float,
            "steps": int,
        },
    )
    for key in ("position", "direction"):
        if key in cfg:
            kwargs[key] = _config_list(cfg, key, float, length=2)
    # both the gyroradius m v / (|e| b) and the b_field map divide by e
    charge = kwargs.get("charge", 1.0)
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
        scale = -kwargs.get("mass", 1.0) * kwargs.get("speed", 1.0) / charge
        b = read_field(_config_path(cfg, "b_field")).mapped_at(scale, lam)
    else:
        raise ValueError("need a field strength 'b' or a 'b_field' file")
    mc = MagneticConfig(b=b, **kwargs)
    sim = simulate_magnetic(mc)
    out = _out_dir(cfg)
    rows = np.column_stack([sim.times, sim.trajectory]).tolist()
    text = "".join(f"{t!r},{x!r},{y!r},{z!r}\n" for t, x, y, z in rows)
    with open(out / "trajectory.csv", "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n" + text)
    center = sim.trajectory[:-1, :2].mean(axis=0)
    radii = np.hypot(*(sim.trajectory[:, :2] - center).T)
    report = {
        "gyroradius_measured": float(radii.mean()),
        "closure_defect": sim.closure_defect,
        "speed_drift": sim.speed_drift,
    }
    if isinstance(b, float):
        report["gyroradius_expected"] = gyroradius(mc)
    _write_json(out / "magnetic_report.json", report)
    return EXIT_OK


def cmd_cylinder(cfg) -> int:
    path = _config_path(cfg, "curve")
    r_range = _config_list(cfg, "r_range", float, length=2, default=(0.5, 2.0))
    grid = _config_list(cfg, "grid", int, length=2, default=(128, 33))
    if min(grid) < 2:
        raise ValueError(f"config key 'grid' entries must be >= 2, got {list(grid)!r}")
    curve = read_curve(path)
    lift = lift_to_cylinder(curve, r_range, grid)
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
    opts = _config_values(cfg, {"steps": int, "tol": float})
    if not opts.get("tol", 1.0) > 0:
        raise ValueError(f"config key 'tol' must be positive, got {opts['tol']!r}")
    lam = _config_lam(cfg)
    curve = read_curve(_config_path(cfg, "curve"))
    field = _load_field(cfg)
    report = verify_solution(curve, field, lam)
    # closure of the curvature ODE restarted from the curve's initial data
    du = derivative(curve, 1)
    v0 = du[0] / np.hypot(*du[0])
    ode = integrate_curvature_ode(
        field.at, lam, curve.samples[0], v0, length(curve), steps=opts.get("steps", 4096)
    )
    tol = opts.get("tol", 1e-3)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prescurve",
        description="closed planar curves with prescribed curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--jobs", type=int, help="parallel workers")

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
