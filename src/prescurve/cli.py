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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .curves import read_curve, write_curve
from .energy import build_context
from .errors import PrescurveError
from .fields import (
    DECAYING_ADMISSIBLE_NORM,
    PERIODIC_ADMISSIBLE_OSCILLATION,
    CurvatureField,
    field_from_dict,
    radial_curvature_from_dict,
    read_field,
    read_radial_curvature,
)
from .immersed import LSConfig, build_immersed_loop
from .minimize import (
    SWEEP_CSV_HEADER,
    MinimizeOptions,
    minimize_area_constrained,
    sweep_isoperimetric,
)
from .physics import (
    MagneticConfig,
    integrate_curvature_ode,
    lift_to_cylinder,
    simulate_magnetic,
    verify_solution,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
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


def _load_field(cfg) -> CurvatureField:
    if "field" not in cfg:
        raise UsageError("no field given (config key 'field' or --field PATH)")
    entry = cfg["field"]
    if isinstance(entry, str):
        path = Path(entry)
        if not path.exists():
            raise UsageError(f"field file not found: {path}")
        return read_field(path)
    return field_from_dict(entry)


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
    pass as floats, and floats must be finite.  Raises ``ValueError`` naming
    ``key`` otherwise."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float) if kind is float else int)
        ok = ok and not isinstance(value, bool) and math.isfinite(value)
    if not ok:
        raise ValueError(f"config key '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _minimize_options(cfg) -> MinimizeOptions:
    kinds = {
        "n_samples": int,
        "max_iter": int,
        "tol_grad": float,
        "tol_residual": float,
        "tol_area": float,
        "recenter": bool,
        "recenter_every": int,
    }
    kwargs = {
        key: _config_value(key, cfg[key], kind)
        for key, kind in kinds.items()
        if key in cfg
    }
    if cfg.get("initial_curve"):
        kwargs["initial"] = read_curve(cfg["initial_curve"])
    return MinimizeOptions(**kwargs)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def cmd_solve(cfg) -> int:
    field = _load_field(cfg)
    _warn_hypotheses(field)
    tau = cfg.get("tau")
    if tau is not None:
        tau = _config_value("tau", tau, float)
    if not tau:
        raise UsageError("need a nonzero area value (config key 'tau' or --tau)")
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


def _sweep_row_task(args):
    from .minimize import sweep_row

    ctx, tau, opts = args
    return sweep_row(ctx, tau, opts)


def cmd_sweep(cfg) -> int:
    field = _load_field(cfg)
    _warn_hypotheses(field)
    grid = cfg.get("tau_grid")
    if not grid:
        raise UsageError("need a nonempty 'tau_grid'")
    if not isinstance(grid, list):
        raise ValueError(f"config key 'tau_grid' must be a list, got {grid!r}")
    grid = [_config_value("tau_grid", t, float) for t in grid]
    opts = _minimize_options(cfg)
    ctx = build_context(field)
    warm = cfg.get("warm_start", True)
    jobs = int(cfg.get("jobs", 1))
    if not warm and jobs > 1 and len(grid) > 1:
        # rows are independent without warm starting; one writer below
        taus = sorted(grid)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row_task, [(ctx, t, opts) for t in taus]))
    else:
        rows = sweep_isoperimetric(ctx, grid, opts, warm_start=warm)
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


def _immersed_one(args):
    n, h, ls_kwargs = args
    curve, res = build_immersed_loop(n, h, LSConfig(**ls_kwargs))
    return n, curve, res


def cmd_immersed(cfg) -> int:
    params = cfg.get("radial_params")
    if params is not None:
        try:
            h = radial_curvature_from_dict(params)
        except ValueError as exc:
            raise UsageError(f"invalid radial parameters: {exc}") from exc
    elif isinstance(cfg.get("field"), str):
        h = read_radial_curvature(cfg["field"])
    else:
        raise UsageError("need 'radial_params' or a field file with them")

    n_list = cfg.get("n_list", [32, 64])
    if not n_list:
        raise UsageError("'n_list' must be nonempty")
    ls_kwargs = {}
    for key in ("num_samples", "tol_fp", "tol_root", "max_iter", "samples_per_loop"):
        if key in cfg:
            ls_kwargs[key] = cfg[key]
    if cfg.get("r_bracket"):
        ls_kwargs["r_bracket"] = tuple(cfg["r_bracket"])

    jobs = int(cfg.get("jobs", 1))
    tasks = [(int(n), h, ls_kwargs) for n in n_list]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_immersed_one, tasks))
    else:
        results = [_immersed_one(t) for t in tasks]

    out = _out_dir(cfg)
    docs = []
    all_ok = True
    for n, curve, res in results:
        write_curve(curve, out / f"immersed_n{n}_curve.json")
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
                "bisections": res.bisections,
                "converged": res.converged,
                "phi": [float(v) for v in res.phi.samples],
                "curve_file": f"immersed_n{n}_curve.json",
            }
        )
        all_ok = all_ok and res.converged
    _write_json(out / "immersed_results.json", docs)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def cmd_magnetic(cfg) -> int:
    b = cfg.get("b")
    if b is None and cfg.get("b_field"):
        # derive the intensity from a curvature field: b = -m v (H - lam)/e,
        # so the transverse orbit follows the shifted-curvature loop
        field = read_field(Path(cfg["b_field"]))
        lam = float(cfg.get("lam", cfg.get("lambda", 0.0)))
        mass = float(cfg.get("mass", 1.0))
        speed = float(cfg.get("speed", 1.0))
        charge = float(cfg.get("charge", 1.0))

        def b(p):  # noqa: F811
            return -mass * speed / charge * (
                float(field.value(np.atleast_2d(p))[0]) - lam
            )

    if b is None:
        raise UsageError("need a field strength 'b' or a 'b_field' file")
    kwargs = {}
    for key in (
        "charge",
        "mass",
        "speed",
        "v_parallel",
        "position",
        "direction",
        "t_final",
        "steps",
    ):
        if key in cfg:
            val = cfg[key]
            kwargs[key] = tuple(val) if isinstance(val, list) else val
    try:
        mc = MagneticConfig(b=b if callable(b) else float(b), **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sim = simulate_magnetic(mc)
    out = _out_dir(cfg)
    with open(out / "trajectory.csv", "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n")
        for t, (x, y, z) in zip(sim.times, sim.trajectory):
            fh.write(f"{float(t)!r},{float(x)!r},{float(y)!r},{float(z)!r}\n")
    center = sim.trajectory[:-1, :2].mean(axis=0)
    radii = np.hypot(*(sim.trajectory[:, :2] - center).T)
    report = {
        "gyroradius_measured": float(radii.mean()),
        "closure_defect": sim.closure_defect,
        "speed_drift": sim.speed_drift,
    }
    if not callable(b):
        report["gyroradius_expected"] = mc.mass * mc.speed / (
            abs(mc.charge) * abs(float(b))
        )
    _write_json(out / "magnetic_report.json", report)
    return EXIT_OK


def cmd_cylinder(cfg) -> int:
    if not cfg.get("curve"):
        raise UsageError("need a curve file (config key 'curve' or --curve)")
    path = Path(cfg["curve"])
    if not path.exists():
        raise UsageError(f"curve file not found: {path}")
    curve = read_curve(path)
    r_range = tuple(cfg.get("r_range", (0.5, 2.0)))
    grid = tuple(cfg.get("grid", (128, 33)))
    lift = lift_to_cylinder(curve, r_range, grid)
    out = _out_dir(cfg)
    lift.write_off(out / "cylinder.off")
    _write_json(
        out / "cylinder_report.json",
        {
            "conformality_residual": lift.conformality_residual(),
            "z_min": float(lift.vertices[:, :, 2].min()),
            "z_max": float(lift.vertices[:, :, 2].max()),
        },
    )
    return EXIT_OK


def cmd_check(cfg) -> int:
    if not cfg.get("curve"):
        raise UsageError("need a curve file (config key 'curve' or --curve)")
    path = Path(cfg["curve"])
    if not path.exists():
        raise UsageError(f"curve file not found: {path}")
    try:
        curve = read_curve(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse curve file {path}: {exc}") from exc
    field = _load_field(cfg)
    lam = float(cfg.get("lam", cfg.get("lambda", 0.0)))
    ctx = build_context(field)
    report = verify_solution(curve, ctx, lam)
    # closure of the curvature ODE restarted from the curve's initial data
    from .curves import derivative, length

    du = derivative(curve, 1)
    v0 = du[0] / np.hypot(*du[0])
    ode = integrate_curvature_ode(
        field, lam, curve.samples[0], v0, length(curve), steps=int(cfg.get("steps", 4096))
    )
    tol = float(cfg.get("tol", 1e-3))
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrescurveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
