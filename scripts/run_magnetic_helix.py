#!/usr/bin/env python3
"""Gyration demo: constant-field helix plus an orbit closed by construction.

First integrates a charge in a uniform field and compares the measured
radius with m v / (|e| b); then minimizes the constrained energy for a
periodic curvature, converts it to a field via b = -m v (H - lambda) / e,
and shows the resulting transverse orbit closes.
"""

import argparse
from pathlib import Path

import numpy as np

from prescurve import build_context, minimize_area_constrained, simulate_magnetic
from prescurve.curves import derivative, length
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve.physics import MagneticConfig, gyroradius


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--b", type=float, default=1.5)
    ap.add_argument("--out", default="out/magnetic_demo")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = MagneticConfig(
        b=args.b, charge=1.0, mass=1.0, speed=1.0, v_parallel=0.4,
        t_final=3 * 2 * np.pi / args.b, steps=8192,
    )
    sim = simulate_magnetic(cfg)
    center = sim.trajectory[:-1, :2].mean(axis=0)
    measured = float(np.hypot(*(sim.trajectory[:, :2] - center).T).mean())
    print(f"constant b={args.b}: radius {measured:.8f} vs {gyroradius(cfg):.8f}")

    grid = periodic_from_callable(
        lambda x, y: 0.4 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    field = CurvatureField.from_parts(periodic=grid)
    ctx = build_context(field)
    res = minimize_area_constrained(ctx, 1.0)
    du = derivative(res.curve, 1)
    v0 = du[0] / np.hypot(*du[0])

    def b_from_loop(x, y):
        return -field.at(x, y) + res.lam

    loop_cfg = MagneticConfig(
        b=b_from_loop, charge=1.0, mass=1.0, speed=1.0, v_parallel=0.4,
        position=tuple(res.curve.samples[0]), direction=tuple(v0),
        t_final=length(res.curve), steps=8192,
    )
    orbit = simulate_magnetic(loop_cfg)
    print(f"loop-built field: transverse closure defect {orbit.closure_defect:.3e}")
    np.savetxt(
        out / "helix.csv",
        np.column_stack([orbit.times, orbit.trajectory]),
        delimiter=",", header="t,x,y,z", comments="",
    )
    print(f"wrote {out / 'helix.csv'}")


if __name__ == "__main__":
    main()
