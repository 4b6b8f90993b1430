#!/usr/bin/env python3
"""Sweep the constrained-minimization energy over a range of areas.

Writes the sweep table and the rescaled-profile plot data for a periodic
curvature field, and prints the drift of S_H(tau)/sqrt(tau) toward the
sharp isoperimetric constant as tau shrinks.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from prescurve import build_context, sweep_isoperimetric
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve.minimize import SWEEP_CSV_HEADER, MinimizeOptions


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amplitude", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--decades", type=float, default=3.0)
    ap.add_argument("--out", default="out/sweep_demo")
    args = ap.parse_args()

    grid = periodic_from_callable(
        lambda x, y: args.amplitude * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
        m=256,
    )
    field = CurvatureField(periodic=grid)
    ctx = build_context(field)
    taus = np.geomspace(10 ** (-args.decades / 2), 10 ** (args.decades / 2), args.points)
    rows = sweep_isoperimetric(ctx, taus, MinimizeOptions())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")

    S = math.sqrt(4 * math.pi)
    print(f"{'tau':>10} {'S_H':>12} {'stilde':>10} {'|stilde-S|':>11} {'lambda':>10}")
    for row in rows:
        print(
            f"{row.tau:10.4f} {row.s_h:12.6f} {row.stilde:10.6f} "
            f"{abs(row.stilde - S):11.3e} {row.lam:10.4f}"
        )
    print(f"wrote {out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
