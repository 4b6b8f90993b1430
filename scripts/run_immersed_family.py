#!/usr/bin/env python3
"""Build the immersed-loop family for a radial curvature profile.

The radius searches of all loop counts run together.  Prints the radius
parameter, multiplier, residual and profile norm for each loop count, and
the observed decay exponent of the profile norm.
"""

import argparse
from pathlib import Path

import numpy as np

from prescurve import RadialCurvature, build_immersed_loop, write_curve
from prescurve.immersed import LSConfig, find_radii


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--A", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--n", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--out", default="out/immersed_demo")
    args = ap.parse_args()

    h = RadialCurvature(A=args.A, gamma=args.gamma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sups = []
    print(f"{'n':>5} {'r_n':>10} {'R_n':>8} {'lambda1':>10} {'residual':>10} {'|phi|':>10}")
    config = LSConfig()
    for found in find_radii(args.n, h, config):
        n = found.n
        curve, res = build_immersed_loop(n, h, config, result=found)
        write_curve(curve, out / f"immersed_n{n}.json")
        sups.append(float(np.abs(res.phi).max()))
        print(
            f"{n:5d} {res.r:10.6f} {res.R:8.4f} {res.lambda1:10.2e} "
            f"{res.residual:10.2e} {sups[-1]:10.4e}"
        )
    if len(args.n) > 1:
        slope = np.polyfit(np.log(args.n), np.log(sups), 1)[0]
        expected = -args.gamma / (args.gamma + 2.0)
        print(f"profile-norm decay slope {slope:.3f} (asymptotic {expected:.3f})")
    print(f"wrote curve files to {out}")


if __name__ == "__main__":
    main()
