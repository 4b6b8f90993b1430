"""The curvature equation as an ODE, charged-particle orbits, cylinder lift.

The second-order form u'' = L (H(u) - lam) i u' conserves |u'| exactly
(the right side is orthogonal to u'), so speed drift measures integrator
error.  A z-invariant magnetic field b reduces to the same transverse
equation through H = -e b / (m v), with free axial motion; and any
constant-speed closed solution lifts to a constant-mean-curvature-style
cylinder via (u1(theta), u2(theta), log r).

Both equations are u'' = s(u) i u', with s = L (H - lam) for the curve and
s = -(e/m) b for the orbit, so one RK4 integrator serves both: it takes H
or b as a number or a callable, checks the speed drift and measures the
closure defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    ClosedCurve,
    _curvature,
    _jet,
    _length,
    length,
    reparametrize_constant_speed,
    rot90,
    trig_resample,
)
from .energy import area_gradient, energy_gradient, pair
from .errors import StepTooLarge
from .fields import CurvatureField

__all__ = [
    "MagneticConfig",
    "OdeResult",
    "SolutionReport",
    "CylinderLift",
    "integrate_curvature_ode",
    "simulate_magnetic",
    "lift_to_cylinder",
    "verify_solution",
]


@dataclass(frozen=True)
class OdeResult:
    trajectory: np.ndarray = field(repr=False)
    velocities: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    closure_defect: float = 0.0
    speed_drift: float = 0.0


def _orbit(f, scale: float, shift: float, position, direction, speed: float,
           t_final: float, steps: int):
    """Fixed-step RK4 for u'' = s(u) i u', s(x, y) = scale (f(x, y) - shift),
    from u = ``position``, u' = ``speed`` ``direction`` over [0, t_final].

    ``f`` is a number or a callable ``(x, y) -> float`` such as
    ``CurvatureField.at`` or ``CurvatureField.mapped_at(...)``, called once
    per stage on a state of four floats.  On a field with a periodic part
    and no radial part both are the field's point evaluator, so the stage
    reads H in that one Python frame.
    Returns the (steps + 1, 4) states (x, y, u, v) at t = k t_final / steps,
    the drift of |u'| relative to ``speed`` (beyond 1e-6, or NaN, it raises
    ``StepTooLarge``) and the defect |u(T) - u(0)| + |u'(T) - u'(0)|.
    """
    if not callable(f):
        const = float(f)
        f = lambda x, y: const

    dt = t_final / steps
    h = 0.5 * dt
    w = dt / 6.0
    x, y, u, v = np.concatenate(
        [np.asarray(position, dtype=float), speed * np.asarray(direction, dtype=float)]
    ).tolist()
    out = [(x, y, u, v)]
    for _ in range(steps):
        # stage k has position (xk, yk), velocity (uk, vk), acceleration (ck, dk)
        s = scale * (f(x, y) - shift)
        c1, d1 = -(s * v), s * u
        u2, v2 = u + h * c1, v + h * d1
        s = scale * (f(x + h * u, y + h * v) - shift)
        c2, d2 = -(s * v2), s * u2
        u3, v3 = u + h * c2, v + h * d2
        s = scale * (f(x + h * u2, y + h * v2) - shift)
        c3, d3 = -(s * v3), s * u3
        u4, v4 = u + dt * c3, v + dt * d3
        s = scale * (f(x + dt * u3, y + dt * v3) - shift)
        c4, d4 = -(s * v4), s * u4
        x = x + w * (((u + 2.0 * u2) + 2.0 * u3) + u4)
        y = y + w * (((v + 2.0 * v2) + 2.0 * v3) + v4)
        u = u + w * (((c1 + 2.0 * c2) + 2.0 * c3) + c4)
        v = v + w * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
        out.append((x, y, u, v))
    path = np.array(out)
    speeds = np.hypot(path[:, 2], path[:, 3])
    drift = float(np.abs(speeds - speed).max() / speed)
    if not drift <= 1e-6:
        raise StepTooLarge(f"speed drift {drift:.3e} is not below 1e-6; reduce the step")
    defect = float(
        np.hypot(*(path[-1, :2] - path[0, :2]))
        + np.hypot(*(path[-1, 2:] - path[0, 2:]))
    )
    return path, drift, defect


def integrate_curvature_ode(
    field_like,
    lam: float,
    u0,
    v0,
    length_guess: float,
    steps: int = 2048,
) -> OdeResult:
    """Integrate u'' = length_guess * (H(u) - lam) * i u' over one unit period.

    ``field_like`` is H as a number or a callable ``(x, y) -> float``, such
    as ``CurvatureField.at``.
    ``v0`` is the unit initial direction; the initial velocity is
    length_guess * v0, so a correct guess closes the curve at t = 1.  The
    closure defect |u(1) - u(0)| + |u'(1) - u'(0)| and the relative speed
    drift are reported; a drift beyond 1e-6, or NaN, raises
    ``StepTooLarge``.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if abs(np.hypot(*v0) - 1.0) > 1e-10:
        raise ValueError("v0 must be a unit vector")
    if steps < 1:
        raise ValueError(f"'steps' must be >= 1, got {steps!r}")
    lg = float(length_guess)
    path, drift, defect = _orbit(field_like, lg, float(lam), u0, v0, lg, 1.0, steps)
    return OdeResult(
        trajectory=path[:, :2],
        velocities=path[:, 2:],
        times=np.linspace(0.0, 1.0, steps + 1),
        closure_defect=defect,
        speed_drift=drift,
    )


@dataclass(frozen=True)
class MagneticConfig:
    """Charged particle in a z-invariant magnetic field b(x, y) e_z; ``b``
    is a number or a callable ``(x, y) -> float``."""

    b: object
    charge: float = 1.0
    mass: float = 1.0
    speed: float = 1.0
    v_parallel: float = 0.0
    position: tuple = (0.0, 0.0)
    direction: tuple = (1.0, 0.0)
    t_final: float = 10.0
    steps: int = 4096

    def __post_init__(self):
        for key in ("mass", "speed", "t_final"):
            value = getattr(self, key)
            if not value > 0:
                raise ValueError(f"'{key}' must be positive, got {value!r}")
        if self.steps < 1:
            raise ValueError(f"'steps' must be >= 1, got {self.steps!r}")
        if not np.hypot(*self.direction) > 0:
            raise ValueError(f"'direction' must be a nonzero vector, got {self.direction!r}")


def simulate_magnetic(cfg: MagneticConfig) -> OdeResult:
    """Integrate the transverse gyration and attach the free axial motion.

    Returns the 3-d trajectory (x, y, z = v_parallel t); the transverse
    speed is conserved by the force's orthogonality and its drift is
    checked like the curvature ODE's.
    """
    direction = np.asarray(cfg.direction, dtype=float)
    direction = direction / np.hypot(*direction)
    # the curvature equation with L (H - lam) = -(e/m) b
    em = float(cfg.charge / cfg.mass)
    path, drift, defect = _orbit(
        cfg.b, -em, 0.0, cfg.position, direction, cfg.speed, cfg.t_final, cfg.steps
    )
    times = np.linspace(0.0, cfg.t_final, cfg.steps + 1)
    xyz = np.column_stack([path[:, 0], path[:, 1], cfg.v_parallel * times])
    return OdeResult(
        trajectory=xyz,
        velocities=path[:, 2:],
        times=times,
        closure_defect=defect,
        speed_drift=drift,
    )


def gyroradius(cfg: MagneticConfig) -> float:
    """m v / (|e| b) for constant field strength b."""
    return cfg.mass * cfg.speed / (abs(cfg.charge) * abs(float(cfg.b)))


@dataclass(frozen=True)
class CylinderLift:
    """Structured surface mesh (u1(theta), u2(theta), log r).

    The mesh is the product of the ntheta curve points and the nr values of
    log r, so it is stored as those two factors; ``vertices`` builds the
    (ntheta, nr, 3) grid from them, and ``write_off`` formats each point
    and each log r once.
    """

    theta: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)  # (ntheta, 2)

    @property
    def vertices(self) -> np.ndarray:
        """The (ntheta, nr, 3) vertex grid: point i at height log r[j]."""
        nt, nr = len(self.points), len(self.r)
        verts = np.empty((nt, nr, 3))
        verts[:, :, 0] = self.points[:, 0:1]
        verts[:, :, 1] = self.points[:, 1:2]
        verts[:, :, 2] = np.log(self.r)[None, :]
        return verts

    def faces(self) -> np.ndarray:
        """Triangle indices into the flattened vertex grid, wrapping theta.

        Quad (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
        d = (i, j+1) and gives triangles (a, b, c), (a, c, d), in order of
        i, then j.
        """
        nt, nr = len(self.points), len(self.r)
        j = np.arange(nr - 1)
        a = np.arange(nt)[:, None] * nr + j
        b = (np.arange(1, nt + 1) % nt)[:, None] * nr + j
        tris = np.stack(
            [np.stack([a, b, b + 1], axis=-1), np.stack([a, b + 1, a + 1], axis=-1)],
            axis=2,
        )
        return tris.reshape(-1, 3)

    def write_off(self, path) -> None:
        """ASCII OFF mesh: vertices (``x y z`` in shortest round-trip
        decimals, in the order of the flattened grid) then triangular
        faces."""
        xy = [f"{x!r} {y!r} " for x, y in self.points.tolist()]
        z = [repr(v) for v in np.log(self.r).tolist()]
        faces = self.faces().tolist()
        lines = ["OFF", f"{len(xy) * len(z)} {len(faces)} 0"]
        lines += [p + q for p in xy for q in z]
        lines += [f"3 {a} {b} {c}" for a, b, c in faces]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def conformality_residual(self) -> float:
        """Finite-difference sup of dU/dr . dU/dtheta over the mesh."""
        v = self.vertices
        du_theta = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / 2.0
        du_r = np.gradient(v, axis=1)
        dots = np.einsum("ijk,ijk->ij", du_theta, du_r)
        return float(np.abs(dots).max())


def lift_to_cylinder(
    curve: ClosedCurve, r_range=(0.5, 2.0), grid=(128, 33)
) -> CylinderLift:
    """Lift a closed curve to the surface (u1, u2, log r).

    The curve is reparametrized to unit speed (parameter = arclength), so
    the lift is conformal in the polar coordinates (theta, r).
    """
    ntheta, nr = grid
    r_lo, r_hi = r_range
    if not 0 < r_lo < r_hi:
        raise ValueError(f"'r_range' must have 0 < r_min < r_max, got {list(r_range)!r}")
    cs = reparametrize_constant_speed(curve)
    total = length(cs)
    theta = total * np.arange(ntheta) / ntheta
    pts = trig_resample(cs.samples, cs.period, nodes=ntheta)
    return CylinderLift(theta=theta, r=np.geomspace(r_lo, r_hi, nr), points=pts)


@dataclass(frozen=True)
class SolutionReport:
    speed_variation: float
    curvature_residual: float
    ode_residual: float
    gradient_norm: float

    def max_residual(self) -> float:
        return max(
            self.speed_variation,
            self.curvature_residual,
            self.ode_residual,
            self.gradient_norm,
        )

    def ok(self, tol: float = 1e-3) -> bool:
        return self.max_residual() <= tol


def verify_solution(curve: ClosedCurve, field: CurvatureField, lam: float) -> SolutionReport:
    """Residual report for a candidate constant-speed curvature solution.

    Four independent diagnostics: relative speed variation, curvature gap
    sup |K - H + lam|, second-order equation residual
    sup |u'' - Lbar (H - lam) i u'| with Lbar the mean speed, and the L^2
    norm of the constrained-energy gradient.  Each reads H only, so no
    vector potential is built.  The first three read one jet of the curve.
    Raises ``DegenerateSpeed``, before any diagnostic, when the speed is
    not finite (an overflowed derivative) or not bounded away from zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowed jet is named by the regularity check, not by numpy
        du, d2u = _jet(curve.samples, curve.period)
        speed = np.hypot(du[:, 0], du[:, 1])
    kappa = _curvature(curve, du, d2u, speed)  # checks regularity first
    speed_var = float((speed.max() - speed.min()) / speed.mean())
    h = field.value(curve.samples)
    curv_res = float(np.abs(kappa - h + lam).max())
    mean_speed = _length(curve, speed) / curve.period
    ode_res = float(
        np.abs(d2u - mean_speed * ((h - lam)[:, None] * rot90(du))).max()
    )
    grad = energy_gradient(curve, field) - lam * area_gradient(curve)
    grad_norm = math.sqrt(max(pair(curve, grad, grad), 0.0))
    return SolutionReport(
        speed_variation=speed_var,
        curvature_residual=curv_res,
        ode_residual=ode_res,
        gradient_norm=grad_norm,
    )
