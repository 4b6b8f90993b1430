"""The curvature equation as an ODE, charged-particle orbits, cylinder lift.

The second-order form u'' = L (H(u) - lam) i u' conserves |u'| exactly
(the right side is orthogonal to u'), so speed drift measures integrator
error.  A z-invariant magnetic field b reduces to the same transverse
equation through H = -e b / (m v), with free axial motion; and any
constant-speed closed solution lifts to a constant-mean-curvature-style
cylinder via (u1(theta), u2(theta), log r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    ClosedCurve,
    curvature,
    derivative,
    length,
    reparametrize_constant_speed,
    rot90,
    trig_resample,
)
from .energy import EnergyContext, area_gradient, energy_gradient, pair
from .errors import StepTooLarge

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


def _rk4(rhs, state, t_final: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4 for the state (x, y, u, v) of four floats.

    ``rhs(x, y, u, v)`` returns the four derivatives.  Returns the
    (steps + 1, 4) array of states at t = k t_final / steps.
    """
    dt = t_final / steps
    h = 0.5 * dt
    w = dt / 6.0
    x, y, u, v = state
    out = [(x, y, u, v)]
    for _ in range(steps):
        a1, b1, c1, d1 = rhs(x, y, u, v)
        a2, b2, c2, d2 = rhs(x + h * a1, y + h * b1, u + h * c1, v + h * d1)
        a3, b3, c3, d3 = rhs(x + h * a2, y + h * b2, u + h * c2, v + h * d2)
        a4, b4, c4, d4 = rhs(x + dt * a3, y + dt * b3, u + dt * c3, v + dt * d3)
        x = x + w * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
        y = y + w * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
        u = u + w * (((c1 + 2.0 * c2) + 2.0 * c3) + c4)
        v = v + w * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
        out.append((x, y, u, v))
    return np.array(out)


def _point_function(f):
    """``(x, y) -> float`` for a curvature or field strength given as a
    callable ``(x, y) -> float`` (returned as is) or as a number."""
    if callable(f):
        return f
    const = float(f)
    return lambda x, y: const


def integrate_curvature_ode(
    field_like,
    lam: float,
    u0,
    v0,
    length_guess: float,
    steps: int = 2048,
    refine_length: bool = False,
) -> OdeResult:
    """Integrate u'' = length_guess * (H(u) - lam) * i u' over one unit period.

    ``field_like`` is H as a number or a callable ``(x, y) -> float``, such
    as ``CurvatureField.at``.
    ``v0`` is the unit initial direction; the initial velocity is
    length_guess * v0, so a correct guess closes the curve at t = 1.  The
    closure defect |u(1) - u(0)| + |u'(1) - u'(0)| and the relative speed
    drift are reported; drift beyond 1e-6 raises ``StepTooLarge``.  With
    ``refine_length`` one round of self-consistency runs first: integrate,
    locate the parameter of closest return, rescale the length guess, and
    integrate again.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if abs(np.hypot(*v0) - 1.0) > 1e-10:
        raise ValueError("v0 must be a unit vector")
    if steps < 1:
        raise ValueError("steps must be positive")
    h_at = _point_function(field_like)
    lam = float(lam)

    def make_rhs(lg):
        def rhs(x, y, u, v):
            s = lg * (h_at(x, y) - lam)
            return u, v, -(s * v), s * u

        return rhs

    lg = float(length_guess)
    if refine_length:
        # probe past t = 1 so the closest return is found whether the
        # guess over- or under-shoots, then rescale by the return time
        probe_steps = int(1.6 * steps)
        y0 = np.concatenate([u0, lg * v0]).tolist()
        path = _rk4(make_rhs(lg), y0, 1.6, probe_steps)
        dist = np.hypot(path[:, 0] - u0[0], path[:, 1] - u0[1])
        lo = probe_steps // 4
        k = lo + int(np.argmin(dist[lo:]))
        lg = lg * 1.6 * k / probe_steps

    y0 = np.concatenate([u0, lg * v0]).tolist()
    path = _rk4(make_rhs(lg), y0, 1.0, steps)
    speeds = np.hypot(path[:, 2], path[:, 3])
    drift = float(np.abs(speeds - lg).max() / lg)
    if drift > 1e-6:
        raise StepTooLarge(f"speed drift {drift:.3e} > 1e-6; reduce the step")
    defect = float(
        np.hypot(*(path[-1, :2] - path[0, :2]))
        + np.hypot(*(path[-1, 2:] - path[0, 2:]))
    )
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
        for key in ("mass", "speed"):
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
    em = float(cfg.charge / cfg.mass)
    b_at = _point_function(cfg.b)

    def rhs(x, y, u, v):
        s = -em * b_at(x, y)
        return u, v, -(s * v), s * u

    y0 = np.concatenate(
        [np.asarray(cfg.position, dtype=float), cfg.speed * direction]
    ).tolist()
    path = _rk4(rhs, y0, cfg.t_final, cfg.steps)
    speeds = np.hypot(path[:, 2], path[:, 3])
    drift = float(np.abs(speeds - cfg.speed).max() / cfg.speed)
    if drift > 1e-6:
        raise StepTooLarge(f"transverse speed drift {drift:.3e} > 1e-6")
    times = np.linspace(0.0, cfg.t_final, cfg.steps + 1)
    xyz = np.column_stack([path[:, 0], path[:, 1], cfg.v_parallel * times])
    defect = float(
        np.hypot(*(path[-1, :2] - path[0, :2]))
        + np.hypot(*(path[-1, 2:] - path[0, 2:]))
    )
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
    """Structured surface mesh (u1(theta), u2(theta), log r)."""

    theta: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    vertices: np.ndarray = field(repr=False)  # (ntheta, nr, 3)

    def faces(self) -> np.ndarray:
        """Triangle indices into the flattened vertex grid, wrapping theta.

        Quad (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
        d = (i, j+1) and gives triangles (a, b, c), (a, c, d), in order of
        i, then j.
        """
        nt, nr = self.vertices.shape[:2]
        j = np.arange(nr - 1)
        a = np.arange(nt)[:, None] * nr + j
        b = (np.arange(1, nt + 1) % nt)[:, None] * nr + j
        tris = np.stack(
            [np.stack([a, b, b + 1], axis=-1), np.stack([a, b + 1, a + 1], axis=-1)],
            axis=2,
        )
        return tris.reshape(-1, 3)

    def write_off(self, path) -> None:
        """ASCII OFF mesh: vertices then triangular faces."""
        verts = self.vertices.reshape(-1, 3).tolist()
        faces = self.faces().tolist()
        lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
        lines += [f"{x!r} {y!r} {z!r}" for x, y, z in verts]
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
    r = np.geomspace(r_lo, r_hi, nr)
    verts = np.empty((ntheta, nr, 3))
    verts[:, :, 0] = pts[:, 0:1]
    verts[:, :, 1] = pts[:, 1:2]
    verts[:, :, 2] = np.log(r)[None, :]
    return CylinderLift(theta=theta, r=r, vertices=verts)


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


def verify_solution(curve: ClosedCurve, ctx: EnergyContext, lam: float) -> SolutionReport:
    """Residual report for a candidate constant-speed curvature solution.

    Four independent diagnostics: relative speed variation, curvature gap
    sup |K - H + lam|, second-order equation residual
    sup |u'' - Lbar (H - lam) i u'| with Lbar the mean speed, and the L^2
    norm of the constrained-energy gradient.  Always returns a report.
    """
    du = derivative(curve, 1)
    d2u = derivative(curve, 2)
    speed = np.hypot(du[:, 0], du[:, 1])
    speed_var = float((speed.max() - speed.min()) / speed.mean())
    h = ctx.field.value(curve.samples)
    kappa = curvature(curve)
    curv_res = float(np.abs(kappa - h + lam).max())
    mean_speed = length(curve) / curve.period
    ode_res = float(
        np.abs(d2u - mean_speed * ((h - lam)[:, None] * rot90(du))).max()
    )
    grad = energy_gradient(curve, ctx) - lam * area_gradient(curve)
    grad_norm = math.sqrt(max(pair(curve, grad, grad), 0.0))
    return SolutionReport(
        speed_variation=speed_var,
        curvature_residual=curv_res,
        ode_residual=ode_res,
        gradient_norm=grad_norm,
    )
