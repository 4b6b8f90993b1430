"""Area-constrained minimization of the prescribed-curvature energy.

The objective is D(u) + A_H(u) with D the Dirichlet value rather than
L(u) + A_H(u): minimizers of the two coincide (they are constant-speed),
and D is differentiable at every regular curve while the length gradient
degenerates where the speed is uneven.

The descent is projected gradient with a Sobolev preconditioner: the
L^2 gradient is smoothed mode-by-mode by (eps + (2 pi k / T)^2 / D)^{-1},
which removes the k^2 stiffness of the Dirichlet term and leaves critical
points untouched.  The area constraint is enforced after every trial step
by scaling about the curve mean (the area is translation invariant and
2-homogeneous), with an integer recentering every ``RECENTER_EVERY``
iterations for periodic fields so iterates stay in a bounded slab.

The Lagrange multiplier is extracted after the fact as the speed-weighted
mean of H - K; it is diagnostic, not an optimization variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .curves import (
    ClosedCurve,
    apply_symbol,
    circle,
    curvature,
    curve_reverse,
    derivative,
    dirichlet,
    is_simple,
    reparametrize_constant_speed,
    rot90,
    signed_area,
    trig_resample,
)
from .energy import EnergyContext, anisotropic_area, energy
from .errors import DegenerateSpeed, FieldTooLarge, SignIncompatible

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "SweepRow",
    "minimize_area_constrained",
    "extract_lagrange_multiplier",
    "sweep_isoperimetric",
    "check_multiplier_bounds",
    "SWEEP_CSV_HEADER",
]

SHARP_ISOPERIMETRIC = math.sqrt(4.0 * math.pi)

SWEEP_CSV_HEADER = "tau,S_H,lambda,residual,area_error,simple,converged"

#: Zero-mode weight of the Sobolev preconditioner.
PRECOND_EPS = 1.0
#: Sufficient-decrease constant of the backtracking line search.
ARMIJO = 1e-4
#: Iterations between integer recenterings in a purely periodic field.
RECENTER_EVERY = 50


@dataclass(frozen=True)
class MinimizeOptions:
    """Descent settings; each field but ``initial`` is also the config key
    of ``prescurve solve`` and ``sweep`` that sets it."""

    n_samples: int = 256
    max_iter: int = 2000
    tol_grad: float = 1e-10
    tol_residual: float = 1e-3
    tol_area: float = 1e-8
    initial: ClosedCurve | None = None

    def __post_init__(self):
        if self.n_samples < 16 or self.n_samples % 2:
            raise ValueError(
                f"'n_samples' must be even and >= 16, got {self.n_samples!r}"
            )
        if self.max_iter < 1:
            raise ValueError(f"'max_iter' must be >= 1, got {self.max_iter!r}")
        for key in ("tol_grad", "tol_residual", "tol_area"):
            tol = getattr(self, key)
            if not tol > 0.0:
                raise ValueError(f"'{key}' must be positive, got {tol!r}")


@dataclass(frozen=True)
class MinimizeResult:
    curve: ClosedCurve
    lam: float
    energy_value: float
    curvature_residual: float
    area_error: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SweepRow:
    tau: float
    s_h: float
    lam: float
    residual: float
    area_error: float
    simple: bool
    converged: bool

    @property
    def stilde(self) -> float:
        """S_H(tau) / sqrt|tau|, the rescaled isoperimetric value."""
        return self.s_h / math.sqrt(abs(self.tau))

    def csv(self) -> str:
        return (
            f"{self.tau!r},{self.s_h!r},{self.lam!r},{self.residual!r},"
            f"{self.area_error!r},{str(self.simple).lower()},"
            f"{str(self.converged).lower()}"
        )


def _project_area(samples: np.ndarray, period: float, tau: float) -> np.ndarray:
    """Scale about the mean so the signed area equals tau exactly.

    A tiny wrong-sign area is repaired by reversing the parameter; a large
    one raises ``SignIncompatible``.
    """
    curve = ClosedCurve(period=period, samples=samples)
    area = signed_area(curve)
    if area * tau <= 0.0 or abs(area) < 1e-6 * abs(tau):
        if abs(area) > 0.1 * abs(tau):
            raise SignIncompatible(
                f"iterate area {area:.3e} opposes target {tau:.3e}"
            )
        curve = curve_reverse(curve)
        samples = curve.samples
        area = signed_area(curve)
        if area * tau <= 0.0 or abs(area) < 1e-6 * abs(tau):
            raise SignIncompatible("iterate area degenerate; cannot project")
    center = samples.mean(axis=0)
    return center + math.sqrt(tau / area) * (samples - center)


def _precondition(grad: np.ndarray, dval: float) -> np.ndarray:
    """Mode-wise Sobolev smoothing of a sampled L^2 gradient (period 1)."""
    scale = max(dval, 1e-12)
    return apply_symbol(
        grad, lambda k: 1.0 / (PRECOND_EPS + (2.0 * np.pi * k) ** 2 / scale)
    )


def _disc_center_score(ctx: EnergyContext, center, radius: float) -> float:
    """Approximate integral of H over a disc via midpoint polar quadrature."""
    nr, na = 12, 24
    r_edges = radius * np.sqrt(np.linspace(0.0, 1.0, nr + 1))
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    weights = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2) / na
    ang = 2.0 * np.pi * (np.arange(na) + 0.5) / na
    px = center[0] + r_mid[:, None] * np.cos(ang)[None, :]
    py = center[1] + r_mid[:, None] * np.sin(ang)[None, :]
    h = ctx.field.value(np.stack([px, py], axis=-1))
    return float((h * weights[:, None]).sum())


def _initial_circle(ctx: EnergyContext, tau: float, n: int) -> ClosedCurve:
    """The competitor circle of radius sqrt(|tau|/pi), centered where
    sign(tau) * integral of H over the disc is smallest."""
    radius = math.sqrt(abs(tau) / math.pi)
    candidates = [(0.0, 0.0)]
    if ctx.field.periodic is not None:
        grid = np.arange(8) / 8.0
        candidates += [(float(a), float(b)) for a in grid for b in grid]
    if ctx.field.radial is not None:
        for rr in (0.5, 1.0, 2.0, 4.0):
            for th in np.arange(8) * np.pi / 4.0:
                candidates.append((rr * math.cos(th), rr * math.sin(th)))
    best = min(
        candidates,
        key=lambda c: math.copysign(1.0, tau) * _disc_center_score(ctx, c, radius),
    )
    # sign(tau) fixes the orientation: clockwise encloses positive area
    orientation = -1 if tau > 0 else 1
    return circle(radius, center=best, n=n, period=1.0, orientation=orientation)


def _objective(samples: np.ndarray, ctx: EnergyContext) -> float:
    u = ClosedCurve(period=1.0, samples=samples)
    return dirichlet(u) + anisotropic_area(u, ctx)


def minimize_area_constrained(
    ctx: EnergyContext, tau: float, opts: MinimizeOptions | None = None
) -> MinimizeResult:
    """Minimize D(u) + A_H(u) over curves of signed area tau.

    Returns the constant-speed minimizer with its multiplier and residual
    diagnostics; ``converged`` reflects the residual and area tolerances,
    and a result is returned even when the iteration cap is hit.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    opts = opts or MinimizeOptions()

    if opts.initial is not None:
        start = opts.initial
        if start.n != opts.n_samples:
            t_new = start.period * np.arange(opts.n_samples) / opts.n_samples
            start = ClosedCurve(
                period=start.period,
                samples=trig_resample(start.samples, start.period, t_new),
            )
        if start.period != 1.0:
            # the constrained problem is posed at period 1; the functionals
            # are parametrization covariant, so reuse the samples there
            start = ClosedCurve(period=1.0, samples=start.samples)
    else:
        start = _initial_circle(ctx, tau, opts.n_samples)

    samples = _project_area(start.samples, 1.0, tau)
    f_cur = _objective(samples, ctx)
    step = 1.0
    iterations = 0
    periodic_only = ctx.field.periodic is not None and ctx.field.radial is None

    for iterations in range(1, opts.max_iter + 1):
        u = ClosedCurve(period=1.0, samples=samples)
        du = derivative(u, 1)
        speed = np.hypot(du[:, 0], du[:, 1])
        if speed.min() <= 1e-10 * speed.max():
            raise DegenerateSpeed("iterate lost regularity")
        dval = math.sqrt((speed**2).sum() / u.n)
        h = ctx.field.value(samples)
        idu = rot90(du)
        grad = -derivative(u, 2) / dval + h[:, None] * idu

        # tangent projection onto the constraint, in the smoothed metric
        mg = _precondition(grad, dval)
        ma = _precondition(idu, dval)
        denom = float(np.einsum("ij,ij->", idu, ma))
        coef = float(np.einsum("ij,ij->", idu, mg)) / denom
        direction = mg - coef * ma
        decrement = float(np.einsum("ij,ij->", grad, direction)) / u.n

        if decrement <= opts.tol_grad:
            break

        accepted = False
        alpha = step
        for _ in range(40):
            try:
                trial = _project_area(samples - alpha * direction, 1.0, tau)
            except SignIncompatible:
                alpha *= 0.5  # step left the projectable region; shrink
                continue
            f_try = _objective(trial, ctx)
            if f_try <= f_cur - ARMIJO * alpha * decrement:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        samples, f_cur = trial, f_try
        step = min(alpha * 1.5, 1e3)

        if periodic_only and iterations % RECENTER_EVERY == 0:
            shift = np.round(samples.mean(axis=0))
            samples = samples - shift

    final = reparametrize_constant_speed(ClosedCurve(period=1.0, samples=samples))
    final = ClosedCurve(period=1.0, samples=_project_area(final.samples, 1.0, tau))
    lam = extract_lagrange_multiplier(final, ctx)
    kappa = curvature(final)
    hvals = ctx.field.value(final.samples)
    residual = float(np.abs(kappa - hvals + lam).max())
    area_error = abs(signed_area(final) - tau)
    converged = (
        residual <= opts.tol_residual
        and area_error <= opts.tol_area
        and iterations < opts.max_iter
    )
    return MinimizeResult(
        curve=final,
        lam=lam,
        energy_value=energy(final, ctx),
        curvature_residual=residual,
        area_error=area_error,
        iterations=iterations,
        converged=converged,
    )


def extract_lagrange_multiplier(curve: ClosedCurve, ctx: EnergyContext) -> float:
    """Least-squares multiplier: the speed-weighted mean of H(u) - K(u)."""
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    kappa = curvature(curve)
    h = ctx.field.value(curve.samples)
    return float(((h - kappa) * speed).sum() / speed.sum())


def _row_from_result(tau: float, result: MinimizeResult) -> SweepRow:
    simple, _ = is_simple(result.curve)
    return SweepRow(
        tau=tau,
        s_h=result.energy_value,
        lam=result.lam,
        residual=result.curvature_residual,
        area_error=result.area_error,
        simple=simple,
        converged=result.converged,
    )


def check_tau_grid(tau_grid) -> list[float]:
    """The grid as floats; ``ValueError`` naming 'tau_grid' unless it is
    nonempty, nonzero and sorted."""
    taus = [float(t) for t in tau_grid]
    if len(taus) == 0:
        raise ValueError("'tau_grid' is empty")
    if any(t == 0.0 for t in taus):
        raise ValueError("'tau_grid' entries must be nonzero")
    if taus != sorted(taus):
        raise ValueError("'tau_grid' must be sorted")
    return taus


def sweep_isoperimetric(
    ctx: EnergyContext,
    tau_grid,
    opts: MinimizeOptions | None = None,
    warm_start: bool = True,
    map=map,
) -> list[SweepRow]:
    """Run the constrained minimization over a grid of area values.

    The grid must be sorted and nonzero.  Each tau is solved cold, from
    its competitor circle, through ``map(solve, taus)``, whose results are
    read lazily in tau order: the builtin ``map`` runs the solves in turn,
    a process pool's ``map`` concurrently.  With ``warm_start`` each tau is
    also solved, in the calling process, from the previous converged
    minimizer rescaled to the new area, and the lower converged energy is
    kept, since S_H(tau) is an infimum.  With the builtin ``map`` the
    solves run in the order cold tau_1, cold tau_2, warm tau_2, cold
    tau_3, ...
    """
    taus = check_tau_grid(tau_grid)
    opts = opts or MinimizeOptions()
    rows = []
    prev_curve = None
    cold = map(partial(minimize_area_constrained, ctx, opts=opts), taus)
    for tau, result in zip(taus, cold):
        if warm_start and prev_curve is not None:
            warm = minimize_area_constrained(
                ctx, tau, replace(opts, initial=prev_curve)
            )
            if warm.converged and (
                not result.converged or warm.energy_value < result.energy_value
            ):
                result = warm
        rows.append(_row_from_result(tau, result))
        if result.converged:
            prev_curve = result.curve
    return rows


def check_multiplier_bounds(tau: float, lam: float, ctx: EnergyContext):
    """Two-sided bound on the multiplier of an area-tau minimizer.

    The constants come from the potential's zero-mean sup norm q and the
    zero-mean curvature sup: C1 = (1+q)/(1-q) * S/2 and
    C2 = ((1+q)/(1-q))^2 * |H|_inf, bounding
    S/(2 sqrt|tau|) - C2 <= sign(tau) * (lam - [H]) <= C1/sqrt|tau| + C2.
    Returns ``(ok, (lower_margin, upper_margin))``.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    q = ctx.potential.sup_zero_mean()
    if q >= 1.0:
        raise FieldTooLarge(f"|Q|_inf bound {q:.3f} >= 1")
    h_sup = ctx.field.zero_mean_sup()
    ratio = (1.0 + q) / (1.0 - q)
    c1 = ratio * SHARP_ISOPERIMETRIC / 2.0
    c2 = ratio**2 * h_sup
    lam_shifted = math.copysign(1.0, tau) * (lam - ctx.field.constant)
    lower = SHARP_ISOPERIMETRIC / (2.0 * math.sqrt(abs(tau))) - c2
    upper = c1 / math.sqrt(abs(tau)) + c2
    margins = (lam_shifted - lower, upper - lam_shifted)
    ok = margins[0] >= -1e-9 and margins[1] >= -1e-9
    return ok, margins
