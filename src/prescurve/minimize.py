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

Each trial curve is evaluated once: one jet of the unprojected trial,
u' and u'' from one forward transform through ``curves.apply_symbol``,
gives the signed area, the projection scale s and, as s u' and s u'',
the derivatives of the projected curve; one lookup of H and Q on a
shared B-spline stencil gives the objective
sqrt(sum |u'|^2 / N) + sum Q . i u' / N.  The accepted trial's u', u''
and H then make the next gradient.

A solve at more than ``COARSE_N`` nodes runs in two stages (nested
iteration, the first stage of full multigrid; Brandt, Math. Comp. 31
(1977)): the descent runs at ``COARSE_N`` nodes from the start curve
resampled there, then the coarse iterate, resampled exactly to N nodes,
starts the descent at N with the same ``tol_grad``.  The preconditioner
makes the iteration count nearly independent of N, so the finish at N
usually takes one iteration.  ``max_iter`` caps both stages together and
``iterations`` counts both; a coarse stage that stops for ``line_search``
or ``max_iter`` ends the solve there, and the final curve, multiplier and
residual are still computed at N.

A solve without an initial curve starts from the competitor circle of
area |tau| about the center, among the origin and the 8 x 8 lattice of a
periodic field (plus radial rings for a radial part), where sign(tau)
times the disc integral of H is smallest.  On a periodic-only field the
lattice discs share one stencil of the quadrature offsets and move by
whole cells (``_disc_scores``).  The derivative symbols, and the
preconditioner's (2 pi k)^2 with them, come from the shared table of
``curves``, built once per node count.

The Lagrange multiplier is extracted after the fact as the speed-weighted
mean of H - K; it is diagnostic, not an optimization variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import (
    ClosedCurve,
    _curvature,
    _derivative_symbol,
    _jet,
    apply_symbol,
    circle,
    curve_reverse,
    is_simple,
    reparametrize_constant_speed,
    rot90,
    signed_area,
    trig_resample,
)
from .energy import EnergyContext, energy
from .errors import DegenerateSpeed, FieldTooLarge, SignIncompatible
from .fields import h_and_q

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
#: Node count of the first, coarse stage of a solve at more nodes.
COARSE_N = 128
#: Competitor discs of the initial-circle search scored per field lookup.
DISCS_PER_LOOKUP = 8


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
    #: why the descent stopped: "tol_grad" (the decrement met ``tol_grad``),
    #: "line_search" (no step of the backtracking search was accepted) or
    #: "max_iter" (``max_iter`` steps were taken)
    stop_reason: str


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


def _off_side(area: float, tau: float) -> bool:
    """Whether an area is of the wrong sign, or too small, to scale onto tau."""
    return area * tau <= 0.0 or abs(area) < 1e-6 * abs(tau)


def _project_area(samples: np.ndarray, period: float, tau: float) -> np.ndarray:
    """Scale about the mean so the signed area equals tau exactly.

    A tiny wrong-sign area is repaired by reversing the parameter; a large
    one raises ``SignIncompatible``.
    """
    curve = ClosedCurve(period=period, samples=samples)
    area = signed_area(curve)
    if _off_side(area, tau):
        if abs(area) > 0.1 * abs(tau):
            raise SignIncompatible(
                f"iterate area {area:.3e} opposes target {tau:.3e}"
            )
        curve = curve_reverse(curve)
        samples = curve.samples
        area = signed_area(curve)
        if _off_side(area, tau):
            raise SignIncompatible("iterate area degenerate; cannot project")
    center = samples.mean(axis=0)
    return center + math.sqrt(tau / area) * (samples - center)


def _precondition(grad: np.ndarray, dval: float) -> np.ndarray:
    """Mode-wise Sobolev smoothing of sampled L^2 gradients (period 1),
    one per pair of columns."""
    scale = max(dval, 1e-12)
    # the symbol of -d^2/dt^2, (2 pi k)^2, is minus the real second-derivative one
    k2 = -_derivative_symbol(len(grad), 1.0, 2)[:, 0].real
    return apply_symbol(grad, 1.0 / (PRECOND_EPS + k2 / scale))


@dataclass(frozen=True)
class _Trial:
    """A trial curve projected onto the area constraint, with the data its
    objective and the next gradient read."""

    samples: np.ndarray  # the projected curve
    du: np.ndarray  # u' of the projected curve
    d2u: np.ndarray  # u'' of the projected curve
    h: np.ndarray  # H at the samples
    dval: float  # Dirichlet value sqrt(sum |u'|^2 / N)
    value: float  # objective D + A_H


def _trial(ctx: EnergyContext, samples: np.ndarray, tau: float) -> _Trial:
    """Project a curve of period 1 onto area tau and evaluate the objective.

    One jet gives u' and u'', hence the signed area and the scale s about
    the mean; the projected curve's derivatives are s u' and s u''.  An
    area that scaling cannot reach takes ``_project_area``'s
    reverse-and-retry path, which may raise ``SignIncompatible``.
    """
    n = len(samples)
    du, d2u = _jet(samples, 1.0)
    area = 0.5 * float(np.einsum("ij,ij->", samples, rot90(du))) / n
    if _off_side(area, tau):
        return _trial(ctx, _project_area(samples, 1.0, tau), tau)
    scale = math.sqrt(tau / area)
    center = samples.mean(axis=0)
    samples = center + scale * (samples - center)
    du *= scale
    d2u *= scale
    h, q = h_and_q(ctx.field, ctx.potential, samples)
    dval = math.sqrt(float(np.einsum("ij,ij->", du, du)) / n)
    value = dval + float(np.einsum("ij,ij->", q, rot90(du))) / n
    return _Trial(samples, du, d2u, h, dval, value)


def _descend(ctx: EnergyContext, cur: _Trial, tau: float, step: float, tol_grad: float):
    """One descent iteration from ``cur``: the preconditioned gradient
    projected onto the constraint's tangent space, then a backtracking
    line search from ``step``.

    Returns ``(trial, next_step, None)`` for an accepted trial, or
    ``(cur, step, reason)`` with reason "tol_grad" or "line_search" when
    the descent stops here.
    """
    n = len(cur.samples)
    du = cur.du
    speed = np.hypot(du[:, 0], du[:, 1])
    if speed.min() <= 1e-10 * speed.max():
        raise DegenerateSpeed("iterate lost regularity")
    idu = rot90(du)
    grad = -cur.d2u / cur.dval + cur.h[:, None] * idu

    # tangent projection onto the constraint, in the smoothed metric
    smoothed = _precondition(np.concatenate([grad, idu], axis=1), cur.dval)
    mg, ma = smoothed[:, :2], smoothed[:, 2:]
    denom = float(np.einsum("ij,ij->", idu, ma))
    coef = float(np.einsum("ij,ij->", idu, mg)) / denom
    direction = mg - coef * ma
    decrement = float(np.einsum("ij,ij->", grad, direction)) / n
    if decrement <= tol_grad:
        return cur, step, "tol_grad"

    alpha = step
    for _ in range(40):
        try:
            trial = _trial(ctx, cur.samples - alpha * direction, tau)
        except SignIncompatible:
            alpha *= 0.5  # step left the projectable region; shrink
            continue
        if trial.value <= cur.value - ARMIJO * alpha * decrement:
            return trial, min(alpha * 1.5, 1e3), None
        alpha *= 0.5
    return cur, step, "line_search"


def _stage(
    ctx: EnergyContext,
    cur: _Trial,
    tau: float,
    step: float,
    done: int,
    opts: MinimizeOptions,
):
    """Descend from ``cur`` until a stop, counting iterations on from
    ``done``, so that ``opts.max_iter`` caps every stage of a solve together.

    Returns ``(trial, step, iterations, stop_reason)``.
    """
    periodic_only = ctx.field.periodic is not None and ctx.field.radial is None
    for iterations in range(done + 1, opts.max_iter + 1):
        cur, step, reason = _descend(ctx, cur, tau, step, opts.tol_grad)
        if reason is not None:
            return cur, step, iterations, reason
        if periodic_only and iterations % RECENTER_EVERY == 0:
            # u', u'' and the periodic H are unchanged by an integer shift
            shift = np.round(cur.samples.mean(axis=0))
            cur = replace(cur, samples=cur.samples - shift)
    return cur, step, opts.max_iter, "max_iter"


def _disc_scores(ctx: EnergyContext, centers: np.ndarray, radius: float) -> np.ndarray:
    """Approximate integrals of H over the discs of one radius about each
    of a (K, 2) array of centers, by midpoint polar quadrature.

    On a field with a periodic part and no radial part H is 1-periodic, so
    the disc about a center on a grid node (x*M and y*M whole numbers) is
    the disc about the origin moved by whole cells: those discs share one
    lattice stencil of the quadrature offsets, and only their node indices
    move.  Other centers take the general lookup.  ``DISCS_PER_LOOKUP``
    discs share each gather, which bounds its memory whatever K is.
    """
    nr, na = 12, 24
    r_edges = radius * np.sqrt(np.linspace(0.0, 1.0, nr + 1))
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    weights = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2) / na
    ang = 2.0 * np.pi * (np.arange(na) + 0.5) / na
    offsets = np.stack(
        [r_mid[:, None] * np.cos(ang)[None, :], r_mid[:, None] * np.sin(ang)[None, :]],
        axis=-1,
    )

    def total(h):
        # the weighted sum over each disc's (nr, na) quadrature points
        return (h.reshape(-1, nr, na) * weights[:, None]).reshape(len(h), -1).sum(axis=1)

    field = ctx.field
    scores = np.empty(len(centers))
    general = np.arange(len(centers))
    if field.periodic is not None and field.radial is None:
        spline = field._spline
        nodes = centers * spline.m
        on_grid = (nodes == np.floor(nodes)).all(axis=1)
        general = np.flatnonzero(~on_grid)
        lattice = np.flatnonzero(on_grid)
        stencil = spline.lattice_stencil(offsets.reshape(-1, 2))
        for first in range(0, len(lattice), DISCS_PER_LOOKUP):
            block = lattice[first : first + DISCS_PER_LOOKUP]
            shifts = nodes[block].astype(np.intp)
            scores[block] = total(field.constant + spline.combine_shifted(stencil, shifts))
    for first in range(0, len(general), DISCS_PER_LOOKUP):
        block = general[first : first + DISCS_PER_LOOKUP]
        scores[block] = total(field.value(centers[block][:, None, None, :] + offsets))
    return scores


def _initial_circle(ctx: EnergyContext, tau: float, n: int) -> ClosedCurve:
    """The competitor circle of radius sqrt(|tau|/pi), centered where
    sign(tau) * integral of H over the disc is smallest."""
    radius = math.sqrt(abs(tau) / math.pi)
    candidates = [(0.0, 0.0)]
    if ctx.field.periodic is not None:
        grid = np.arange(8) / 8.0
        candidates += [(float(a), float(b)) for a in grid for b in grid if a or b]
    if ctx.field.radial is not None:
        for rr in (0.5, 1.0, 2.0, 4.0):
            for th in np.arange(8) * np.pi / 4.0:
                candidates.append((rr * math.cos(th), rr * math.sin(th)))
    scores = math.copysign(1.0, tau) * _disc_scores(ctx, np.array(candidates), radius)
    # a lattice symmetry of the field ties scores up to roundoff: take the
    # first candidate within roundoff of the minimum, not the roundoff winner
    cutoff = scores.min() + 1e-9 * np.abs(scores).max()
    best = candidates[int(np.argmax(scores <= cutoff))]
    # sign(tau) fixes the orientation: clockwise encloses positive area
    orientation = -1 if tau > 0 else 1
    return circle(radius, center=best, n=n, period=1.0, orientation=orientation)


def minimize_area_constrained(
    ctx: EnergyContext, tau: float, opts: MinimizeOptions | None = None
) -> MinimizeResult:
    """Minimize D(u) + A_H(u) over curves of signed area tau.

    Returns the constant-speed minimizer with its multiplier and residual
    diagnostics.  ``stop_reason`` says why the descent stopped;
    ``converged`` holds when the residual and area tolerances are met and
    the descent stopped before the iteration cap.  A result is returned
    even when the cap is hit.  Above ``COARSE_N`` samples the descent runs
    at ``COARSE_N`` nodes first; ``iterations`` counts both stages.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    opts = opts or MinimizeOptions()

    n = opts.n_samples
    n_start = min(n, COARSE_N)
    if opts.initial is not None:
        start = opts.initial
        if start.n != n_start:
            samples = trig_resample(start.samples, start.period, nodes=n_start)
            start = ClosedCurve(period=start.period, samples=samples)
        if start.period != 1.0:
            # the constrained problem is posed at period 1; the functionals
            # are parametrization covariant, so reuse the samples there
            start = ClosedCurve(period=1.0, samples=start.samples)
    else:
        start = _initial_circle(ctx, tau, n_start)

    cur, step, iterations, stop_reason = _stage(
        ctx, _trial(ctx, start.samples, tau), tau, 1.0, 0, opts
    )
    samples = cur.samples
    if n_start < n:
        # nested iteration: the coarse minimizer, resampled exactly, starts
        # the descent at n; a coarse stop other than tol_grad ends the solve
        samples = trig_resample(samples, 1.0, nodes=n)
        if stop_reason == "tol_grad":
            cur, _, iterations, stop_reason = _stage(
                ctx, _trial(ctx, samples, tau), tau, step, iterations, opts
            )
            samples = cur.samples

    final = reparametrize_constant_speed(ClosedCurve(period=1.0, samples=samples))
    final = ClosedCurve(period=1.0, samples=_project_area(final.samples, 1.0, tau))
    # u', u'', the speed, K and H of the final curve, each computed once
    du, d2u = _jet(final.samples, 1.0)
    speed = np.hypot(du[:, 0], du[:, 1])
    kappa = _curvature(final, du, d2u, speed)
    hvals = ctx.field.value(final.samples)
    lam = extract_lagrange_multiplier(kappa, hvals, speed)
    residual = float(np.abs(kappa - hvals + lam).max())
    area_error = abs(signed_area(final) - tau)
    converged = (
        residual <= opts.tol_residual
        and area_error <= opts.tol_area
        and stop_reason != "max_iter"
    )
    return MinimizeResult(
        curve=final,
        lam=lam,
        energy_value=energy(final, ctx),
        curvature_residual=residual,
        area_error=area_error,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
    )


def extract_lagrange_multiplier(
    kappa: np.ndarray, h: np.ndarray, speed: np.ndarray
) -> float:
    """Least-squares multiplier: the speed-weighted mean of H(u) - K(u),
    from K, H and the speed sampled at the curve's nodes."""
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
) -> list[SweepRow]:
    """Run the constrained minimization over a grid of area values.

    The grid must be sorted and nonzero.  Each tau is solved cold, from
    its competitor circle.  With ``warm_start`` it is also solved from the
    previous converged minimizer rescaled to the new area, and the lower
    converged energy is kept, since S_H(tau) is an infimum.  The solves
    run in turn: cold tau_1, cold tau_2, warm tau_2, cold tau_3, ...
    """
    taus = check_tau_grid(tau_grid)
    opts = opts or MinimizeOptions()
    rows = []
    prev_curve = None
    for tau in taus:
        result = minimize_area_constrained(ctx, tau, opts)
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
