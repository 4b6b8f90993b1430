"""Immersed loops with prescribed radial curvature via finite reduction.

The two-frequency ansatz R e^{i t/n} + e^{i t} (mirrored for negative
amplitudes) is perturbed along its normal by a scalar profile.  The
construction splits the curvature equation into the part orthogonal to the
kernel of phi'' + phi, solved by a contraction fixed point, and the kernel
component, removed by root-finding in the radius parameter:

1. for fixed (n, R), iterate phi <- phi - Linv P G(phi) with
   G(phi) = K(u + phi nu) - H(u + phi nu) until the update stalls,
   leaving G = lambda1 cos + lambda2 sin; for phi off the kernel this is
   the map Linv P (L phi - G(phi)) without the L that Linv would undo;
2. search r (with R = (r n)^(1/(gamma+2))) by Brent's bracketed method in
   log r, where lambda1 is closer to linear than in r, until lambda1
   vanishes, starting each fixed point from the profile of the nearest
   radius already solved and stopping it once its defect is small against
   |lambda1| (an inexact solve) unless lambda1 is at the root tolerance;
3. lambda2 vanishes by the rotational symmetry of the energy, which the
   even parity of the iteration preserves exactly; the accepted radius's
   residual and rotation-invariance integral are read off the last
   evaluation of its fixed point, not evaluated again.

All quantities here are scalar functions of one 2 pi-periodic variable:
the ansatz is only rotation-covariant over that period, but its speed,
curvature and distance from the origin are genuinely periodic, so the
whole solve runs on a single period with closed-form ansatz derivatives
and spectral derivatives of the profile.  What does not depend on R (the
nodes, the spectral symbols and the ansatz's two waves) is built once per
sample count and loop count and shared by every radius of a search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .curves import ClosedCurve, _frozen, _jet, apply_symbol, trig_resample
from .errors import (
    DegenerateSpeed,
    MaxIterationsExceeded,
    NoSignChange,
    NotContracting,
)
from .fields import RadialCurvature

__all__ = [
    "AnsatzParams",
    "LSResult",
    "LSConfig",
    "linf_invert_perp",
    "fixed_point_solve",
    "find_radius",
    "build_immersed_loop",
]


@dataclass(frozen=True)
class AnsatzParams:
    """Loop count n and inner radius R of the two-frequency ansatz.

    ``mirror`` selects the family winding the opposite way, used for
    negative amplitudes.
    """

    n: int
    R: float
    mirror: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not (0.0 < self.R < self.n):
            raise ValueError("need 0 < R < n")

    @property
    def rescale(self) -> int:
        """Denominator m of the rescaled frequencies (n -+ 1)."""
        return self.n + 1 if self.mirror else self.n - 1

    @property
    def sign(self) -> int:
        return -1 if self.mirror else 1


@dataclass(frozen=True)
class LSResult:
    n: int
    R: float
    r: float
    mirror: bool
    phi: np.ndarray  # the profile at num_samples nodes of [0, 2 pi)
    lambda1: float
    lambda2: float
    residual: float
    iterations: int
    radius_evals: int
    trace: tuple
    converged: bool
    #: why the radius search stopped: "tol_root" (Brent's method found
    #: |lambda1| <= ``tol_root``) or "bracket_end" (lambda1 evaluated to
    #: exactly 0 at an end of the bracket, so no search ran)
    stop_reason: str
    #: the rotation-invariance integral of (H - K)(w . w') over the period
    #: at the accepted radius, which vanishes for every closed curve w
    rotation_identity: float


@dataclass(frozen=True)
class LSConfig:
    """Settings of the immersed-loop solver; each field is also the config
    key of ``prescurve immersed`` that sets it.

    ``num_samples`` nodes carry the profile on one period; each fixed point
    stops at defect ``tol_fp`` or fails after ``max_iter`` iterations; the
    radius search stops at |lambda1| <= ``tol_root`` inside ``r_bracket``
    (default: ``default_bracket``); the assembled loop has
    ``samples_per_loop`` nodes for each of its n small loops.
    """

    num_samples: int = 512
    tol_fp: float = 1e-10
    tol_root: float = 1e-8
    max_iter: int = 200
    r_bracket: tuple | None = None
    samples_per_loop: int = 64

    def __post_init__(self):
        if self.num_samples < 64 or self.num_samples % 2:
            raise ValueError(
                f"'num_samples' must be even and >= 64, got {self.num_samples!r}"
            )
        if self.samples_per_loop < 8:
            raise ValueError(
                f"'samples_per_loop' must be >= 8, got {self.samples_per_loop!r}"
            )
        for key in ("tol_fp", "tol_root"):
            tol = getattr(self, key)
            if not tol > 0.0:
                raise ValueError(f"'{key}' must be positive, got {tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"'max_iter' must be >= 1, got {self.max_iter!r}")
        r = self.r_bracket
        if r is not None and not (len(r) == 2 and 0.0 < r[0] < r[1]):
            raise ValueError(f"'r_bracket' must be a pair 0 < r0 < r1, got {r!r}")


class _Grid(NamedTuple):
    """The R-free tables of the profile solve at ``num`` nodes; the
    derivative symbols come from ``curves``' shared table."""

    t: np.ndarray  # the nodes
    cos_t: np.ndarray
    sin_t: np.ndarray
    inverse: np.ndarray  # the symbol of Linv: 1/(1 - k^2), 0 on the kernel


@lru_cache(maxsize=8)
def _grid(num: int) -> _Grid:
    t = 2.0 * np.pi * np.arange(num) / num
    k = np.arange(num // 2 + 1, dtype=float)
    return _Grid(
        *_frozen(
            t,
            np.cos(t),
            np.sin(t),
            np.divide(1.0, 1.0 - k**2, out=np.zeros_like(k), where=k != 1.0),
        )
    )


def _frequencies(params: AnsatzParams, rescaled: bool = True):
    """Slow and fast frequencies of the ansatz's two waves: (+-1/m, n/m) in
    the rescaled parameter, (+-1/n, 1) in the full one."""
    m = params.rescale if rescaled else params.n
    return params.sign / m, (params.n / m) if rescaled else 1.0


@lru_cache(maxsize=8)
def _node_waves(w1: float, w2: float, num: int):
    """exp(i w1 t) and exp(i w2 t) at ``num`` uniform nodes."""
    t = _grid(num).t
    return _frozen(np.exp(1j * w1 * t), np.exp(1j * w2 * t))


def _node_frame(params: AnsatzParams, num: int) -> "_Frame":
    """The rescaled frame at ``num`` uniform nodes.  Its waves do not depend
    on R, so a radius search builds them once."""
    waves = _node_waves(*_frequencies(params), num)
    return _Frame(params, _grid(num).t, waves=waves)


class _Frame:
    """Closed-form ansatz data at sample nodes, as complex arrays.

    ``waves`` are exp(i w1 t) and exp(i w2 t) at ``t`` when the caller has
    them; by default they are computed here.
    """

    __slots__ = ("t", "u", "du", "d2u", "d3u", "nu", "dnu", "d2nu", "speed")

    def __init__(
        self, params: AnsatzParams, t: np.ndarray, rescaled: bool = True, waves=None
    ):
        R = params.R
        w1, w2 = _frequencies(params, rescaled)  # slow, fast
        if waves is None:
            waves = np.exp(1j * w1 * t), np.exp(1j * w2 * t)
        e1, e2 = waves
        self.t = t
        self.u = R * e1 + e2
        self.du = R * 1j * w1 * e1 + 1j * w2 * e2
        self.d2u = -R * w1**2 * e1 - w2**2 * e2
        self.d3u = -R * 1j * w1**3 * e1 - 1j * w2**3 * e2
        s = np.abs(self.du)
        self.speed = s
        self.nu = 1j * self.du / s
        dot12 = (self.du.conjugate() * self.d2u).real
        self.dnu = 1j * self.d2u / s - dot12 * 1j * self.du / s**3
        dot13 = (self.du.conjugate() * self.d3u).real
        abs2sq = np.abs(self.d2u) ** 2
        self.d2nu = (
            1j * self.d3u / s
            - 2.0 * dot12 * 1j * self.d2u / s**3
            - (abs2sq + dot13) * 1j * self.du / s**3
            + 3.0 * dot12**2 * 1j * self.du / s**5
        )


def linf_invert_perp(f: np.ndarray) -> np.ndarray:
    """Solve phi'' + phi = P f with phi orthogonal to cos and sin.

    Mode k maps to 1/(1 - k^2); the kernel modes are projected away, so the
    identity L(Linv f) = P f holds exactly on the truncated spectrum.
    """
    return apply_symbol(f, _grid(len(f)).inverse)


def _perturb(frame: _Frame, phi, dphi, d2phi):
    """The normal perturbation w = u + phi * normal at the frame's nodes.

    Takes the profile and its first two derivatives in the frame's
    parameter; returns ``(w, dw, kappa)`` with the signed curvature of w.
    """
    w = frame.u + phi * frame.nu
    dw = frame.du + dphi * frame.nu + phi * frame.dnu
    d2w = frame.d2u + d2phi * frame.nu + 2.0 * dphi * frame.dnu + phi * frame.d2nu
    speed = np.abs(dw)
    if speed.min() <= 1e-12 * speed.max():
        raise DegenerateSpeed("normal perturbation destroys regularity")
    return w, dw, (dw.conjugate() * d2w).imag / speed**3


def _multipliers(gap, cos_t, sin_t) -> tuple[float, float]:
    """Kernel multipliers (lambda1, lambda2) of a gap sampled at the nodes
    where ``cos_t`` and ``sin_t`` are given."""
    w = 2.0 * np.pi / len(gap) / np.pi
    return float((gap * cos_t).sum() * w), float((gap * sin_t).sum() * w)


class FixedPoint(NamedTuple):
    """A fixed-point solve and the evaluation of the iterate it stopped on."""

    phi: np.ndarray
    lambda1: float
    lambda2: float
    trace: tuple  # the defect of each iterate
    gap: np.ndarray  # K - H of w = u + phi * normal at the nodes
    w: np.ndarray
    dw: np.ndarray


def fixed_point_solve(
    params: AnsatzParams,
    h: RadialCurvature,
    config: LSConfig | None = None,
    phi0=None,
    inexact: bool = False,
):
    """Contract to the profile solving the projected curvature equation.

    The map is Q(phi) = phi - Linv P G(phi), started from ``phi0``
    (``config.num_samples`` values, its cos and sin modes dropped; default
    zero) and run until its defect sup|Q(phi) - phi| drops below
    ``config.tol_fp``.  With ``inexact`` it also stops once the defect is
    at most ``FORCING`` |lambda1| while |lambda1| > ``config.tol_root``: a
    radius that is not a root needs only the sign and rough size of
    lambda1, so a solve reaches ``tol_fp`` only where |lambda1| may be
    accepted as zero.  Every iterate stays off the kernel of L, where Q
    equals Linv(L phi - G(phi)).  Steps use secant (depth-1 Anderson)
    mixing of the last two map evaluations, which has the same fixed points
    as the plain iteration but roughly squares the convergence rate; the
    plain step is the first iterate.  Each iterate takes one forward
    transform for phi' and phi'' together and one transform pair for Linv;
    the symbols and the ansatz's waves are built once per (n, mirror,
    ``num_samples``).  Returns a ``FixedPoint``: ``(phi, lambda1, lambda2,
    trace)`` with the kernel multipliers of the residual gap and the
    per-iteration defect sizes, then that gap and the perturbed curve w
    and w' it was evaluated on.  Raises ``NotContracting`` after five
    consecutive growing defects and ``MaxIterationsExceeded`` after
    ``config.max_iter`` iterations.
    """
    config = config or LSConfig()
    num = config.num_samples
    frame = _node_frame(params, num)
    grid = _grid(num)
    if phi0 is None:
        phi = np.zeros(num)
    else:
        phi = np.array(phi0, dtype=float)
        if phi.shape != (num,):
            raise ValueError(f"phi0 must have shape ({num},), got {phi.shape}")
        phi = apply_symbol(phi, (np.arange(num // 2 + 1) != 1).astype(float))
    phi_prev = None
    res_prev = None
    trace = []
    growing = 0
    for _ in range(config.max_iter):
        w, dw, kappa = _perturb(frame, phi, *_jet(phi, 2.0 * np.pi))
        gap = kappa - h(np.abs(w))
        residual = -linf_invert_perp(gap)
        delta = float(np.abs(residual).max())
        if trace and delta > trace[-1]:
            growing += 1
            if growing >= 5:
                raise NotContracting(
                    f"defect grew for 5 consecutive iterations (now {delta:.3e})"
                )
        else:
            growing = 0
        trace.append(delta)
        lam1, lam2 = _multipliers(gap, grid.cos_t, grid.sin_t)
        if delta <= config.tol_fp or (
            inexact
            and abs(lam1) > config.tol_root
            and delta <= FORCING * abs(lam1)
        ):
            return FixedPoint(phi, lam1, lam2, tuple(trace), gap, w, dw)
        if res_prev is None:
            step = residual
        else:
            dres = residual - res_prev
            denom = float(np.dot(dres, dres))
            gamma = float(np.dot(residual, dres)) / denom if denom > 0 else 0.0
            gamma = min(max(gamma, -10.0), 10.0)
            step = residual - gamma * (phi - phi_prev + dres)
        phi_prev, res_prev = phi, residual
        phi = phi + step
    raise MaxIterationsExceeded(
        f"fixed-point defect not below {config.tol_fp:g} "
        f"after {config.max_iter} iterations"
    )


def default_bracket(h: RadialCurvature) -> tuple[float, float]:
    """Radius-parameter bracket satisfying the root-existence inequalities
    2^((gamma+2)/2) r0 < |A| gamma / 2 < r1, with 10% margins."""
    target = abs(h.A) * h.gamma / 2.0
    r0 = target / 2.0 ** ((h.gamma + 2.0) / 2.0) * 0.9
    r1 = 2.0 * target * 1.1
    return r0, r1


def _radius(r: float, n: int, gamma: float) -> float:
    return (r * n) ** (1.0 / (gamma + 2.0))


MAX_ROOT_STEPS = 200
# Eisenstat-Walker forcing term of the inexact solves in the radius search
FORCING = 0.1


def _brent(f, a: float, fa: float, b: float, fb: float, tol_f: float):
    """Root of ``f`` in the bracket [a, b] with fa * fb < 0 (Brent 1973).

    Takes inverse-quadratic or secant steps while they stay inside the
    bracket and shrink it fast enough, and bisection otherwise.  Stops when
    |f| <= ``tol_f``, when the bracket is narrower than 1e-15 max(1, |x|),
    or after ``MAX_ROOT_STEPS`` evaluations; returns the last iterate
    ``(x, f(x))``.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ROOT_STEPS):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5e-15 * max(1.0, abs(b))
        m = 0.5 * (c - b)
        if abs(fb) <= tol_f or abs(c - b) < 2.0 * tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b, fb


def find_radius(n: int, h: RadialCurvature, config: LSConfig | None = None) -> LSResult:
    """Search the radius parameter until the cosine multiplier vanishes.

    The bracket ends are solved at exactly r0 and r1; Brent's method then
    runs in s = log r, because lambda1 depends on r through the power
    R = (r n)^(1/(gamma+2)) and is far from linear in r across the
    bracket.  The accepted r is the radius that was solved.  Each
    evaluation runs the fixed point at R = (r n)^(1/(gamma+2)),
    started from the profile of the nearest radius solved so far, and
    inexactly: it stops at defect <= ``FORCING`` |lambda1| while |lambda1|
    exceeds ``config.tol_root`` (Eisenstat & Walker 1996), so every value
    Brent's bracketed method may accept as a root comes from a solve run to
    ``config.tol_fp``.  Each ``trace`` row is ``(r, lambda1, iterations,
    defect)`` for one evaluation, with the last defect of its solve; the
    result's ``iterations`` counts the solve at the accepted radius, and
    its ``residual`` and ``rotation_identity`` come from that solve's last
    evaluation.  The bracket must satisfy the root-existence inequalities
    and produce a sign change, else ``NoSignChange``;
    ``MaxIterationsExceeded`` if |lambda1| stays above ``config.tol_root``.
    """
    config = config or LSConfig()
    tol_root = config.tol_root
    mirror = h.A < 0.0
    r0, r1 = config.r_bracket or default_bracket(h)
    if not (2.0 ** ((h.gamma + 2.0) / 2.0) * r0 < abs(h.A) * h.gamma / 2.0 < r1):
        raise ValueError(
            f"bracket ({r0:g}, {r1:g}) violates the root-existence inequalities"
        )

    solved = {}  # r -> FixedPoint, in evaluation order

    def lam1_at(r: float) -> float:
        params = AnsatzParams(n=n, R=_radius(r, n, h.gamma), mirror=mirror)
        nearest = min(solved, key=lambda s: abs(s - r), default=None)
        phi0 = None if nearest is None else solved[nearest].phi
        sol = fixed_point_solve(params, h, config, phi0, inexact=True)
        solved[r] = sol
        return sol.lambda1

    def endpoint(r: float, other: float):
        # Below the asymptotic regime the contraction can fail near an
        # endpoint (the inner loops dive toward the origin); walk the
        # endpoint toward the other one until the solve succeeds.
        for _ in range(16):
            try:
                return r, lam1_at(r)
            except (NotContracting, MaxIterationsExceeded):
                r = r + 0.25 * (other - r)
        raise NotContracting(
            f"fixed point fails everywhere near the bracket end {r:g}"
        )

    r0, f_lo = endpoint(r0, r1)
    r1, f_hi = endpoint(r1, r0)
    if f_lo == 0.0:
        r_n, stop_reason = r0, "bracket_end"
    elif f_hi == 0.0:
        r_n, stop_reason = r1, "bracket_end"
    elif f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"lambda1({r0:g}) = {f_lo:.3e} and lambda1({r1:g}) = {f_hi:.3e}"
        )
    else:
        # each s = log r maps back to the exact radius solved there, and
        # the bracket ends to r0 and r1 themselves
        radius = {math.log(r0): r0, math.log(r1): r1}

        def lam1_at_log(s: float) -> float:
            radius[s] = math.exp(s)
            return lam1_at(radius[s])

        s_n, f_n = _brent(lam1_at_log, math.log(r0), f_lo, math.log(r1), f_hi, tol_root)
        r_n = radius[s_n]
        if abs(f_n) > tol_root:
            raise MaxIterationsExceeded("radius search did not reach tol_root")
        stop_reason = "tol_root"

    sol = solved[r_n]
    lam1, gap = sol.lambda1, sol.gap
    residual = float(np.abs(gap - sol.lambda2 * _grid(len(gap)).sin_t).max())
    converged = abs(lam1) <= tol_root and residual <= tol_root + 100.0 * config.tol_fp
    radial_rate = (sol.w.conjugate() * sol.dw).real
    return LSResult(
        n=n,
        R=_radius(r_n, n, h.gamma),
        r=r_n,
        mirror=mirror,
        phi=sol.phi,
        lambda1=lam1,
        lambda2=sol.lambda2,
        residual=residual,
        iterations=len(sol.trace),
        radius_evals=len(solved),
        trace=tuple((r, s.lambda1, len(s.trace), s.trace[-1]) for r, s in solved.items()),
        converged=converged,
        stop_reason=stop_reason,
        rotation_identity=float((-gap * radial_rate).sum() * 2.0 * np.pi / len(sol.phi)),
    )


def build_immersed_loop(
    n: int, h: RadialCurvature, config: LSConfig | None = None
):
    """Assemble the full immersed loop over its whole period.

    Runs the radius search, then evaluates the perturbed ansatz on the
    unrescaled parameter over period 2 pi n.  Checks that the assembled
    curve is regular, that its curvature matches H to the combined solver
    tolerance, and that it stays outside the mollification radius of h.
    """
    config = config or LSConfig()
    result = find_radius(n, h, config)
    params = AnsatzParams(n=n, R=result.R, mirror=result.mirror)
    num_total = config.samples_per_loop * n
    if num_total % 2:
        num_total += 1
    t_full = 2.0 * np.pi * n * np.arange(num_total) / num_total
    frame = _Frame(params, t_full, rescaled=False)

    rho = params.rescale / n  # d(rescaled)/d(full parameter)
    phi = result.phi
    jet = np.stack([phi, *_jet(phi, 2.0 * np.pi)], axis=1)
    # the rescaled parameter rho * t_full = 2 pi (m j mod num_total) / num_total
    # falls on the uniform grid of num_total nodes, visited in steps of m
    up = trig_resample(jet, 2.0 * np.pi, nodes=num_total)
    big = up[params.rescale * np.arange(num_total) % num_total]
    w, _, kappa = _perturb(frame, big[:, 0], rho * big[:, 1], rho**2 * big[:, 2])
    min_dist = float(np.abs(w).min())
    if min_dist <= h.s0:
        raise ValueError(
            f"assembled loop reaches |p| = {min_dist:.3f} inside the "
            f"mollification radius {h.s0:g}; the result would depend on it"
        )
    residual = float(np.abs(kappa - h(np.abs(w))).max())
    curve = ClosedCurve(
        period=2.0 * np.pi * n,
        samples=np.stack([w.real, w.imag], axis=1),
    )
    return curve, replace(
        result,
        residual=residual,
        converged=result.converged and residual <= 10.0 * config.tol_root,
    )
