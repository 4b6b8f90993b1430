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

All quantities here are scalar functions of one 2 pi-periodic variable.
In the rescaled parameter the ansatz's two frequencies differ by exactly 1,
so what the reduction reads of it (speed, curvature, distance from the
origin) is a closed-form function of cos t and sin t, and the perturbed
curve's curvature follows from the normal-graph formula in real arithmetic.
The R-free tables (cos t, sin t and the spectral symbols) are built once
per sample count and shared by every radius of a search.

Each search is a generator that yields its fixed-point requests, and one
routine answers them: the searches of several loop counts (``find_radii``;
``find_radius`` is the family of one) run in lockstep, every fixed-point
iteration one pass over the stack of their live solves, with each row's
arithmetic that of a lone solve.  ``fixed_point_solve``, one solve on its
own, is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .curves import (
    ClosedCurve,
    _derivative_symbol,
    _frozen,
    _jet,
    apply_symbol,
    trig_resample,
)
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
    "find_radius",
    "find_radii",
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
    """The R-free tables at ``num`` uniform nodes of one period; the
    derivative symbols come from ``curves``' shared table."""

    cos_t: np.ndarray
    sin_t: np.ndarray
    inverse: np.ndarray  # the symbol of Linv: 1/(1 - k^2), 0 on the kernel
    perp: np.ndarray  # the symbol of P: 1, 0 on the kernel


@lru_cache(maxsize=8)
def _grid(num: int) -> _Grid:
    t = 2.0 * np.pi * np.arange(num) / num
    k = np.arange(num // 2 + 1, dtype=float)
    inverse = np.divide(1.0, 1.0 - k**2, out=np.zeros_like(k), where=k != 1.0)
    return _Grid(*_frozen(np.cos(t), np.sin(t), inverse, (k != 1.0).astype(float)))


def _frequencies(params: AnsatzParams) -> tuple[float, float]:
    """Slow and fast frequencies (a, b) = (+-1/m, n/m) of the ansatz's two
    waves in the rescaled parameter; b - a = 1 in both families."""
    return params.sign / params.rescale, params.n / params.rescale


class _Ansatz(NamedTuple):
    """Rotation invariants of the ansatz u = R e^{iat} + e^{ibt} at nodes of
    the rescaled parameter, with s = |u'|, kappa the curvature of u and nu
    its unit normal i u'/s."""

    s: np.ndarray
    ds: np.ndarray  # s'
    ks: np.ndarray  # kappa s
    dks: np.ndarray  # (kappa s)'
    u2: np.ndarray  # |u|^2
    unu: np.ndarray  # u . nu
    dunu: np.ndarray  # (u . nu)'
    udu: np.ndarray  # u . u'


def _ansatz(params: AnsatzParams, cos_t: np.ndarray, sin_t: np.ndarray) -> _Ansatz:
    """The ansatz's invariants at the nodes where ``cos_t`` and ``sin_t``
    are given: each is a function of cos t and sin t alone, since b - a = 1.
    s^2 = R^2 a^2 + b^2 + 2 R a b cos t and kappa s^3 = R^2 a^3 + b^3
    + R a b (a + b) cos t."""
    R = params.R
    a, b = _frequencies(params)
    rab, rapb = R * a * b, R * (a + b)
    s2 = R * R * a * a + b * b + 2.0 * rab * cos_t
    s = np.sqrt(s2)
    ds = -rab * sin_t / s
    ks = (R * R * a**3 + b**3 + rab * (a + b) * cos_t) / s2
    dks = (-rab * (a + b) * sin_t - 2.0 * ks * s * ds) / s2
    unu = -(R * R * a + b + rapb * cos_t) / s
    dunu = (rapb * sin_t - unu * ds) / s
    return _Ansatz(s, ds, ks, dks, R * R + 1.0 + 2.0 * R * cos_t, unu, dunu, -R * sin_t)


def _graph(ans: _Ansatz, phi, dphi, d2phi):
    """Distance from the origin and signed curvature of w = u + phi nu.

    Takes the profile and its first two derivatives at the nodes of ``ans``.
    With T = u'/s, w' = A T + phi' nu and w'' = (A' - kappa s phi') T
    + (kappa s A + phi'') nu for A = s (1 - kappa phi), so
    K(w) = (A (kappa s A + phi'') - phi' (A' - kappa s phi')) / |w'|^3 with
    |w'|^2 = A^2 + phi'^2, and |w|^2 = |u|^2 + (2 u . nu + phi) phi.
    Rows of (B, N) arrays are B curves.  Also returns whether each curve
    has lost regularity, its speed nearly vanishing: a bool, or a (B,)
    array.  Such a curve's K may be infinite or NaN, with no warning.
    """
    A = ans.s - ans.ks * phi
    dA = ans.ds - ans.dks * phi - ans.ks * dphi
    speed2 = A * A + dphi * dphi
    degenerate = speed2.min(axis=-1) <= 1e-24 * speed2.max(axis=-1)
    cross = A * (ans.ks * A + d2phi) - dphi * (dA - ans.ks * dphi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = cross / (speed2 * np.sqrt(speed2))
    # rounding can take |w|^2 a hair below 0 where w passes the origin
    dist = np.sqrt(np.maximum(ans.u2 + (2.0 * ans.unu + phi) * phi, 0.0))
    return dist, kappa, degenerate


def _radial_rate(ans: _Ansatz, phi, dphi) -> np.ndarray:
    """w . w' of w = u + phi nu: half the derivative of |w|^2."""
    return ans.udu + dphi * ans.unu + phi * (ans.dunu + dphi)


def linf_invert_perp(f: np.ndarray) -> np.ndarray:
    """Solve phi'' + phi = P f with phi orthogonal to cos and sin.

    Mode k maps to 1/(1 - k^2); the kernel modes are projected away, so the
    identity L(Linv f) = P f holds exactly on the truncated spectrum.  A
    (B, N) ``f`` is B profiles, each solved as it would be alone.
    """
    f = np.asarray(f, dtype=float)
    return apply_symbol(f.T, _grid(f.shape[-1]).inverse).T


def _along_rows(stack: np.ndarray, symbol: np.ndarray):
    """``apply_symbol`` on each row of the C-contiguous (B, N) ``stack``,
    one C-contiguous (B, N) array per column of ``symbol``: a sum along a
    row of it then adds in the order of a sum over that row alone."""
    out = apply_symbol(stack.T, symbol)
    return [np.ascontiguousarray(out[..., j].T) for j in range(out.shape[-1])]


def _multipliers(gap, cos_t, sin_t):
    """Kernel multipliers (lambda1, lambda2) of each row of a gap sampled
    at the nodes where ``cos_t`` and ``sin_t`` are given."""
    w = 2.0 * np.pi / gap.shape[-1] / np.pi
    return (gap * cos_t).sum(axis=-1) * w, (gap * sin_t).sum(axis=-1) * w


class FixedPoint(NamedTuple):
    """A fixed-point solve and the evaluation of the iterate it stopped on."""

    phi: np.ndarray
    lambda1: float
    lambda2: float
    trace: tuple  # the defect of each iterate
    gap: np.ndarray  # K - H of w = u + phi * normal at the nodes
    radial_rate: np.ndarray  # w . w' at the nodes


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
    the ansatz's invariants are built once per solve from the shared cos t
    and sin t tables.  Returns a ``FixedPoint``: ``(phi, lambda1, lambda2,
    trace)`` with the kernel multipliers of the residual gap and the
    per-iteration defect sizes, then that gap and w . w' of the perturbed
    curve w it was evaluated on.  Raises ``NotContracting`` after five
    consecutive growing defects and ``MaxIterationsExceeded`` after
    ``config.max_iter`` iterations.  This is the batch of one of the
    lockstep kernel that ``find_radii`` runs its searches on.
    """
    config = config or LSConfig()
    num = config.num_samples
    if phi0 is not None:
        phi0 = np.asarray(phi0, dtype=float)
        if phi0.shape != (num,):
            raise ValueError(f"phi0 must have shape ({num},), got {phi0.shape}")

    def one():
        return (yield params, phi0)

    return _value(_lockstep([one()], h, config, inexact)[0])


def _value(outcome):
    """What a search returned, or raise the exception it raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _Solve:
    """A live solve of ``_lockstep``: the index of its search, its defects
    so far and its run of growing defects."""

    __slots__ = ("search", "trace", "growing")

    def __init__(self, search: int):
        self.search, self.trace, self.growing = search, [], 0


def _secant(phi, phi_prev, residual, res_prev):
    """The secant (depth-1 Anderson) step of each row from its last two
    iterates and their residuals, the weight clipped to [-10, 10]."""
    dres = residual - res_prev
    gamma = np.empty((len(dres), 1))
    for j, (res, d) in enumerate(zip(residual, dres)):
        denom = float(np.dot(d, d))
        g = float(np.dot(res, d)) / denom if denom > 0 else 0.0
        gamma[j] = min(max(g, -10.0), 10.0)
    return residual - gamma * (phi - phi_prev + dres)


def _lockstep(searches, h: RadialCurvature, config: LSConfig, inexact: bool) -> list:
    """Run the generators ``searches`` to their ends, solving their fixed
    points in lockstep.

    A search yields a request ``(params, phi0)``, ``phi0`` None or
    ``config.num_samples`` floats, and is sent the ``FixedPoint`` of
    ``fixed_point_solve(params, h, config, phi0, inexact)``, or thrown the
    exception that solve raises.  Every iteration
    is one pass over the (B, N) stack of the live solves, one row each.  A
    row's arithmetic is a lone solve's: the same elementwise operations,
    sums along contiguous rows and a ``np.dot`` per row for the secant
    weight, so each solve ends bit for bit as it would alone.  A row whose
    solve stops is refilled from its search's next request, and dropped
    when the search ends.  Every search runs to its own end: one that
    raises stops no other.  Returns what each search returned, or the
    exception it raised, in the order of ``searches``.
    """
    num = config.num_samples
    grid = _grid(num)
    # column-major, so that each row's product is contiguous for its
    # inverse transform
    jet = np.asfortranarray(_derivative_symbol(num, 2.0 * np.pi, 1, 2))
    outcomes = [None] * len(searches)

    def reply(i: int, value, failed: bool):
        """Send ``value`` to search i (throw it, when ``failed``); its next
        solve as (i, ansatz, start profile), or None once it has ended."""
        search = searches[i]
        try:
            params, phi0 = search.throw(value) if failed else search.send(value)
        except StopIteration as stop:
            outcomes[i] = stop.value
            return None
        except Exception as exc:
            outcomes[i] = exc
            return None
        # the map never touches the cos and sin modes: a start drops them
        start = np.zeros(num) if phi0 is None else apply_symbol(phi0, grid.perp)
        return i, _ansatz(params, grid.cos_t, grid.sin_t), start

    rows = [reply(i, None, False) for i in range(len(searches))]
    rows = [row for row in rows if row]
    solves = [_Solve(i) for i, _, _ in rows]
    phi = np.array([start for _, _, start in rows]).reshape(-1, num)
    stack = np.stack([ans for _, ans, _ in rows], axis=1) if rows else None
    # a row's last iterate and residual, read once its solve has a trace
    phi_prev = res_prev = phi

    def settle(starts: dict):
        """Start each row's new solve, ``starts[row]``; drop the rows whose
        search has ended (``starts[row]`` None)."""
        nonlocal solves, phi, phi_prev, res_prev, stack
        for j, row in starts.items():
            if row is not None:
                solves[j] = _Solve(row[0])
                stack[:, j], phi[j] = row[1], row[2]
        keep = [j for j in range(len(solves)) if starts.get(j, True) is not None]
        if len(keep) < len(solves):
            solves = [solves[j] for j in keep]
            phi, phi_prev, res_prev = phi[keep], phi_prev[keep], res_prev[keep]
            stack = stack[:, keep]

    while solves:
        ans = _Ansatz(*stack)
        dphi, d2phi = _along_rows(phi, jet)
        dist, kappa, degenerate = _graph(ans, phi, dphi, d2phi)
        # a degenerate row's K need not be finite, and what follows from it
        # is never read
        with np.errstate(invalid="ignore", over="ignore"):
            gap = kappa - h(dist)
            residual = np.ascontiguousarray(-linf_invert_perp(gap))
            lam1, lam2 = _multipliers(gap, grid.cos_t, grid.sin_t)
        starts = {}  # the next solve of each row whose solve stopped
        more = []  # the rows going on after two or more iterates
        defects = np.abs(residual).max(axis=1).tolist()
        rows = zip(solves, defects, lam1.tolist(), degenerate.tolist())
        for j, (solve, d, l1, lost) in enumerate(rows):
            if lost:
                exc = DegenerateSpeed("normal perturbation destroys regularity")
                starts[j] = reply(solve.search, exc, True)
                continue
            trace = solve.trace
            if trace and d > trace[-1]:
                solve.growing += 1
                if solve.growing >= 5:
                    exc = NotContracting(f"defect grew for 5 consecutive iterations (now {d:.3e})")
                    starts[j] = reply(solve.search, exc, True)
                    continue
            else:
                solve.growing = 0
            trace.append(d)
            if d <= config.tol_fp or (
                inexact and abs(l1) > config.tol_root and d <= FORCING * abs(l1)
            ):
                rate = _radial_rate(_Ansatz(*stack[:, j]), phi[j], dphi[j])
                sol = FixedPoint(
                    phi[j].copy(), l1, float(lam2[j]), tuple(trace), gap[j].copy(), rate
                )
                starts[j] = reply(solve.search, sol, False)
            elif len(trace) == config.max_iter:
                exc = MaxIterationsExceeded(
                    f"fixed-point defect not below {config.tol_fp:g} "
                    f"after {config.max_iter} iterations"
                )
                starts[j] = reply(solve.search, exc, True)
            elif len(trace) > 1:
                more.append(j)
        # a solve's first step is its residual; a stopped row's step is
        # never read, as the row is refilled or dropped
        step = residual.copy()
        if more:
            step[more] = _secant(phi[more], phi_prev[more], residual[more], res_prev[more])
        phi_prev, res_prev, phi = phi, residual, phi + step
        settle(starts)
    return outcomes


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


def _brent(a: float, fa: float, b: float, fb: float, tol_f: float):
    """Root of f in the bracket [a, b] with fa * fb < 0 (Brent 1973), as a
    generator: it yields each point x where it needs f and is sent f(x).

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
        fb = yield b
    return b, fb


def _search(n: int, h: RadialCurvature, config: LSConfig):
    """One radius search of ``find_radii`` as a generator: it yields each
    fixed-point request ``(params, phi0)``, is sent that solve's
    ``FixedPoint`` or thrown its exception, and returns the ``LSResult``."""
    tol_root = config.tol_root
    mirror = h.A < 0.0
    try:
        power = 2.0 ** ((h.gamma + 2.0) / 2.0)
    except OverflowError:
        raise ValueError(
            f"'gamma' = {h.gamma!r} is too large: the root-existence "
            "inequalities' 2^((gamma+2)/2) overflows"
        ) from None
    r0, r1 = config.r_bracket or default_bracket(h)
    if not (power * r0 < abs(h.A) * h.gamma / 2.0 < r1):
        raise ValueError(
            f"'r_bracket' ({r0:g}, {r1:g}) violates the root-existence inequalities"
        )
    R1 = _radius(r1, n, h.gamma)  # R grows with r: the ansatz needs R < n
    if not R1 < n:
        key = "r_bracket" if config.r_bracket else "n_list"
        raise ValueError(f"'{key}': bracket end r = {r1:g} gives R = {R1:.4g}, not < n = {n}")

    solved = {}  # r -> FixedPoint, in evaluation order

    def lam1_at(r: float):
        params = AnsatzParams(n=n, R=_radius(r, n, h.gamma), mirror=mirror)
        nearest = min(solved, key=lambda s: abs(s - r), default=None)
        sol = yield params, None if nearest is None else solved[nearest].phi
        solved[r] = sol
        return sol.lambda1

    walks = []  # how each bracket end that was walked got there

    def endpoint(end: float, other: float):
        # Below the asymptotic regime the contraction can fail near an
        # endpoint (the inner loops dive toward the origin); walk the
        # endpoint toward the other one until the solve succeeds.
        r = end
        for failed in range(16):
            try:
                f = yield from lam1_at(r)
            except (NotContracting, MaxIterationsExceeded) as exc:
                tried, error = r, exc
                r = r + 0.25 * (other - r)
                continue
            if failed:
                walks.append(
                    f"; bracket end {r:g} walked from {end:g} "
                    f"({failed} solve{'s' * (failed > 1)} failed)"
                )
            return r, f
        raise NotContracting(
            f"fixed point fails at 16 radii walked from the bracket end {end:g} "
            f"toward {other:g}; at the last, r = {tried:g}: {error}"
        )

    r0, f_lo = yield from endpoint(r0, r1)
    r1, f_hi = yield from endpoint(r1, r0)
    if f_lo == 0.0:
        r_n, stop_reason = r0, "bracket_end"
    elif f_hi == 0.0:
        r_n, stop_reason = r1, "bracket_end"
    elif f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"lambda1({r0:g}) = {f_lo:.3e} and lambda1({r1:g}) = {f_hi:.3e}"
            + "".join(walks)
        )
    else:
        # each s = log r maps back to the exact radius solved there, and
        # the bracket ends to r0 and r1 themselves
        radius = {math.log(r0): r0, math.log(r1): r1}
        steps = _brent(math.log(r0), f_lo, math.log(r1), f_hi, tol_root)
        try:
            s = next(steps)
            while True:
                radius[s] = math.exp(s)
                s = steps.send((yield from lam1_at(radius[s])))
        except StopIteration as stop:
            s_n, f_n = stop.value
        r_n = radius[s_n]
        if abs(f_n) > tol_root:
            raise MaxIterationsExceeded("radius search did not reach tol_root")
        stop_reason = "tol_root"

    sol = solved[r_n]
    lam1, gap = sol.lambda1, sol.gap
    residual = float(np.abs(gap - sol.lambda2 * _grid(len(gap)).sin_t).max())
    converged = abs(lam1) <= tol_root and residual <= tol_root + 100.0 * config.tol_fp
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
        rotation_identity=float((-gap * sol.radial_rate).sum() * 2.0 * np.pi / len(sol.phi)),
    )


def find_radius(n: int, h: RadialCurvature, config: LSConfig | None = None) -> LSResult:
    """The radius search of the one loop count n, ``find_radii`` of (n,):
    returns its result or raises its exception."""
    return next(find_radii((n,), h, config))


def find_radii(n_list, h: RadialCurvature, config: LSConfig | None = None):
    """Search the radius parameter of each n of ``n_list`` until the cosine
    multiplier vanishes, the searches run in lockstep: each fixed-point
    iteration is one pass over the live solves of all of them, and every
    result is bit for bit that of the search run alone.

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
    and keep R < n at r1, else ``ValueError``, and produce a sign change,
    else ``NoSignChange``; ``MaxIterationsExceeded`` if |lambda1| stays
    above ``config.tol_root``.  Each evaluation is the solve of
    ``fixed_point_solve(params, h, config, phi0, inexact=True)``.

    The searches all run before this returns, each to its own end.
    Returns an iterator over them in the order of ``n_list``: each ``next``
    returns that n's result or raises, in its place, the exception that n's
    search raised, as ``find_radius`` at that n would; after a failed n,
    iteration goes on to the next n.
    """
    config = config or LSConfig()
    searches = [_search(n, h, config) for n in n_list]
    return map(_value, _lockstep(searches, h, config, inexact=True))


def build_immersed_loop(
    n: int,
    h: RadialCurvature,
    config: LSConfig | None = None,
    *,
    result: LSResult | None = None,
):
    """Assemble the full immersed loop over its whole period.

    Runs the radius search, unless ``result`` is one already found for
    (n, h, config), as by ``find_radii``; then evaluates the perturbed
    ansatz on the unrescaled parameter over period 2 pi n.  Checks that the
    assembled curve is regular, that its curvature matches H to the
    combined solver tolerance, and that it stays outside the mollification
    radius of h.
    """
    config = config or LSConfig()
    if result is None:
        result = find_radius(n, h, config)
    elif result.n != n:
        raise ValueError(f"result is for n = {result.n}, not n = {n}")
    params = AnsatzParams(n=n, R=result.R, mirror=result.mirror)
    num_total = config.samples_per_loop * n
    if num_total % 2:
        num_total += 1
    # node j of the full parameter sits at the rescaled t = 2 pi m j /
    # num_total, at index m j mod num_total, and has a t = +-2 pi j / num_total
    grid = _grid(num_total)
    at = params.rescale * np.arange(num_total) % num_total
    cos_t, sin_t = grid.cos_t[at], grid.sin_t[at]
    ans = _ansatz(params, cos_t, sin_t)

    phi = result.phi
    jet = np.stack([phi, *_jet(phi, 2.0 * np.pi)], axis=1)
    big = trig_resample(jet, 2.0 * np.pi, nodes=num_total)[at]
    # curvature does not depend on the parametrization, so K is taken in t
    dist, kappa, degenerate = _graph(ans, big[:, 0], big[:, 1], big[:, 2])
    if degenerate:
        raise DegenerateSpeed("normal perturbation destroys regularity")
    min_dist = float(dist.min())
    if min_dist <= h.s0:
        raise ValueError(
            f"assembled loop reaches |p| = {min_dist:.3f} inside the "
            f"mollification radius {h.s0:g}; the result would depend on it"
        )
    residual = float(np.abs(kappa - h(dist)).max())
    # w = e^{iat} (R + e^{it} - phi (R a + b e^{it}) / s), as nu = i u'/s
    a, b = _frequencies(params)
    g = big[:, 0] / ans.s
    re = params.R * (1.0 - g * a) + cos_t * (1.0 - g * b)
    im = sin_t * (1.0 - g * b)
    cos_a, sin_a = grid.cos_t, params.sign * grid.sin_t
    curve = ClosedCurve(
        period=2.0 * np.pi * n,
        samples=np.stack([cos_a * re - sin_a * im, sin_a * re + cos_a * im], axis=1),
    )
    return curve, replace(
        result,
        residual=residual,
        converged=result.converged and residual <= 10.0 * config.tol_root,
    )
