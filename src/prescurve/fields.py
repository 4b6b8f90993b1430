"""Prescribed curvature functions and vector potentials with matching divergence.

A curvature function splits as constant + periodic (zero mean on the unit
cell) + radially decaying.  For each part there is a potential construction:

* periodic: spectral Poisson solve on the unit cell,
* decaying radial: one-dimensional quadrature of the radial Poisson solution,
* constant c: the linear field c*p/2.

The assembled :class:`VectorPotential` satisfies ``div Q = H``.  Note the
Poisson solvers themselves return the gradient of the solution of
``-lap v = H`` (for which ``div grad v = -H``); the assembly step flips the
sign so the divergence identity holds for the composite field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrable, NonZeroMean

__all__ = [
    "CurvatureField",
    "RadialDecaying",
    "RadialCurvature",
    "VectorPotential",
    "solve_torus_poisson",
    "lorentz_norm_21",
    "solve_plane_poisson_decaying",
    "build_potential",
    "q_eval",
    "periodic_from_callable",
    "field_from_dict",
    "radial_curvature_from_dict",
    "read_field",
    "read_radial_curvature",
    "write_field",
]

#: Sharp constant of the periodic-cell gradient bound.
TORUS_GRADIENT_CONSTANT = math.sqrt(2.0) / 8.0
#: Sharp constant of the decaying-case gradient bound.
PLANE_GRADIENT_CONSTANT = (math.pi / 2.0) ** 1.5
#: Admissibility threshold for the periodic oscillation.
PERIODIC_ADMISSIBLE_OSCILLATION = 2.0 * math.sqrt(2.0)
#: Admissibility threshold for the decaying rearranged-integral norm.
DECAYING_ADMISSIBLE_NORM = (2.0 / math.pi) ** 1.5


class _PeriodicSpline2D:
    """Cubic B-spline interpolation of unit-cell data, exactly 1-periodic.

    ``grid[i, j]`` is the value at ``(i/M, j/M)``.  An (M, M, C) grid gives
    C channels that share each point's stencil indices and weights.

    The coefficients are the grid's 2-d real DFT divided by the sampled
    B-spline symbol s(kx) s(ky), s(k) = (4 + 2 cos 2 pi k/M)/6, which is
    real and even, so the inverse transform is real.  They are stored once,
    channels first (each channel one contiguous (M + 4, M + 4) block), and
    wrap-padded by one node before and three after on each axis, so no
    stencil index needs a wrap: ``(x*M) % M`` rounds to M itself for a tiny
    negative x, whose stencil then reaches node M + 2.  Evaluation uses
    ``scipy.ndimage``'s weights and summation order (``map_coordinates``
    with ``mode="grid-wrap"``), and matches it bit for bit.
    """

    def __init__(self, grid: np.ndarray):
        m = grid.shape[0]
        s = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)) / 6.0
        # channels first, so that each 2-d transform reads contiguous data
        cells = np.fft.rfft2(np.moveaxis(grid, (0, 1), (-2, -1)))
        cells /= np.multiply.outer(s, s[: m // 2 + 1])
        coeffs = np.fft.irfft2(cells, s=(m, m))
        pad = [(0, 0)] * (grid.ndim - 2) + [(1, 3), (1, 3)]
        self.__setstate__({"m": m, "_coeffs": np.pad(coeffs, pad, mode="wrap")})

    def __getstate__(self):
        # a memoryview does not pickle; __setstate__ makes a new one
        return {"m": self.m, "_coeffs": self._coeffs}

    def __setstate__(self, state):
        self.m = state["m"]
        self._coeffs = state["_coeffs"]
        width = self.m + 4
        # one flat view per channel, one entry per padded node
        self._tables = list(self._coeffs.reshape(-1, width * width))
        self._flat = memoryview(self._tables[0])
        self._stencil = (np.arange(4)[:, None] * width + np.arange(4))[:, :, None]

    def stencil(self, points: np.ndarray) -> tuple:
        """The stencils of an (N, 2) array of finite points: the (4, 4, N)
        flat indices of each point's padded nodes and the (4, N) weights of
        each axis.  They depend on M only, so a spline of the same M may
        combine them too."""
        m = self.m
        # wrap the grid coordinates into the cell, as map_coordinates does
        coords = (points.T * m) % m
        nodes = np.floor(coords)
        weights = np.array(_cubic_weights(coords - nodes))  # (4, 2, N)
        first = (nodes[0] * (m + 4) + nodes[1]).astype(np.intp)
        return first + self._stencil, weights[:, 0], weights[:, 1]

    def combine(self, stencil: tuple) -> np.ndarray:
        """The spline at the points of ``stencil``: shape (N,) for an (M, M)
        grid, (N, C) for an (M, M, C) one."""
        index, wx, wy = stencil
        out = [np.einsum("ijn,in,jn->n", t.take(index), wx, wy) for t in self._tables]
        return out[0] if self._coeffs.ndim == 2 else np.stack(out, axis=-1)

    def __call__(self, points) -> np.ndarray:
        """The spline at an (..., 2) array of points: shape (...) for an
        (M, M) grid, (..., C) for an (M, M, C) one."""
        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            # a non-finite point has no cell: it reads NaN, the rest as usual
            ok = np.isfinite(pts).all(axis=-1)
            out = np.full(pts.shape[:-1] + self._coeffs.shape[:-2], np.nan)
            out[ok] = self(pts[ok])
            return out
        out = self.combine(self.stencil(pts.reshape(-1, 2)))
        return out.reshape(pts.shape[:-1] + self._coeffs.shape[:-2])

    def at(self, x: float, y: float) -> float:
        """The spline of an (M, M) grid at one point, as a float.

        Reads the 4 x 4 stencil of padded coefficients through a flat float
        view and sums it in :meth:`__call__`'s order, so it matches it bit
        for bit.
        """
        m, flat, width = self.m, self._flat, self.m + 4
        cx, cy = (x * m) % m, (y * m) % m
        fx, fy = math.floor(cx), math.floor(cy)
        wx = _cubic_weights(cx - fx)
        w0, w1, w2, w3 = _cubic_weights(cy - fy)
        row = fx * width + fy
        total = 0.0
        for w in wx:
            total = (
                total
                + flat[row] * w * w0
                + flat[row + 1] * w * w1
                + flat[row + 2] * w * w2
                + flat[row + 3] * w * w3
            )
            row += width
        return total


def _cubic_weights(t):
    """Cubic B-spline weights of the nodes -1, 0, 1, 2 at offset t in [0, 1)
    (a float or an array), written as ``scipy.ndimage`` computes them."""
    z = 1.0 - t
    w0 = z * z * z / 6.0
    w1 = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
    w2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
    return w0, w1, w2, 1.0 - w0 - w1 - w2


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing.

    The node slopes solve the tridiagonal system of
    ``scipy.interpolate.CubicSpline`` (de Boor's slope form, with the
    not-a-knot end rows) by one Thomas sweep; each interval is the cubic
    Hermite piece of its end values and slopes.  Points outside [x0, xn]
    take the end pieces, as ``CubicSpline`` extrapolates by default.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 4:
            raise ValueError("a table must be two matching 1-d arrays of >= 4 entries")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("a table must hold finite numbers")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("a table's nodes must be strictly increasing")
        slope = np.diff(y) / dx
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.concatenate([[0.0], dx[1:], [x[-1] - x[-3]]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[x[2] - x[0]], dx[:-1], [0.0]])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.concatenate(
            [
                [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
                3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
            ]
        )
        s = _thomas(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist())
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        # power-form coefficients of each piece in (x - x[i]), highest first
        self._c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        i = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, len(self.x) - 2)
        dt = xs - self.x[i]
        c3, c2, c1, c0 = self._c[:, i]
        return ((c3 * dt + c2) * dt + c1) * dt + c0


def _thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system (lists of floats; ``lower[0]`` and
    ``upper[-1]`` unused) by forward elimination and back substitution."""
    n = len(diag)
    for i in range(1, n):
        factor = lower[i] / diag[i - 1]
        diag[i] -= factor * upper[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    out = [0.0] * n
    out[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        out[i] = (rhs[i] - upper[i] * out[i + 1]) / diag[i]
    return np.array(out)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples y at uniform step h, from the first sample.

    Each interval takes the three-point rule (5 f0 + 8 f1 - f2) h/12 over
    itself and its right neighbour; every other interval, and the last,
    takes it mirrored over its left neighbour, so each pair of intervals
    sums to Simpson's rule (``scipy.integrate.cumulative_simpson``'s scheme).
    """
    w = h / 12.0
    forward = w * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])  # interval k
    mirrored = w * (5.0 * y[2:] + 8.0 * y[1:-1] - y[:-2])  # interval k + 1
    parts = np.append(forward, mirrored[-1])
    parts[1::2] = mirrored[::2]
    return np.concatenate([[0.0], np.cumsum(parts)])


class RadialDecaying:
    """A radial function r -> h2(r) tending to zero, tabulated or callable."""

    def __init__(self, func=None, table=None, r_max=None):
        if (func is None) == (table is None):
            raise ValueError("give exactly one of func= or table=(r, values)")
        self._func = func
        if table is not None:
            self._spline = _CubicSpline(*table)
            self.r_max = float(self._spline.x[-1]) if r_max is None else float(r_max)
        else:
            self._spline = None
            self.r_max = float(r_max) if r_max is not None else self._probe_range()

    def _probe_range(self) -> float:
        peak = max(abs(self._func(np.linspace(1e-6, 1.0, 64))).max(), 1e-300)
        r = 1.0
        while r < 1e6:
            band = abs(self._func(np.linspace(r, 2 * r, 64)))
            if band.max() <= 1e-9 * peak:
                return 2 * r
            r *= 2
        raise NonIntegrable("radial part does not decay within r <= 1e6")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self._func is not None:
            return np.asarray(self._func(r), dtype=float)
        out = np.where(r <= self.r_max, self._spline(np.minimum(r, self.r_max)), 0.0)
        return out

    def linf(self, nr: int = 4096) -> float:
        r = np.linspace(0.0, self.r_max, nr)
        r[0] = min(1e-9, self.r_max / nr)
        return float(np.abs(self(r)).max())


@dataclass(frozen=True)
class CurvatureField:
    """Curvature H = constant + periodic(p) + decaying(|p|).

    ``periodic`` is an M x M grid of zero-mean values on the unit cell
    (``periodic[i, j] = H1(i/M, j/M)``); use :meth:`from_parts` to fold a
    nonzero grid mean into the constant.  ``radial`` tends to zero at
    infinity.
    """

    constant: float = 0.0
    periodic: np.ndarray | None = field(default=None, repr=False)
    radial: RadialDecaying | None = None

    def __post_init__(self):
        if self.periodic is not None:
            grid = np.ascontiguousarray(self.periodic, dtype=float)
            if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
                raise ValueError("periodic part must be a square grid")
            if not np.all(np.isfinite(grid)):
                raise ValueError("periodic part must be finite")
            scale = max(np.abs(grid).max(), abs(self.constant), 1.0)
            if abs(grid.mean()) > 1e-12 * scale:
                raise ValueError(
                    "periodic grid must have zero mean; use from_parts() to "
                    "fold the mean into the constant"
                )
            object.__setattr__(self, "periodic", grid)
            object.__setattr__(self, "_spline", _PeriodicSpline2D(grid))
        else:
            object.__setattr__(self, "_spline", None)

    @classmethod
    def from_parts(cls, constant=0.0, periodic=None, radial=None):
        if periodic is not None:
            periodic = np.asarray(periodic, dtype=float)
            constant = float(constant) + float(periodic.mean())
            periodic = periodic - periodic.mean()
        return cls(constant=float(constant), periodic=periodic, radial=radial)

    def value(self, points) -> np.ndarray:
        """Evaluate H at an (..., 2) array of plane points."""
        pts = np.asarray(points, dtype=float)
        out = np.full(pts.shape[:-1], self.constant)
        if self.periodic is not None:
            out = out + self._spline(pts)
        if self.radial is not None:
            out = out + self.radial(np.hypot(pts[..., 0], pts[..., 1]))
        return out

    def at(self, x: float, y: float) -> float:
        """H at the single point (x, y), as a float.

        Agrees with ``value([[x, y]])[0]`` to rounding without building
        arrays; one-point callers such as the orbit integrators use it.
        """
        h = float(self.constant)
        if self.periodic is not None:
            h = h + self._spline.at(x, y)
        if self.radial is not None:
            h = h + float(self.radial(math.hypot(x, y)))
        return h

    def periodic_oscillation(self) -> float:
        """max - min of the periodic part over the grid (0 if absent)."""
        if self.periodic is None:
            return 0.0
        return float(self.periodic.max() - self.periodic.min())

    def periodic_sup(self) -> float:
        return 0.0 if self.periodic is None else float(np.abs(self.periodic).max())

    def zero_mean_sup(self) -> float:
        """Upper bound on sup |H - constant|."""
        rad = 0.0 if self.radial is None else self.radial.linf()
        return self.periodic_sup() + rad

    def sup_norm(self) -> float:
        return abs(self.constant) + self.zero_mean_sup()

    def admissibility(self) -> dict:
        """The theory's smallness hypotheses, reported but not enforced."""
        report = {}
        if self.periodic is not None:
            osc = self.periodic_oscillation()
            report["periodic_oscillation"] = osc
            report["periodic_ok"] = osc < PERIODIC_ADMISSIBLE_OSCILLATION
        if self.radial is not None:
            norm = lorentz_norm_21(self.radial)
            report["lorentz_21"] = norm
            report["decaying_ok"] = norm < DECAYING_ADMISSIBLE_NORM
        if self.periodic is not None and self.radial is not None:
            combined = (
                TORUS_GRADIENT_CONSTANT * report["periodic_oscillation"]
                + PLANE_GRADIENT_CONSTANT * report["lorentz_21"]
            )
            report["combined"] = combined
            report["combined_ok"] = combined < 1.0
        return report


@dataclass(frozen=True)
class RadialCurvature:
    """Radial curvature h(s) = 1 + A/s^gamma + htilde(s)/s^(gamma+beta) for
    s >= s0, extended below s0 by the C^2 even polynomial matching value and
    two derivatives at s0.

    ``beta=None`` (with ``htilde=None``) means no correction term at all.
    For ``beta == 0`` the effective amplitude switches to A + B, where B is
    the limit of htilde at infinity.
    """

    A: float
    gamma: float
    beta: float | None = None
    htilde: object = None
    s0: float = 1.0

    def __post_init__(self):
        if self.A == 0.0:
            raise ValueError("amplitude A must be nonzero")
        if not self.gamma > 1.0:
            raise ValueError("gamma must be > 1")
        if self.s0 <= 0.0:
            raise ValueError("mollification radius s0 must be positive")
        if (self.htilde is None) != (self.beta is None):
            raise ValueError("give both beta and htilde, or neither")
        if self.beta is not None and self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        h0 = self._outer(self.s0)
        h1 = self._outer_d1(self.s0)
        h2 = self._outer_d2(self.s0)
        s0 = self.s0
        mat = np.array(
            [
                [1.0, s0**2, s0**4],
                [0.0, 2.0 * s0, 4.0 * s0**3],
                [0.0, 2.0, 12.0 * s0**2],
            ]
        )
        coeffs = np.linalg.solve(mat, np.array([h0, h1, h2]))
        object.__setattr__(self, "_poly", coeffs)

    def _outer(self, s):
        s = np.asarray(s, dtype=float)
        out = 1.0 + self.A / s**self.gamma
        if self.htilde is not None:
            out = out + np.asarray(self.htilde(s)) / s ** (self.gamma + self.beta)
        return out

    def _outer_d1(self, s, step=1e-5):
        d = -self.gamma * self.A / s ** (self.gamma + 1.0)
        if self.htilde is not None:
            g = self.gamma + self.beta
            ht = float(self.htilde(s))
            htp = (float(self.htilde(s + step)) - float(self.htilde(s - step))) / (
                2 * step
            )
            d += htp / s**g - g * ht / s ** (g + 1.0)
        return d

    def _outer_d2(self, s, step=1e-5):
        d = self.gamma * (self.gamma + 1.0) * self.A / s ** (self.gamma + 2.0)
        if self.htilde is not None:
            g = self.gamma + self.beta
            ht = float(self.htilde(s))
            htp = (float(self.htilde(s + step)) - float(self.htilde(s - step))) / (
                2 * step
            )
            htpp = (
                float(self.htilde(s + step))
                - 2 * ht
                + float(self.htilde(s - step))
            ) / step**2
            d += (
                htpp / s**g
                - 2.0 * g * htp / s ** (g + 1.0)
                + g * (g + 1.0) * ht / s ** (g + 2.0)
            )
        return d

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        inner = s < self.s0
        c0, c2, c4 = self._poly
        s_safe = np.where(inner, self.s0, s)  # keep powers finite at s=0
        out = np.where(inner, c0 + c2 * s**2 + c4 * s**4, self._outer(s_safe))
        return out

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self(np.hypot(pts[..., 0], pts[..., 1]))

    @property
    def tilde_amplitude(self) -> float:
        """A for beta > 0 (or no correction); A + lim htilde for beta = 0."""
        if self.beta is not None and self.beta == 0.0:
            return self.A + float(self.htilde(1e9))
        return self.A


def periodic_from_callable(func, m: int = 256) -> np.ndarray:
    """Sample a unit-cell-periodic callable on the M x M grid."""
    x = np.arange(m) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.asarray(func(xx, yy), dtype=float)


def solve_torus_poisson(grid: np.ndarray) -> np.ndarray:
    """Spectral gradient of the unit-cell Poisson solution of -lap v = H.

    ``grid`` must have zero mean.  Returns the (M, M, 2) array of grad v at
    the grid nodes; the zero mode of v is set to zero.
    """
    grid = np.asarray(grid, dtype=float)
    m = grid.shape[0]
    sup = max(np.abs(grid).max(), 1e-300)
    if abs(grid.mean()) > 1e-10 * sup:
        raise NonZeroMean(f"cell mean {grid.mean():.3e} exceeds 1e-10 * sup")
    hhat = np.fft.fft2(grid)
    k = np.fft.fftfreq(m, d=1.0 / m)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = kx**2 + ky**2
    with np.errstate(divide="ignore", invalid="ignore"):
        vhat = np.where(k2 > 0, hhat / (4.0 * np.pi**2 * k2), 0.0)
    gx = np.fft.ifft2(2j * np.pi * kx * vhat).real
    gy = np.fft.ifft2(2j * np.pi * ky * vhat).real
    return np.stack([gx, gy], axis=-1)


def lorentz_norm_21(h2, nr: int = 8192) -> float:
    """Rearranged integral norm: sort |h2| against annulus measure and
    integrate the decreasing rearrangement against t^(-1/2)."""
    if not isinstance(h2, RadialDecaying):
        h2 = RadialDecaying(func=h2) if callable(h2) else RadialDecaying(table=h2)
    edges = np.linspace(0.0, h2.r_max, nr + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.abs(h2(mids))
    weights = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    tcum = np.concatenate([[0.0], np.cumsum(weights[order])])
    return float(np.sum(vals * 2.0 * (np.sqrt(tcum[1:]) - np.sqrt(tcum[:-1]))))


def solve_plane_poisson_decaying(h2, nr: int = 8192, r_max=None):
    """Radial derivative of the plane Poisson solution of -lap v = H2.

    Returns ``(r, vprime)`` with ``vprime(r) = -(1/r) * int_0^r s H2(s) ds``
    tabulated on a dense grid.  Raises ``NonIntegrable`` when the tail
    integral has visibly not settled at the end of the range.
    """
    if not isinstance(h2, RadialDecaying):
        h2 = RadialDecaying(func=h2) if callable(h2) else RadialDecaying(table=h2)
    rmax = float(r_max) if r_max is not None else max(2.0 * h2.r_max, 1.0)
    r = np.linspace(0.0, rmax, nr)
    integrand = r * h2(r)
    cum = _cumulative_simpson(integrand, r[1] - r[0])
    scale = max(np.abs(cum).max(), 1e-300)
    tail_drift = abs(cum[-1] - cum[int(0.9 * nr)])
    if tail_drift > 1e-6 * scale and abs(integrand[-1]) > 1e-9 * scale / rmax:
        raise NonIntegrable(
            f"tail of int s*H2 ds still drifting by {tail_drift:.3e} at r={rmax:g}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        vprime = np.where(r > 0, -cum / np.where(r > 0, r, 1.0), 0.0)
    return r, vprime


@dataclass(frozen=True)
class VectorPotential:
    """Composite field Q with div Q = H.

    Parts: cubic-spline interpolated periodic gradient (divergence equal to
    the periodic part of H), radial profile ``Q = radial_f(|p|) p/|p|``
    (divergence equal to the decaying part), and the linear field
    ``linear_coefficient * p / 2``.
    """

    periodic_gradient: np.ndarray | None = field(default=None, repr=False)
    radial_r: np.ndarray | None = field(default=None, repr=False)
    radial_f: np.ndarray | None = field(default=None, repr=False)
    linear_coefficient: float = 0.0

    def __post_init__(self):
        if self.periodic_gradient is not None:
            g = np.ascontiguousarray(self.periodic_gradient, dtype=float)
            if g.ndim != 3 or g.shape[2] != 2 or g.shape[0] != g.shape[1]:
                raise ValueError("periodic_gradient must have shape (M, M, 2)")
            object.__setattr__(self, "periodic_gradient", g)
            object.__setattr__(self, "_spline", _PeriodicSpline2D(g))
        else:
            object.__setattr__(self, "_spline", None)
        if (self.radial_r is None) != (self.radial_f is None):
            raise ValueError("radial_r and radial_f must come together")
        if self.radial_r is not None:
            r = np.asarray(self.radial_r, dtype=float)
            f = np.asarray(self.radial_f, dtype=float)
            object.__setattr__(self, "_radial_spline", _CubicSpline(r, f))
            object.__setattr__(self, "_radial_rmax", float(r[-1]))
            object.__setattr__(self, "_radial_tail", float(f[-1]) * float(r[-1]))
        else:
            object.__setattr__(self, "_radial_spline", None)

    def sup_periodic(self) -> float:
        if self.periodic_gradient is None:
            return 0.0
        g = self.periodic_gradient
        return float(np.hypot(g[:, :, 0], g[:, :, 1]).max())

    def sup_radial(self) -> float:
        if self.radial_f is None:
            return 0.0
        return float(np.abs(self.radial_f).max())

    def sup_zero_mean(self) -> float:
        """Upper bound on the sup norm of the non-linear (zero-mean) part."""
        return self.sup_periodic() + self.sup_radial()

    def radial_profile(self, r) -> np.ndarray:
        """The scalar f with radial part f(|p|) p / |p|; 1/r tail beyond the
        tabulated range."""
        r = np.asarray(r, dtype=float)
        inside = self._radial_spline(np.minimum(r, self._radial_rmax))
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = self._radial_tail / np.where(r > 0, r, 1.0)
        return np.where(r <= self._radial_rmax, inside, tail)

    def _radial_part(self, pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        """f(|p|) p / |p| at points ``pts`` of norms ``r``; 0 at the origin."""
        f = self.radial_profile(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r > 0, f / np.where(r > 0, r, 1.0), 0.0)
        return scale[..., None] * pts


def q_eval(potential: VectorPotential, points) -> np.ndarray:
    """Evaluate Q at an (..., 2) array of plane points."""
    pts = np.asarray(points, dtype=float)
    out = 0.5 * potential.linear_coefficient * pts
    if potential._spline is not None:
        out = out + potential._spline(pts)
    if potential._radial_spline is not None:
        out = out + potential._radial_part(pts, np.hypot(pts[..., 0], pts[..., 1]))
    return out


def build_potential(field_: CurvatureField) -> VectorPotential:
    """Construct the divergence-compatible potential of a curvature field.

    Flips the sign of the Poisson-solution gradients so that div Q = +H.
    """
    periodic_gradient = None
    if field_.periodic is not None:
        periodic_gradient = -solve_torus_poisson(field_.periodic)
    radial_r = radial_f = None
    if field_.radial is not None:
        radial_r, vprime = solve_plane_poisson_decaying(field_.radial)
        radial_f = -vprime
    return VectorPotential(
        periodic_gradient=periodic_gradient,
        radial_r=radial_r,
        radial_f=radial_f,
        linear_coefficient=field_.constant,
    )


def _number(doc: dict, key: str, default=None) -> float:
    """The finite number stored under ``key``; ``ValueError`` names the key."""
    value = doc.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"key {key!r} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"key {key!r} must be finite, got {value!r}")
    return number


def field_from_dict(doc) -> CurvatureField:
    """Build a field from a parsed field document: a JSON object with
    optional keys {"constant", "periodic_grid", "radial": {"r", "h"}}.

    Raises ``ValueError`` naming the problem when the document is not an
    object, the constant is not a finite number, or "radial" is not an
    object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a field must be a JSON object, not {type(doc).__name__}")
    radial = doc.get("radial")
    if radial is not None:
        if not isinstance(radial, dict):
            raise ValueError("key 'radial' must be an object with 'r' and 'h'")
        radial = RadialDecaying(table=(radial["r"], radial["h"]))
    return CurvatureField.from_parts(
        constant=_number(doc, "constant", 0.0),
        periodic=doc.get("periodic_grid"),
        radial=radial,
    )


def radial_curvature_from_dict(params) -> RadialCurvature:
    """Build a RadialCurvature from a "radial_params" object
    {"A", "gamma", "s0"}; "A" and "gamma" are required.

    The correction term has no file form: its ``htilde`` is a callable, so
    a "beta" key is rejected rather than left without one.
    """
    if not isinstance(params, dict):
        raise ValueError("'radial_params' must be a JSON object")
    if "beta" in params:
        raise ValueError(
            "key 'beta' is not supported in 'radial_params': the correction "
            "term needs a callable htilde, which has no file form"
        )
    return RadialCurvature(
        A=_number(params, "A"),
        gamma=_number(params, "gamma"),
        s0=_number(params, "s0", 1.0),
    )


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_field(path) -> CurvatureField:
    """Read a field file; see :func:`field_from_dict` for the format."""
    return field_from_dict(_read_json(path))


def read_radial_curvature(path) -> RadialCurvature:
    """Read the "radial_params" block of a field file as a RadialCurvature."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("radial_params") is None:
        raise ValueError(f"{path}: no 'radial_params' block")
    return radial_curvature_from_dict(doc["radial_params"])


def write_field(field_: CurvatureField, path, radial_params: dict | None = None):
    doc: dict = {"constant": float(field_.constant)}
    if field_.periodic is not None:
        doc["periodic_grid"] = [[float(v) for v in row] for row in field_.periodic]
    if field_.radial is not None:
        r = np.linspace(0.0, field_.radial.r_max, 512)
        doc["radial"] = {
            "r": [float(v) for v in r],
            "h": [float(v) for v in field_.radial(r)],
        }
    if radial_params is not None:
        doc["radial_params"] = radial_params
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
