"""Prescribed curvature functions and vector potentials with matching divergence.

A curvature function splits as constant + periodic (zero mean on the unit
cell) + radially decaying.  For each part there is a potential construction:

* periodic: spectral Poisson solve on the unit cell, on the real
  half-spectrum of the grid: one rfft2 of H, then one two-channel irfft2
  straight to the B-spline coefficients of Q,
* decaying radial: one-dimensional quadrature of the radial Poisson solution,
* constant c: the linear field c*p/2.

The assembled :class:`VectorPotential` satisfies ``div Q = H``.  Note the
Poisson solvers themselves return the gradient of the solution of
``-lap v = H`` (for which ``div grad v = -H``); the assembly step flips the
sign so the divergence identity holds for the composite field.

One routine, :func:`h_and_q`, reads H and Q at an array of points;
:meth:`CurvatureField.value` and :func:`q_eval` are its two halves.
Reads of a periodic spline at whole-cell shifts of one point set share
one stencil (:meth:`_PeriodicSpline2D.lattice_stencil`).
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
    "h_and_q",
    "periodic_from_callable",
    "field_from_dict",
    "radial_curvature_from_dict",
    "read_field",
    "read_radial_curvature",
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
    real and even, so the inverse transform is real; :meth:`from_spectrum`
    starts from a DFT that a caller already has.  They are stored once,
    channels first (each channel one contiguous (M + 4, M + 4) block), and
    wrap-padded by one node before and three after on each axis, so no
    stencil index needs a wrap: ``(x*M) % M`` rounds to M itself for a tiny
    negative x, whose stencil then reaches node M + 2.  Evaluation uses
    ``scipy.ndimage``'s weights and summation order (``map_coordinates``
    with ``mode="grid-wrap"``), and matches it bit for bit.
    """

    def __init__(self, grid: np.ndarray):
        # channels first, so that each 2-d transform reads contiguous data
        self._prefilter(np.fft.rfft2(np.moveaxis(grid, (0, 1), (-2, -1))))

    @classmethod
    def from_spectrum(cls, cells: np.ndarray) -> _PeriodicSpline2D:
        """The spline of the grid whose 2-d real DFT is ``cells``: shape
        (M, M//2 + 1), or (C, M, M//2 + 1) for C channels, channels first.
        ``cells`` is overwritten."""
        spline = cls.__new__(cls)
        spline._prefilter(cells)
        return spline

    def _prefilter(self, cells: np.ndarray) -> None:
        """Store the coefficients of the spectrum ``cells``, dividing it by
        the symbol in place."""
        m = cells.shape[-2]
        s = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)) / 6.0
        cells /= np.multiply.outer(s, s[: m // 2 + 1])
        coeffs = np.fft.irfft2(cells, s=(m, m))
        pad = [(0, 0)] * (cells.ndim - 2) + [(1, 3), (1, 3)]
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
        weights = _cubic_weights(coords - nodes)  # (4, 2, N)
        first = (nodes[0] * (m + 4) + nodes[1]).astype(np.intp)
        return first + self._stencil, weights[:, 0], weights[:, 1]

    def combine(self, stencil: tuple) -> np.ndarray:
        """The spline at the points of ``stencil``: shape (N,) for an (M, M)
        grid, (N, C) for an (M, M, C) one."""
        index, wx, wy = stencil
        out = [np.einsum("ijn,in,jn->n", t.take(index), wx, wy) for t in self._tables]
        return out[0] if self._coeffs.ndim == 2 else np.stack(out, axis=-1)

    def lattice_stencil(self, points: np.ndarray) -> tuple:
        """The stencil of an (N, 2) array of finite points for reads at
        whole-cell shifts of them (:meth:`combine_shifted`): the (2, N)
        integer nodes, not wrapped into the cell, and the (4, 4, N) products
        of the two axes' weights."""
        coords = points.T * self.m
        nodes = np.floor(coords)
        wx, wy = _cubic_weights(coords - nodes).transpose(1, 0, 2)  # (2, 4, N)
        return nodes.astype(np.intp), wx[:, None, :] * wy[None, :, :]

    def combine_shifted(self, stencil: tuple, shifts: np.ndarray) -> np.ndarray:
        """The spline of an (M, M) grid at the points of a lattice stencil
        moved by each row of a (K, 2) integer array of node shifts: shape
        (K, N).  Only the node indices move, by whole cells, so it agrees
        with :meth:`combine` at the moved points to rounding."""
        nodes, weights = stencil
        m = self.m
        rows = (nodes[0] + shifts[:, :1]) % m
        cols = (nodes[1] + shifts[:, 1:]) % m
        index = (rows * (m + 4) + cols)[:, None, None, :] + self._stencil
        return np.einsum("kijn,ijn->kn", self._tables[0].take(index), weights)

    def nodes(self) -> np.ndarray:
        """The spline at the grid nodes, shape (M, M), or (C, M, M) channels
        first: the node values it interpolates, to rounding.  A cubic
        B-spline weighs the nodes -1, 0, 1 by 1/6, 4/6, 1/6 at a node."""
        m, c = self.m, self._coeffs
        rows = (c[..., :m, :] + 4.0 * c[..., 1 : m + 1, :] + c[..., 2 : m + 2, :]) / 6.0
        return (rows[..., :m] + 4.0 * rows[..., 1 : m + 1] + rows[..., 2 : m + 2]) / 6.0


class _SplinePoint:
    """The point evaluator (x, y) -> ``scale * ((base + S(x, y)) - shift)``
    of the spline S of an (M, M) grid, for one-point callers such as the
    orbit integrator.

    :meth:`at` is the one-point kernel, one Python frame per read.  It keeps
    the last cell's 16 coefficients, one entry: successive stages of an
    orbit mostly read the same cell.  It pickles as its spline and map.
    """

    def __init__(self, spline: _PeriodicSpline2D, base: float, scale=1.0, shift=0.0):
        self.spline = spline
        self.m, self.flat = spline.m, spline._flat
        self.base, self.scale, self.shift = base, scale, shift
        # the flat index of the last cell read, then its 16 coefficients
        self.cell = (-1,) + (0.0,) * 16

    def __reduce__(self):
        # a memoryview does not pickle, and the cell need not
        return _SplinePoint, (self.spline, self.base, self.scale, self.shift)

    def at(self, x: float, y: float) -> float:
        """The map of the spline at (x, y), as a float; NaN when the grid
        coordinate x*M or y*M is not finite (a non-finite or overflowing
        point).

        Both axes' weights (the steps of :func:`_cubic_weights`) and the
        16-term sum are written out with :meth:`_PeriodicSpline2D.combine`'s
        operations in its order, and ``scale = 1.0, shift = 0.0`` leave
        ``base + S`` exact, so it equals the array path bit for bit.
        """
        m = self.m
        try:
            cx, cy = (x * m) % m, (y * m) % m
            fx, fy = math.floor(cx), math.floor(cy)
        except ValueError:  # math.floor of a NaN grid coordinate
            return math.nan
        t = cx - fx
        z = 1.0 - t
        a0 = z * z * z / 6.0
        a1 = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
        a2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
        a3 = 1.0 - a0 - a1 - a2
        t = cy - fy
        z = 1.0 - t
        b0 = z * z * z / 6.0
        b1 = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
        b2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
        b3 = 1.0 - b0 - b1 - b2
        # the stencil's four rows of padded nodes start at r0, ..., r3
        r0 = fx * (m + 4) + fy
        cell = self.cell
        if cell[0] != r0:
            flat = self.flat
            r1 = r0 + m + 4
            r2 = r1 + m + 4
            r3 = r2 + m + 4
            cell = (
                r0,
                flat[r0], flat[r0 + 1], flat[r0 + 2], flat[r0 + 3],
                flat[r1], flat[r1 + 1], flat[r1 + 2], flat[r1 + 3],
                flat[r2], flat[r2 + 1], flat[r2 + 2], flat[r2 + 3],
                flat[r3], flat[r3 + 1], flat[r3 + 2], flat[r3 + 3],
            )
            self.cell = cell
        _, c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 = cell
        return self.scale * ((self.base + (
            0.0
            + c00 * a0 * b0 + c01 * a0 * b1 + c02 * a0 * b2 + c03 * a0 * b3
            + c10 * a1 * b0 + c11 * a1 * b1 + c12 * a1 * b2 + c13 * a1 * b3
            + c20 * a2 * b0 + c21 * a2 * b1 + c22 * a2 * b2 + c23 * a2 * b3
            + c30 * a3 * b0 + c31 * a3 * b1 + c32 * a3 * b2 + c33 * a3 * b3
        )) - self.shift)


def _cubic_weights(t) -> np.ndarray:
    """Cubic B-spline weights of the nodes -1, 0, 1, 2 at an array of
    offsets t in [0, 1), stacked on a new first axis, written as
    ``scipy.ndimage`` computes them (:meth:`_SplinePoint.at` writes the
    same steps out for floats).  The middle two weights are one polynomial
    of t and of z = 1 - t, taken in one pass over [t, z] in place."""
    w = np.empty((4,) + np.shape(t))
    tz = w[1:3]
    tz[0] = t
    tz[1] = 1.0 - t
    sq = tz * tz
    w[0] = sq[1] * tz[1] / 6.0
    # (t t (t - 2) 3 + 4) / 6, and the same of z
    tz -= 2.0
    tz *= sq
    tz *= 3.0
    tz += 4.0
    tz /= 6.0
    w[3] = 1.0 - w[0] - w[1] - w[2]
    return w


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
    """A radial function r -> h2(r) tending to zero, from a table (r, values):
    the not-a-knot cubic spline through it up to its last radius ``r_max``,
    and zero beyond."""

    def __init__(self, table):
        self._spline = _CubicSpline(*table)
        self.r_max = float(self._spline.x[-1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.r_max, self._spline(np.minimum(r, self.r_max)), 0.0)

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
            spline = _PeriodicSpline2D(grid)
            point = _SplinePoint(spline, float(self.constant))
            if self.radial is None:
                # H is the constant plus the spline: one frame a point (see at)
                object.__setattr__(self, "at", point.at)
        else:
            spline = point = None
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_point", point)

    @classmethod
    def from_parts(cls, constant=0.0, periodic=None, radial=None):
        if periodic is not None:
            periodic = np.asarray(periodic, dtype=float)
            constant = float(constant) + float(periodic.mean())
            periodic = periodic - periodic.mean()
        return cls(constant=float(constant), periodic=periodic, radial=radial)

    def value(self, points) -> np.ndarray:
        """H at an (..., 2) array of plane points: :func:`h_and_q`'s H half."""
        return h_and_q(self, None, points)[0]

    def at(self, x: float, y: float) -> float:
        """H at the single point (x, y), as a float.

        Agrees with ``value([[x, y]])[0]`` to rounding without building
        arrays, NaN included where ``value`` reads NaN; one-point callers
        such as the orbit integrator use it.  A field with a periodic part
        and no radial part replaces this method, per instance, by its point
        evaluator's :meth:`_SplinePoint.at`: one Python frame a point, equal
        to ``value`` bit for bit.  Other fields take this general path.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.nan
        h = float(self.constant) if self._point is None else self._point.at(x, y)
        if self.radial is not None:
            h = h + float(self.radial(math.hypot(x, y)))
        return h

    def mapped_at(self, scale: float, shift: float):
        """The callable (x, y) -> ``scale * (at(x, y) - shift)``, with these
        operations in this order for any scale.  On a field with a periodic
        part and no radial part it is a point evaluator's
        :meth:`_SplinePoint.at`, one Python frame a point."""
        if self._point is not None and self.radial is None:
            return _SplinePoint(self._spline, self._point.base, scale, shift).at
        at = self.at
        return lambda x, y: scale * (at(x, y) - shift)

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
    """Radial curvature h(s) = 1 + A/s^gamma for s >= s0, extended below s0
    by the C^2 even polynomial matching value and two derivatives at s0."""

    A: float
    gamma: float
    s0: float = 1.0

    def __post_init__(self):
        if self.A == 0.0:
            raise ValueError("amplitude A must be nonzero")
        if not self.gamma > 1.0:
            raise ValueError("gamma must be > 1")
        if self.s0 <= 0.0:
            raise ValueError("mollification radius s0 must be positive")
        a, g, s0 = self.A, self.gamma, self.s0
        mat = np.array(
            [
                [1.0, s0**2, s0**4],
                [0.0, 2.0 * s0, 4.0 * s0**3],
                [0.0, 2.0, 12.0 * s0**2],
            ]
        )
        # h and its first two derivatives at s0
        jet = [self._outer(s0), -g * a / s0 ** (g + 1.0), g * (g + 1.0) * a / s0 ** (g + 2.0)]
        object.__setattr__(self, "_poly", np.linalg.solve(mat, np.array(jet)))

    def _outer(self, s):
        return 1.0 + self.A / np.asarray(s, dtype=float) ** self.gamma

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if s.size and s.min() >= self.s0:  # no point inside s0 (and no NaN)
            return self._outer(s)
        inner = s < self.s0
        c0, c2, c4 = self._poly
        s_safe = np.where(inner, self.s0, s)  # keep powers finite at s=0
        out = np.where(inner, c0 + c2 * s**2 + c4 * s**4, self._outer(s_safe))
        return out


def periodic_from_callable(func, m: int = 256) -> np.ndarray:
    """Sample a unit-cell-periodic callable on the M x M grid."""
    x = np.arange(m) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.asarray(func(xx, yy), dtype=float)


def solve_torus_poisson(grid: np.ndarray) -> np.ndarray:
    """Spectral gradient of the unit-cell Poisson solution of -lap v = H.

    ``grid`` (M, M) must have zero mean.  Returns grad v as the 2-d real DFT
    of its grid values, channels first: the (2, M, M//2 + 1) half-spectrum
    that ``np.fft.irfft2(..., s=(M, M))`` turns into the (2, M, M) grid.
    One rfft2 gives H^, then grad v^ = 2 pi i k H^ / (4 pi^2 |k|^2); the
    zero mode of v is zero, and so is the odd symbol 2 pi i k at a Nyquist
    frequency, as the real part of the full complex solve leaves it.
    """
    grid = np.asarray(grid, dtype=float)
    m = grid.shape[0]
    sup = max(np.abs(grid).max(), 1e-300)
    if abs(grid.mean()) > 1e-10 * sup:
        raise NonZeroMean(f"cell mean {grid.mean():.3e} exceeds 1e-10 * sup")
    vhat = np.fft.rfft2(grid)  # H^, divided into v^ in place
    kx = np.fft.fftfreq(m, d=1.0 / m)[:, None]
    ky = np.arange(m // 2 + 1, dtype=float)
    k2 = kx**2 + ky**2
    k2[0, 0] = np.inf  # v has no zero mode
    vhat /= 4.0 * np.pi**2 * k2
    grad = np.empty((2,) + vhat.shape, dtype=complex)
    np.multiply(np.where(2.0 * np.abs(kx) == m, 0.0, 2j * np.pi * kx), vhat, out=grad[0])
    np.multiply(np.where(2.0 * ky == m, 0.0, 2j * np.pi * ky), vhat, out=grad[1])
    return grad


def lorentz_norm_21(h2: RadialDecaying, nr: int = 8192) -> float:
    """Rearranged integral norm: sort |h2| against annulus measure and
    integrate the decreasing rearrangement against t^(-1/2).  ``h2`` is a
    :class:`RadialDecaying`."""
    edges = np.linspace(0.0, h2.r_max, nr + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.abs(h2(mids))
    weights = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    tcum = np.concatenate([[0.0], np.cumsum(weights[order])])
    return float(np.sum(vals * 2.0 * (np.sqrt(tcum[1:]) - np.sqrt(tcum[:-1]))))


def solve_plane_poisson_decaying(h2: RadialDecaying, nr: int = 8192, r_max=None):
    """Radial derivative of the plane Poisson solution of -lap v = H2.

    Returns ``(r, vprime)`` with ``vprime(r) = -(1/r) * int_0^r s H2(s) ds``
    tabulated on a dense grid.  Raises ``NonIntegrable`` when the tail
    integral has visibly not settled at the end of the range.
    """
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

    Parts: a periodic gradient, the two-channel cubic B-spline through the
    (M, M, 2) node values ``periodic_gradient`` (divergence equal to the
    periodic part of H), radial profile ``Q = radial_f(|p|) p/|p|``
    (divergence equal to the decaying part), and the linear field
    ``linear_coefficient * p / 2``.  :func:`build_potential` passes the
    periodic spline itself as ``_spline``, built from its spectrum, and
    leaves ``periodic_gradient`` None: no grid of Q is formed.  Given node
    values, the spline is built from them.
    """

    periodic_gradient: np.ndarray | None = field(default=None, repr=False)
    radial_r: np.ndarray | None = field(default=None, repr=False)
    radial_f: np.ndarray | None = field(default=None, repr=False)
    linear_coefficient: float = 0.0
    _spline: _PeriodicSpline2D | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.periodic_gradient is not None:
            g = np.ascontiguousarray(self.periodic_gradient, dtype=float)
            if g.ndim != 3 or g.shape[2] != 2 or g.shape[0] != g.shape[1]:
                raise ValueError("periodic_gradient must have shape (M, M, 2)")
            object.__setattr__(self, "periodic_gradient", g)
            object.__setattr__(self, "_spline", _PeriodicSpline2D(g))
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
        """max |Q| of the periodic part over the grid nodes."""
        if self._spline is None:
            return 0.0
        gx, gy = self._spline.nodes()
        return float(np.hypot(gx, gy).max())

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


def q_eval(potential: VectorPotential, points) -> np.ndarray:
    """Q at an (..., 2) array of plane points: :func:`h_and_q`'s Q half."""
    return h_and_q(None, potential, points)[1]


def h_and_q(field_: CurvatureField | None, potential: VectorPotential | None, points):
    """H = constant + periodic + radial of ``field_`` and Q = linear +
    periodic + radial of ``potential``, summed in that order, at an (..., 2)
    array of points: shapes (...) and (..., 2), None for a None argument.

    Periodic grids of the same M share one B-spline stencil, and the radial
    parts one |p|.  A row with a non-finite coordinate, or whose grid
    coordinate x*M overflows, reads NaN in H and in both components of Q;
    no part sees it, so it raises no warning.  A finite row whose |p|
    overflows is beyond the radial tables, as in :meth:`CurvatureField.at`.
    """
    # each part's grid size M, 1 (a factor that cannot overflow) without a grid
    sizes = {
        1 if part._spline is None else part._spline.m
        for part in (field_, potential)
        if part is not None
    }
    if len(sizes) > 1:
        # parts on different grids overflow on different rows: read them apart
        return h_and_q(field_, None, points)[0], h_and_q(None, potential, points)[1]
    m = sizes.pop() if sizes else 1
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    bad = slice(0, 0)  # the rows to set NaN: none
    # |x|*m is finite exactly when x*m is, and a NaN anywhere makes the max NaN
    if not math.isfinite(float(np.abs(flat).max(initial=0.0)) * m):
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(flat * m).all(axis=1)
        flat = np.where(bad[:, None], 0.0, flat)
    h = q = stencil = r = None
    if field_ is not None:
        h = np.full(len(flat), field_.constant)
        if field_._spline is not None:
            stencil = field_._spline.stencil(flat)
            h = h + field_._spline.combine(stencil)
        if field_.radial is not None:
            r = _radius(flat)
            h = h + field_.radial(r)
        h[bad] = np.nan
        h = h.reshape(pts.shape[:-1])
    if potential is not None:
        q = 0.5 * potential.linear_coefficient * flat
        spline = potential._spline
        if spline is not None:
            if stencil is None:
                stencil = spline.stencil(flat)
            q = q + spline.combine(stencil)
        if potential._radial_spline is not None:
            if r is None:
                r = _radius(flat)
            f = potential.radial_profile(r)
            # f(|p|) p / |p|, 0 at the origin
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(r > 0, f / np.where(r > 0, r, 1.0), 0.0)
            q = q + scale[:, None] * flat
        q[bad] = np.nan
        q = q.reshape(pts.shape)
    return h, q


def _radius(flat: np.ndarray) -> np.ndarray:
    """|p| of each row of an (N, 2) array: inf, with no warning, where it
    overflows, which a radial part reads as beyond its table."""
    with np.errstate(over="ignore"):
        return np.hypot(flat[:, 0], flat[:, 1])


def build_potential(field_: CurvatureField) -> VectorPotential:
    """Construct the divergence-compatible potential of a curvature field.

    Flips the sign of the Poisson-solution gradients so that div Q = +H.
    The periodic part takes one forward transform, the rfft2 of the H grid
    in :func:`solve_torus_poisson`, and one two-channel irfft2 to the
    spline coefficients of Q.
    """
    spline = None
    if field_.periodic is not None:
        # Q^ = -grad v^: both channels' coefficients from one irfft2
        qhat = solve_torus_poisson(field_.periodic)
        spline = _PeriodicSpline2D.from_spectrum(np.negative(qhat, out=qhat))
    radial_r = radial_f = None
    if field_.radial is not None:
        radial_r, vprime = solve_plane_poisson_decaying(field_.radial)
        radial_f = -vprime
    return VectorPotential(
        radial_r=radial_r,
        radial_f=radial_f,
        linear_coefficient=field_.constant,
        _spline=spline,
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


def _numbers(value, key: str) -> np.ndarray:
    """``value`` as an array of finite floats; ``ValueError`` names ``key``
    when it is ragged or holds anything else."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"key {key!r} must be a rectangular array of numbers") from None
    if not np.isfinite(array).all():
        raise ValueError(f"key {key!r} must hold finite numbers")
    return array


def _known_keys(doc: dict, where: str, keys: tuple) -> None:
    """``ValueError`` naming the first key of ``doc`` not in ``keys``."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where} (keys: {', '.join(keys)})")


def field_from_dict(doc) -> CurvatureField:
    """Build a field from a parsed field document: a JSON object with
    optional keys {"constant", "periodic_grid", "radial": {"r", "h"},
    "radial_params"}; "radial_params" is read by
    :func:`read_radial_curvature`, not here.

    Raises ``ValueError`` naming the key when the document is not an
    object or has a key outside that set, the constant is not a finite
    number, "radial" is not an object with exactly "r" and "h", or an array
    is ragged or holds a non-number.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a field must be a JSON object, not {type(doc).__name__}")
    _known_keys(doc, "a field", ("constant", "periodic_grid", "radial", "radial_params"))
    radial = doc.get("radial")
    if radial is not None:
        if not (isinstance(radial, dict) and "r" in radial and "h" in radial):
            raise ValueError("key 'radial' must be an object with 'r' and 'h'")
        _known_keys(radial, "'radial'", ("r", "h"))
        table = (_numbers(radial["r"], "radial.r"), _numbers(radial["h"], "radial.h"))
        radial = RadialDecaying(table=table)
    periodic = doc.get("periodic_grid")
    if periodic is not None:
        periodic = _numbers(periodic, "periodic_grid")
    return CurvatureField.from_parts(
        constant=_number(doc, "constant", 0.0),
        periodic=periodic,
        radial=radial,
    )


def radial_curvature_from_dict(params) -> RadialCurvature:
    """Build a RadialCurvature from a "radial_params" object
    {"A", "gamma", "s0"}; "A" and "gamma" are required, and any other key
    is rejected by name."""
    if not isinstance(params, dict):
        raise ValueError("'radial_params' must be a JSON object")
    _known_keys(params, "'radial_params'", ("A", "gamma", "s0"))
    return RadialCurvature(
        A=_number(params, "A"),
        gamma=_number(params, "gamma"),
        s0=_number(params, "s0", 1.0),
    )


def _read_json(path):
    """The JSON document in the file ``path``; ``ValueError`` names the file
    when it cannot be read or is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def read_field(path) -> CurvatureField:
    """Read a field file; see :func:`field_from_dict` for the format."""
    return field_from_dict(_read_json(path))


def read_radial_curvature(path) -> RadialCurvature:
    """Read the "radial_params" block of a field file as a RadialCurvature."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("radial_params") is None:
        raise ValueError(f"{path}: no 'radial_params' block")
    return radial_curvature_from_dict(doc["radial_params"])
