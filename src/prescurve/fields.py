"""Prescribed curvature functions and vector potentials with matching divergence.

A curvature function splits as constant + periodic (zero mean on the unit
cell) + radially decaying.  For each part there is a potential construction:

* periodic: spectral Poisson solve on the unit cell, on the real
  half-spectrum of the grid: one rfft2 of H, then, one channel at a time,
  the inverse transform of each component straight to the B-spline
  coefficients of Q,
* decaying radial: the closed form Q(p) = F(|p|) p/|p|^2, where
  F(r) = int_0^r s h2(s) ds is integrated exactly, piece by piece, from the
  cubic spline that defines h2 (:meth:`RadialDecaying.q_profile`),
* constant c: the linear field c*p/2.

The assembled :class:`VectorPotential` satisfies ``div Q = H``.  Note the
periodic Poisson solver returns the spectrum of the solution of
``-lap v = H`` (for which ``div grad v = -H``); the assembly step takes
Q = -grad v so the divergence identity holds for the composite field.

One routine, :func:`h_and_q`, reads H and Q at an array of points;
:meth:`CurvatureField.value` and :func:`q_eval` are its two halves.
Reads of a periodic spline at whole-cell shifts of one point set share
one stencil (:meth:`_PeriodicSpline2D.lattice_stencil`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._read import read_numeric
from .errors import NonZeroMean

__all__ = [
    "CurvatureField",
    "RadialDecaying",
    "RadialCurvature",
    "VectorPotential",
    "solve_torus_poisson",
    "lorentz_norm_21",
    "build_potential",
    "q_eval",
    "h_and_q",
    "periodic_from_callable",
    "field_from_dict",
    "radial_curvature_from_dict",
    "read_field",
]

#: Sharp constant of the periodic-cell gradient bound.
TORUS_GRADIENT_CONSTANT = math.sqrt(2.0) / 8.0
#: Sharp constant of the decaying-case gradient bound.
PLANE_GRADIENT_CONSTANT = (math.pi / 2.0) ** 1.5
#: Admissibility threshold for the periodic oscillation.
PERIODIC_ADMISSIBLE_OSCILLATION = 2.0 * math.sqrt(2.0)
#: Admissibility threshold for the decaying rearranged-integral norm.
DECAYING_ADMISSIBLE_NORM = (2.0 / math.pi) ** 1.5


#: Values of a spline's table inverted at a time: whole rows of about this.
TABLE_BLOCK = 1 << 12


def _spline_rows(cells: np.ndarray) -> np.ndarray:
    """The first pass of the inverse 2-d real DFT of the cubic B-spline
    coefficients of the (M, M) grid whose 2-d real DFT is ``cells``, shape
    (M, M//2 + 1): ``cells`` divided by the B-spline symbol in place, then
    inverted over its rows (axis 0), as ``np.fft.irfft2`` begins."""
    m = len(cells)
    s = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)) / 6.0
    cells /= np.multiply.outer(s, s[: m // 2 + 1])
    return np.fft.ifft(cells, axis=0)


class _PeriodicSpline2D:
    """Cubic B-spline interpolation of unit-cell data, exactly 1-periodic.

    ``grid[i, j]`` of an (M, M) grid is the value at ``(i/M, j/M)``.
    :meth:`from_rows` builds C channels that share each point's stencil
    indices and weights, from channels whose DFT a caller already has.

    The coefficients are the grid's 2-d real DFT divided by the sampled
    B-spline symbol s(kx) s(ky), s(k) = (4 + 2 cos 2 pi k/M)/6, which is
    real and even, so the inverse transform is real.  They are built a
    channel at a time (:func:`_spline_rows`, then :meth:`_invert_columns`).
    They are stored once, channels first (each channel one contiguous
    (M + 4, M + 4) block), and wrap-padded by one node before and three
    after on each axis, so no stencil index needs a wrap: ``(x*M) % M``
    rounds to M itself for a tiny negative x, whose stencil then reaches
    node M + 2.  Evaluation uses ``scipy.ndimage``'s weights and summation
    order (``map_coordinates`` with ``mode="grid-wrap"``), and matches it
    bit for bit.
    """

    def __init__(self, grid: np.ndarray):
        self._invert_columns([_spline_rows(np.fft.rfft2(grid))], channels=False)

    @classmethod
    def from_rows(cls, rows: list) -> _PeriodicSpline2D:
        """The spline of C channels, channels first, whose first inverse
        passes (:func:`_spline_rows`) are the C arrays of the list
        ``rows``."""
        spline = cls.__new__(cls)
        spline._invert_columns(rows, channels=True)
        return spline

    def _invert_columns(self, rows: list, channels: bool) -> None:
        """Store the coefficients: each channel's ``rows`` inverted over its
        columns, ``TABLE_BLOCK`` values at a time, into the interior of one
        padded table, whose wrap border is then copied from the interior.
        The 1-d transforms are ``np.fft.irfft2``'s, so the table equals
        ``np.pad(irfft2(...), ..., mode="wrap")`` bit for bit."""
        m = len(rows[0])
        width = m + 4
        coeffs = np.empty((len(rows), width, width) if channels else (width, width))
        step = max(1, TABLE_BLOCK // m)
        for table, part in zip(coeffs.reshape(-1, width, width), rows):
            for first in range(0, m, step):
                block = part[first : first + step]
                table[1 + first : 1 + first + len(block), 1 : m + 1] = np.fft.irfft(
                    block, n=m, axis=-1
                )
        # padded node i is node (i - 1) mod M; copied in this order, a
        # border wider than M (M < 3) wraps from nodes already copied
        wrap = ((0, m), (m + 1, 1), (m + 2, 2), (m + 3, 3))
        inner = coeffs[..., 1 : m + 1, :]
        for dst, src in wrap:
            inner[..., dst] = inner[..., src]
        for dst, src in wrap:
            coeffs[..., dst, :] = coeffs[..., src, :]
        self.m = m
        self._coeffs = coeffs
        # one flat view per channel, one entry per padded node
        self._tables = list(coeffs.reshape(-1, width * width))
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
        integer nodes, wrapped into [0, M) so that no coordinate overflows
        the integer cast, and the (4, 4, N) products of the two axes'
        weights."""
        m = self.m
        coords = points.T * m
        nodes = np.floor(coords)
        wx, wy = _cubic_weights(coords - nodes).transpose(1, 0, 2)  # (2, 4, N)
        return (nodes % m).astype(np.intp), wx[:, None, :] * wy[None, :, :]

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
    orbit mostly read the same cell.
    """

    def __init__(self, spline: _PeriodicSpline2D, base: float, scale=1.0, shift=0.0):
        self.m, self.flat = spline.m, spline._flat
        self.base, self.scale, self.shift = base, scale, shift
        # the flat index of the last cell read, then its 16 coefficients
        self.cell = (-1,) + (0.0,) * 16

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
        i, dt = _piece(self.x, np.asarray(xs, dtype=float))
        return _horner(self._c[:, i], dt)


def _piece(nodes: np.ndarray, xs) -> tuple:
    """The piece between increasing ``nodes`` of each point, the end pieces
    taking the points beyond them: its index and the point's offset from
    its left node."""
    i = np.clip(np.searchsorted(nodes, xs, side="right") - 1, 0, len(nodes) - 2)
    return i, xs - nodes[i]


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """The polynomials with coefficients ``coeffs`` (highest first, along
    the first axis) at x."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


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


class RadialDecaying:
    """A radial function r -> h2(r) tending to zero, from a table (r, values):
    the not-a-knot cubic spline through it up to its last radius ``r_max``,
    and zero beyond.

    Its enclosed integral F(r) = int_0^r s h2(s) ds is exact.  On the piece
    from node x_i, s h2(s) is a quartic in d = s - x_i, so F is F(x_i) plus
    d g_i(d), g_i a quartic; F at the nodes is the running sum of the
    pieces.  The radii must be >= 0.  A table whose radii start above 0
    takes its first piece, extrapolated as ``__call__`` evaluates it, as one
    more piece from 0.  Beyond ``r_max``, F is constant.
    """

    def __init__(self, table):
        spline = self._spline = _CubicSpline(*table)
        x, (c3, c2, c1, c0) = spline.x, spline._c
        if x[0] < 0:
            raise ValueError("a radial table's radii must be >= 0")
        self.r_max = float(x[-1])
        if x[0] > 0:
            # the first piece in powers of s, not of s - x0: a piece from 0
            x0, (b3, b2, b1, _) = x[0], spline._c[:, 0]
            shifted = [b3, b2 - 3.0 * b3 * x0, b1 - (2.0 * b2 - 3.0 * b3 * x0) * x0, spline(0.0)]
            x = np.concatenate([[0.0], x])
            c3, c2, c1, c0 = np.column_stack([shifted, spline._c])
        self._nodes, xi = x, x[:-1]
        # g_i, highest first: int_0^d (x_i + e) p_i(e) de = d g_i(d)
        self._g = np.stack(
            [c3 / 5.0, (c2 + xi * c3) / 4.0, (c1 + xi * c2) / 3.0, (c0 + xi * c1) / 2.0, xi * c0]
        )
        dx = np.diff(x)
        self._knots = np.concatenate([[0.0], np.cumsum(dx * _horner(self._g, dx))])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.r_max, self._spline(np.minimum(r, self.r_max)), 0.0)

    def q_profile(self, r) -> np.ndarray:
        """F(r)/r, 0 at r = 0: the profile f of the potential
        Q(p) = f(|p|) p/|p|, whose divergence is h2(|p|).  On the first
        piece, from node 0, it is (r/r) g_0(r): no r^2 is formed to
        underflow."""
        r = np.asarray(r, dtype=float)
        i, d = _piece(self._nodes, np.minimum(r, self.r_max))
        rs = np.where(r > 0, r, 1.0)
        inside = self._knots[i] / rs + d / rs * _horner(self._g[:, i], d)
        f = np.where(r <= self.r_max, inside, self._knots[-1] / rs)
        return np.where(r > 0, f, 0.0)

    def linf(self, nr: int = 4096) -> float:
        r = np.linspace(0.0, self.r_max, nr)
        r[0] = min(1e-9, self.r_max / nr)
        return float(np.abs(self(r)).max())


@dataclass(frozen=True)
class CurvatureField:
    """Curvature H = constant + periodic(p) + decaying(|p|).

    ``periodic`` is a nonempty M x M grid of finite values on the unit cell
    (``periodic[i, j] = H1(i/M, j/M)``); its mean is folded into the
    constant, so the stored grid has zero mean.  ``radial`` tends to zero
    at infinity.  ``ValueError`` when the grid is not a nonempty square, or
    it, its mean, the constant plus that mean or its spline coefficients
    are not finite in floating point.
    """

    constant: float = 0.0
    periodic: np.ndarray | None = field(default=None, repr=False)
    radial: RadialDecaying | None = None

    def __post_init__(self):
        constant = float(self.constant)
        spline = point = None
        if self.periodic is not None:
            grid = np.ascontiguousarray(self.periodic, dtype=float)
            if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or not grid.size:
                raise ValueError(f"periodic part must be a nonempty square grid, got {grid.shape}")
            # a non-finite entry or an overflowing sum makes the mean, and so
            # every entry less it, non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                mean = grid.mean()
                grid = grid - mean
            constant += float(mean)
            if not (np.isfinite(grid).all() and math.isfinite(constant)):
                raise ValueError("periodic part, its mean and the constant plus it must be finite")
            object.__setattr__(self, "periodic", grid)
            # finite values whose spectrum overflows give a non-finite table
            with np.errstate(over="ignore", invalid="ignore"):
                spline = _PeriodicSpline2D(grid)
            if not np.isfinite(spline._coeffs).all():
                raise ValueError("periodic part's spline coefficients overflow")
            point = _SplinePoint(spline, constant)
            if self.radial is None:
                # H is the constant plus the spline: one frame a point (see at)
                object.__setattr__(self, "at", point.at)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_point", point)

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
        try:
            mat = np.array(
                [
                    [1.0, s0**2, s0**4],
                    [0.0, 2.0 * s0, 4.0 * s0**3],
                    [0.0, 2.0, 12.0 * s0**2],
                ]
            )
            # h's first two derivatives at s0, taken before h: a zero
            # s0^(gamma+2) raises here, and a positive one keeps s^gamma > 0
            # for every s >= s0, so _outer never divides by zero
            d1 = -g * a / s0 ** (g + 1.0)
            d2 = g * (g + 1.0) * a / s0 ** (g + 2.0)
            poly = np.linalg.solve(mat, np.array([self._outer(s0), d1, d2]))
        except (OverflowError, ZeroDivisionError):
            poly = None
        if poly is None or not np.isfinite(poly).all():
            raise ValueError(
                f"'A' = {a!r}, 'gamma' = {g!r}, 's0' = {s0!r}: the C^2 extension "
                "below s0 is not finite in floating point"
            )
        object.__setattr__(self, "_poly", poly)

    def _outer(self, s):
        # s^gamma may overflow to inf for s > 1, where A / inf = 0 is right
        with np.errstate(over="ignore"):
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


def _wavenumbers(m: int) -> tuple:
    """The wavenumbers of an (M, M//2 + 1) half-spectrum: kx of each row,
    shape (M, 1), and ky of each column, shape (M//2 + 1,)."""
    return np.fft.fftfreq(m, d=1.0 / m)[:, None], np.arange(m // 2 + 1, dtype=float)


def _gradient_symbols(m: int) -> tuple:
    """The symbols 2 pi i k of d/dx and d/dy on an (M, M//2 + 1)
    half-spectrum, shapes (M, 1) and (M//2 + 1,).  Each is zero at its
    Nyquist frequency, as the real part of the full complex solve leaves
    the odd symbol there."""
    kx, ky = _wavenumbers(m)
    return (
        np.where(2.0 * np.abs(kx) == m, 0.0, 2j * np.pi * kx),
        np.where(2.0 * ky == m, 0.0, 2j * np.pi * ky),
    )


def solve_torus_poisson(grid: np.ndarray) -> np.ndarray:
    """Spectral solution of the unit-cell Poisson equation -lap v = H.

    ``grid`` (M, M) must have zero mean.  Returns v as the 2-d real DFT of
    its grid values: the (M, M//2 + 1) half-spectrum that
    ``np.fft.irfft2(..., s=(M, M))`` turns into the (M, M) grid.  One rfft2
    gives H^, then v^ = H^ / (4 pi^2 |k|^2); the zero mode of v is zero.
    grad v^ is v^ times the symbols of :func:`_gradient_symbols`.
    """
    grid = np.asarray(grid, dtype=float)
    m = grid.shape[0]
    sup = max(grid.max(), -grid.min(), 1e-300)
    if abs(grid.mean()) > 1e-10 * sup:
        raise NonZeroMean(f"cell mean {grid.mean():.3e} exceeds 1e-10 * sup")
    vhat = np.fft.rfft2(grid)  # H^, divided into v^ in place
    kx, ky = _wavenumbers(m)
    k2 = kx**2 + ky**2
    k2[0, 0] = np.inf  # v has no zero mode
    vhat /= 4.0 * np.pi**2 * k2
    return vhat


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


@dataclass(frozen=True)
class VectorPotential:
    """Composite field Q with div Q = H, as :func:`build_potential` makes it.

    Parts: a periodic gradient, the two-channel cubic B-spline ``_spline``
    built from the spectrum of each channel (divergence equal to the
    periodic part of H; no grid of Q is formed); the radial part
    ``F(|p|) p/|p|^2`` of the field's own :class:`RadialDecaying`
    ``radial``, F(r) = int_0^r s h2(s) ds in closed form
    (:meth:`RadialDecaying.q_profile`; divergence equal to the decaying
    part); and the linear field ``linear_coefficient * p / 2``.
    """

    radial: RadialDecaying | None = field(default=None, repr=False)
    linear_coefficient: float = 0.0
    _spline: _PeriodicSpline2D | None = field(default=None, repr=False, compare=False)

    def sup_periodic(self) -> float:
        """max |Q| of the periodic part over the grid nodes."""
        if self._spline is None:
            return 0.0
        gx, gy = self._spline.nodes()
        return float(np.hypot(gx, gy).max())

    def sup_radial(self) -> float:
        """max |Q| of the radial part over 8193 radii of [0, r_max]
        (:func:`lorentz_norm_21`'s cell edges); beyond r_max, |Q| falls
        as 1/|p|."""
        if self.radial is None:
            return 0.0
        r = np.linspace(0.0, self.radial.r_max, 8193)
        return float(np.abs(self.radial.q_profile(r)).max())

    def sup_zero_mean(self) -> float:
        """Upper bound on the sup norm of the non-linear (zero-mean) part."""
        return self.sup_periodic() + self.sup_radial()


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
        if potential.radial is not None:
            if r is None:
                r = _radius(flat)
            f = potential.radial.q_profile(r)
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

    Flips the sign of the periodic Poisson gradient so that div Q = +H.
    The periodic part takes one forward transform, the rfft2 of the H grid
    in :func:`solve_torus_poisson`.  One channel of Q at a time, its
    spectrum -grad v^ is made, prefiltered and inverted over its rows, then
    dropped; once v^ is gone too, each channel's rows are inverted over its
    columns straight into its slot of the spline's table.  No two-channel
    spectrum and no grid of Q exist.  The radial part is the field's own
    :class:`RadialDecaying`, whose enclosed integral is exact: no table is
    built.
    """
    spline = None
    if field_.periodic is not None:
        vhat = solve_torus_poisson(field_.periodic)
        rows = []
        for symbol in _gradient_symbols(len(vhat)):
            # Q^ = -grad v^ of one channel, dropped once its rows are inverted
            cells = np.multiply(symbol, vhat)
            rows.append(_spline_rows(np.negative(cells, out=cells)))
            del cells
        del vhat  # before the table is made
        spline = _PeriodicSpline2D.from_rows(rows)
    return VectorPotential(
        radial=field_.radial, linear_coefficient=field_.constant, _spline=spline
    )


def _number(key: str, value, kind=float):
    """``value`` as a finite ``kind``, float or int: a JSON number, never a
    bool or a numeric string, which ``float`` would also take, and an int
    where ``kind`` is int.  The one scalar rule of field documents, curve
    files and config keys; ``ValueError`` names ``key``."""
    ok = isinstance(value, (int, float) if kind is float else int)
    # compared exactly: math.isfinite would overflow on a huge int
    if not (ok and not isinstance(value, bool) and abs(value) <= sys.float_info.max):
        noun = "a finite number" if kind is float else "an integer"
        raise ValueError(f"key {key!r} must be {noun}, got {value!r}")
    return kind(value)


def _numbers(value, key: str) -> np.ndarray:
    """``value``, an array of :func:`._read.read_numeric` or nested lists, as an
    array of finite floats; ``ValueError`` names ``key`` when it is ragged
    or holds anything but numbers: a bool or a string, which
    ``np.asarray(..., dtype=float)`` would take, or an int beyond the
    floats."""
    try:
        array = np.asarray(value, dtype=float)
        # a list's entries are checked; a read array holds only numbers
        entries = () if isinstance(value, np.ndarray) else np.asarray(value, dtype=object).flat
        kinds = set(map(type, entries))
        numbers = all(k is not bool and issubclass(k, (int, float, np.number)) for k in kinds)
    except OverflowError:
        raise ValueError(f"key {key!r} must hold finite numbers") from None
    except (TypeError, ValueError):
        numbers = False
    if not numbers:
        raise ValueError(f"key {key!r} must be a rectangular array of numbers")
    if not np.isfinite(array).all():
        raise ValueError(f"key {key!r} must hold finite numbers")
    return array


def _known_keys(doc: dict, where: str, keys: tuple) -> None:
    """``ValueError`` naming the first key of ``doc`` not in ``keys``."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where} (keys: {', '.join(keys)})")


def field_from_dict(doc) -> tuple:
    """Parse a field document: a JSON object with optional keys
    {"constant", "periodic_grid", "radial": {"r", "h"}, "radial_params"}.
    This is the one reader of the format, and it checks every key, whichever
    part its caller uses.  Returns the :class:`CurvatureField` and the
    :class:`RadialCurvature` of "radial_params" (None without that key).

    Raises ``ValueError`` naming the key when the document is not an
    object or has a key outside that set, the constant is not a finite
    number, "radial" is not an object with exactly "r" and "h" that makes a
    :class:`RadialDecaying` table, an array is ragged or holds a
    non-number, "periodic_grid" fails :class:`CurvatureField`'s checks, or
    "radial_params" fails :func:`radial_curvature_from_dict`.
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
        try:
            radial = RadialDecaying(table=table)
        except ValueError as exc:
            raise ValueError(f"key 'radial': {exc}") from None
    periodic = doc.get("periodic_grid")
    if periodic is not None:
        periodic = _numbers(periodic, "periodic_grid")
    constant = _number("constant", doc.get("constant", 0.0))
    try:
        field_ = CurvatureField(constant=constant, periodic=periodic, radial=radial)
    except ValueError as exc:
        raise ValueError(f"key 'periodic_grid': {exc}") from None
    params = doc.get("radial_params")
    return field_, None if params is None else radial_curvature_from_dict(params)


def radial_curvature_from_dict(params) -> RadialCurvature:
    """Build a RadialCurvature from a "radial_params" object
    {"A", "gamma", "s0"}; "A" and "gamma" are required, and any other key
    is rejected by name."""
    if not isinstance(params, dict):
        raise ValueError("'radial_params' must be a JSON object")
    _known_keys(params, "'radial_params'", ("A", "gamma", "s0"))
    return RadialCurvature(
        A=_number("A", params.get("A")),
        gamma=_number("gamma", params.get("gamma")),
        s0=_number("s0", params.get("s0", 1.0)),
    )


def read_field(path) -> tuple:
    """Read a field file: the :class:`CurvatureField` and the
    :class:`RadialCurvature` of its "radial_params" (None without that
    key), as :func:`field_from_dict` returns them; see there for the
    format.  ``ValueError`` names the file, and the key when one is at
    fault."""
    doc = read_numeric(path)
    try:
        return field_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"cannot parse field file {path}: {exc}") from None
