import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from prescurve.curves import (
    ClosedCurve,
    _curvature,
    _derivative_symbol,
    _jet,
    _length,
    apply_symbol,
    derivative,
    rot90,
    trig_resample,
)
from prescurve.errors import (
    DegenerateSpeed,
    MaxIterationsExceeded,
    NoSignChange,
    NotContracting,
    PrescurveError,
)
from prescurve.fields import (
    CurvatureField,
    RadialDecaying,
    _cubic_weights,
    _gradient_symbols,
    _PeriodicSpline2D,
    _spline_rows,
    solve_torus_poisson,
)
from prescurve.immersed import (
    FORCING,
    AnsatzParams,
    LSConfig,
    LSResult,
    _brent,
    _search,
    default_bracket,
    fixed_point_solve,
)

# the suite's settings on top of Hypothesis's own "default" and "ci"
# profiles; Hypothesis picks "ci" (derandomized, printing a reproduction
# blob) when the CI environment variable is set
for _name in ("default", "ci"):
    settings.register_profile(
        _name,
        settings.get_profile(_name),
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
settings.load_profile(settings.get_current_profile_name())


def random_loop(rng, n=256, modes=4, scale=1.0, period=1.0):
    """Random band-limited closed curve around a displaced circle."""
    t = np.arange(n) / n
    base = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
    wig = np.zeros((n, 2))
    for k in range(2, modes + 2):
        amp = 0.25 / k**2
        wig += amp * rng.normal(size=(1, 2)) * np.cos(2 * np.pi * k * t)[:, None]
        wig += amp * rng.normal(size=(1, 2)) * np.sin(2 * np.pi * k * t)[:, None]
    center = rng.normal(scale=0.5, size=2)
    return scale * (base + wig) + center


# Reference implementations used as oracles by several test modules; the
# library keeps only what its callers use.


def fourier_sum(values: np.ndarray, period: float, t) -> np.ndarray:
    """The trigonometric interpolant of N uniform samples (N, ...) at ``t``,
    by the explicit Fourier sum: modes -N/2+1..N/2-1 plus, for even N, the
    Nyquist mode as a cosine.  ``t`` goes in blocks to bound memory."""
    n = len(values)
    j = np.arange(n)
    k = np.arange(-((n - 1) // 2), (n + 1) // 2)
    coef = np.exp(-2j * np.pi * np.outer(k, j) / n) @ values / n
    nyq = np.cos(np.pi * j) @ values / n
    t = np.asarray(t, dtype=float)
    out = np.empty((len(t),) + values.shape[1:])
    for lo in range(0, len(t), 1024):
        rows = slice(lo, lo + 1024)
        out[rows] = (np.exp(2j * np.pi * np.outer(t[rows], k) / period) @ coef).real
        if n % 2 == 0:
            out[rows] += np.multiply.outer(np.cos(np.pi * n * t[rows] / period), nyq)
    return out


def zero_padded_resample(values: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of N ``values`` at m > N uniform nodes,
    from the zero-padded spectrum, scaled by a product that allocates its
    own result: the reference that ``trig_resample(..., nodes=m)`` must
    equal byte for byte."""
    n = len(values)
    coef = np.fft.rfft(values, axis=0)
    if n % 2 == 0:
        coef[n // 2] *= 0.5
    return np.fft.irfft(coef, n=m, axis=0) * (m / n)


def curvature(curve) -> np.ndarray:
    """Signed curvature K(u) at the nodes, formed as the solvers and
    ``check`` form it: ``curves._curvature`` over one ``curves._jet``."""
    du, d2u = _jet(curve.samples, curve.period)
    return _curvature(curve, du, d2u, np.hypot(du[:, 0], du[:, 1]))


def dirichlet(curve) -> float:
    """Dirichlet value sqrt(T * integral |u'|^2); equals the length iff the
    speed is constant, and dominates it otherwise."""
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    return float(np.sqrt(curve.period * (speed**2).sum() * curve.period / curve.n))


def pair(curve, grad: np.ndarray, direction: np.ndarray) -> float:
    """L^2 pairing of a sampled gradient with a sampled direction field:
    the trapezoidal quadrature of their dot product over one period."""
    return float(np.einsum("ij,ij->i", grad, direction).sum() * curve.period / curve.n)


def area_gradient(curve) -> np.ndarray:
    """L^2 representative of the signed-area first variation: i u'."""
    return rot90(derivative(curve, 1))


def energy_gradient(curve, field: CurvatureField) -> np.ndarray:
    """L^2 representative of the first variation of L + A_H, from its own
    u' and its own lookup of H: the length part -d/dt(u'/|u'|) formed
    spectrally on the interpolant, plus H(u) i u'.  For band-limited test
    directions phi the pairing reproduces the directional derivative of
    the energy; ``physics.verify_solution`` forms the constrained gradient
    ``energy_gradient - lam area_gradient`` with these operations in this
    order from its one jet."""
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    if speed.min() <= 1e-8 * _length(curve, speed) / curve.period:
        raise DegenerateSpeed("energy gradient needs a regular curve")
    tangent = du / speed[:, None]
    h = field.value(curve.samples)
    dtangent = apply_symbol(tangent, _derivative_symbol(curve.n, curve.period, 1)[:, 0])
    return -dtangent + h[:, None] * rot90(du)


def reparametrize_rebuilt(curve):
    """Constant-speed resampling as six fixed Newton steps on the arclength,
    each through ``trig_resample``, which tabulates the interpolant anew on
    every call; the initial guess comes from an 8N arclength table."""
    n, period = curve.n, curve.period
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    mean = speed.mean()
    k = np.arange(n // 2 + 1, dtype=float)
    osc0 = apply_symbol(
        speed, np.divide(period, 2j * np.pi * k, out=np.zeros(k.shape, complex), where=k > 0)
    )
    targets = mean * curve.params
    t_dense = period * np.arange(8 * n) / (8 * n)
    s_dense = mean * t_dense + trig_resample(osc0, period, nodes=8 * n) - osc0[0]
    t_cur = np.interp(targets, s_dense, t_dense)
    jet = np.stack([osc0, speed], axis=1)
    for _ in range(6):
        osc, spd = trig_resample(jet, period, t_cur).T
        t_cur = t_cur - (mean * t_cur + osc - osc0[0] - targets) / spd
    return ClosedCurve(period, trig_resample(curve.samples, period, t_cur))


class PointOnCurve(PrescurveError):
    """Winding number requested at a point lying on the curve."""


def winding_number(curve, point) -> int:
    """Winding number of the sample polyline around ``point``.

    Raises ``PointOnCurve`` when the point is closer to the polyline than
    1e-9 times the curve diameter.
    """
    p = np.asarray(point, dtype=float)
    v = curve.samples - p
    w = np.roll(v, -1, axis=0)
    # distance from the point to each closed-polyline segment
    seg = w - v
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    tpar = np.clip(
        -np.einsum("ij,ij->i", v, seg) / np.where(seg_len2 > 0, seg_len2, 1.0), 0.0, 1.0
    )
    closest = v + tpar[:, None] * seg
    dist = np.min(np.hypot(closest[:, 0], closest[:, 1]))
    tol = 1e-9 * max(curve.diameter(), 1e-300)
    if dist <= tol:
        raise PointOnCurve(f"point within {dist:.3e} of the curve")
    y0, y1 = v[:, 1], w[:, 1]
    cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    up = (y0 <= 0.0) & (y1 > 0.0) & (cross > 0.0)
    down = (y0 > 0.0) & (y1 <= 0.0) & (cross < 0.0)
    return int(np.count_nonzero(up)) - int(np.count_nonzero(down))


def sup_norm(field: CurvatureField) -> float:
    """Upper bound on sup |H|."""
    return abs(field.constant) + field.zero_mean_sup()


def tabulated(profile, r_max: float = 16.0, num: int = 4097) -> RadialDecaying:
    """The radial part through ``profile`` at ``num`` uniform radii of
    [0, r_max]; past r = 16 a Gaussian of unit width is below 1e-9 of its
    peak."""
    r = np.linspace(0.0, r_max, num)
    return RadialDecaying(table=(r, profile(r)))


def write_field(field: CurvatureField, path, radial_params: dict | None = None):
    """Write a field file: the constant, the periodic grid, the radial part
    tabulated at 512 radii, and ``radial_params`` when given."""
    doc: dict = {"constant": float(field.constant)}
    if field.periodic is not None:
        doc["periodic_grid"] = [[float(v) for v in row] for row in field.periodic]
    if field.radial is not None:
        r = np.linspace(0.0, field.radial.r_max, 512)
        doc["radial"] = {
            "r": [float(v) for v in r],
            "h": [float(v) for v in field.radial(r)],
        }
    if radial_params is not None:
        doc["radial_params"] = radial_params
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def spline_at(spline, x: float, y: float) -> float:
    """A periodic spline at one point, read stencil node by stencil node
    from the padded coefficients, with no cache: the scalar form of
    ``combine`` that ``fields._SplinePoint.at`` must reproduce."""
    m, flat = spline.m, spline._flat
    cx, cy = (x * m) % m, (y * m) % m
    fx, fy = math.floor(cx), math.floor(cy)
    a = [float(w) for w in _cubic_weights(cx - fx)]
    b = [float(w) for w in _cubic_weights(cy - fy)]
    total = 0.0
    for i in range(4):
        for j in range(4):
            total = total + flat[(fx + i) * (m + 4) + fy + j] * a[i] * b[j]
    return total


def gradient_spectrum(grid: np.ndarray) -> np.ndarray:
    """grad v, -lap v = H, as the (2, M, M//2 + 1) two-channel half-spectrum,
    channels first: ``solve_torus_poisson``'s v^ times each symbol of
    ``fields._gradient_symbols``, stacked.  Negated, its whole-grid table
    (``padded_coefficients``) is the one the potential's must equal."""
    vhat = solve_torus_poisson(grid)
    grad = np.empty((2,) + vhat.shape, dtype=complex)
    for c, symbol in enumerate(_gradient_symbols(len(vhat))):
        np.multiply(symbol, vhat, out=grad[c])
    return grad


def torus_gradient(grid: np.ndarray) -> np.ndarray:
    """The (M, M, 2) grid of grad v, -lap v = H, from its two-channel
    half-spectrum."""
    m = grid.shape[0]
    return np.moveaxis(np.fft.irfft2(gradient_spectrum(grid), s=(m, m)), 0, -1)


def padded_coefficients(cells: np.ndarray) -> np.ndarray:
    """The wrap-padded B-spline coefficient table of the grid whose 2-d
    real DFT is ``cells``, (M, M//2 + 1) or (C, M, M//2 + 1) channels
    first, built with whole-grid transforms: the symbol division, one
    ``irfft2`` over all channels, then ``np.pad``.  The reference that
    ``fields._PeriodicSpline2D``'s table must equal byte for byte."""
    m = cells.shape[-2]
    s = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)) / 6.0
    coeffs = np.fft.irfft2(cells / np.multiply.outer(s, s[: m // 2 + 1]), s=(m, m))
    return np.pad(coeffs, [(0, 0)] * (cells.ndim - 2) + [(1, 3), (1, 3)], mode="wrap")


def node_value_spline(grid: np.ndarray) -> _PeriodicSpline2D:
    """The cubic B-spline through the node values of an (M, M, C) grid, C
    channels, channels first: each channel's rfft2 and first inverse pass
    (``fields._spline_rows``), then ``_PeriodicSpline2D.from_rows``."""
    rows = [_spline_rows(np.fft.rfft2(grid[:, :, c])) for c in range(grid.shape[2])]
    return _PeriodicSpline2D.from_rows(rows)


def complex_fft_q(field: CurvatureField) -> np.ndarray:
    """The (M, M, 2) grid of the periodic part of the vector potential, Q =
    -grad v, as it was built by a full complex-FFT Poisson solve: fft2 of
    the H grid, then one ifft2 per component of grad v (real parts).  Its
    spline (``node_value_spline``) takes a second forward transform."""
    grid = field.periodic
    m = grid.shape[0]
    hhat = np.fft.fft2(grid)
    k = np.fft.fftfreq(m, d=1.0 / m)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = kx**2 + ky**2
    with np.errstate(divide="ignore", invalid="ignore"):
        vhat = np.where(k2 > 0, hhat / (4.0 * np.pi**2 * k2), 0.0)
    gx = np.fft.ifft2(2j * np.pi * kx * vhat).real
    gy = np.fft.ifft2(2j * np.pi * ky * vhat).real
    return -np.stack([gx, gy], axis=-1)


def write_off_fstrings(lift, path) -> None:
    """``CylinderLift.write_off`` with one f-string per face: the reference
    that the rows_text face writer must equal byte for byte."""
    xy = [f"{x!r} {y!r} " for x, y in lift.points.tolist()]
    z = [f"{v!r}\n" for v in np.log(lift.r).tolist()]
    nt, nr = len(xy), len(z)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{nt * nr} {2 * nt * (nr - 1)} 0\n")
        fh.write("".join([p + q for p in xy for q in z]))
        fh.write("".join([f"3 {a} {b} {c}\n" for a, b, c in lift.faces().tolist()]))


def disc_scores_general(ctx, centers: np.ndarray, radius: float) -> np.ndarray:
    """``minimize._disc_scores`` with the general lookup for every center:
    H read by ``CurvatureField.value`` at each disc's 288 midpoint polar
    quadrature points, 8 discs a call."""
    nr, na = 12, 24
    r_edges = radius * np.sqrt(np.linspace(0.0, 1.0, nr + 1))
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    weights = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2) / na
    ang = 2.0 * np.pi * (np.arange(na) + 0.5) / na
    offsets = np.stack(
        [r_mid[:, None] * np.cos(ang)[None, :], r_mid[:, None] * np.sin(ang)[None, :]],
        axis=-1,
    )
    scores = []
    for first in range(0, len(centers), 8):
        block = centers[first : first + 8]
        h = ctx.field.value(block[:, None, None, :] + offsets)
        scores.append((h * weights[:, None]).reshape(len(block), -1).sum(axis=1))
    return np.concatenate(scores)


class TwoFramePoint:
    """Oracle for ``fields._SplinePoint``, with its constructor: the field
    read ``H = constant + spline`` in a frame of its own, NaN at a
    non-finite point, then the map ``scale * (H - shift)`` applied outside
    it, as a closure around ``CurvatureField.at`` computes it."""

    def __init__(self, spline, base, scale=1.0, shift=0.0):
        self.spline, self.base, self.scale, self.shift = spline, base, scale, shift

    def _field_at(self, x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.nan
        return float(self.base) + spline_at(self.spline, x, y)

    def at(self, x, y):
        return self.scale * (self._field_at(x, y) - self.shift)


def field_value(field_like, points) -> np.ndarray:
    """Evaluate a curvature given as a field object, callable, or constant."""
    if hasattr(field_like, "value"):
        return field_like.value(points)
    pts = np.asarray(points, dtype=float)
    if callable(field_like):
        return np.asarray(field_like(pts), dtype=float)
    return np.full(pts.shape[:-1], float(field_like))


def shape_derivative(curve, field, variation: np.ndarray) -> float:
    """Directional energy derivative via the pointwise curvature-gap form
    integral (H(u) - K(u)) (V . i u')."""
    du = derivative(curve, 1)
    k = curvature(curve)
    h = field_value(field, curve.samples)
    integrand = (h - k) * np.einsum("ij,ij->i", variation, rot90(du))
    return float(integrand.sum() * curve.period / curve.n)


def _row_crossings(samples: np.ndarray, y: float):
    """Crossing abscissae and orientations of the closed polyline with a
    horizontal line.  Upward crossings count +1, downward -1, with the
    half-open convention that makes the total winding exact."""
    ya = samples[:, 1]
    yb = np.roll(ya, -1)
    xa = samples[:, 0]
    xb = np.roll(xa, -1)
    up = (ya <= y) & (yb > y)
    down = (yb <= y) & (ya > y)
    hit = up | down
    frac = (y - ya[hit]) / (yb[hit] - ya[hit])
    xs = xa[hit] + frac * (xb[hit] - xa[hit])
    signs = np.where(up[hit], 1.0, -1.0)
    order = np.argsort(xs)
    return xs[order], signs[order]


# 5-point Gauss-Legendre rule on [0, 1]
_GL_NODES = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GL_WEIGHTS = np.polynomial.legendre.leggauss(5)[1] / 2.0


def anisotropic_area_by_winding(curve, field, rows: int = 1024, panel: float = 0.05) -> float:
    """Weighted area as the plane integral of winding number times H.

    Gauge-free oracle for ``anisotropic_area``: with the +pi/2 rotation
    in the line integral, Green's theorem gives the integral of div Q
    against *minus* the counterclockwise-positive winding number, which is
    the sign applied here.  Each horizontal row is cut exactly at the
    polyline crossings, where the winding number is a suffix sum of
    crossing signs; H is integrated with composite Gauss panels (width
    <= ``panel``) per piece, and rows combine with the midpoint rule in y.
    """
    pts = curve.samples
    ymin, ymax = pts[:, 1].min(), pts[:, 1].max()
    eps = 1e-9 * max(curve.diameter(), 1.0)
    ymin, ymax = ymin - eps, ymax + eps
    dy = (ymax - ymin) / rows
    total = 0.0
    for j in range(rows):
        y = ymin + (j + 0.5) * dy
        xs, signs = _row_crossings(pts, y)
        if len(xs) < 2:
            continue
        # winding on (xs[k], xs[k+1]) is the sum of signs of crossings right of it
        suffix = np.cumsum(signs[::-1])[::-1]
        omega = suffix[1:]  # winding between consecutive crossings
        live = np.nonzero(omega)[0]
        if len(live) == 0:
            continue
        # composite Gauss panels over each live piece
        panel_x0 = []
        panel_w = []
        panel_om = []
        for k in live:
            width = xs[k + 1] - xs[k]
            nseg = max(1, int(np.ceil(width / panel)))
            h = width / nseg
            panel_x0.append(xs[k] + h * np.arange(nseg))
            panel_w.append(np.full(nseg, h))
            panel_om.append(np.full(nseg, omega[k]))
        x0 = np.concatenate(panel_x0)
        wdt = np.concatenate(panel_w)
        om = np.concatenate(panel_om)
        nodes = x0[:, None] + wdt[:, None] * _GL_NODES[None, :]
        pts_eval = np.stack([nodes, np.full_like(nodes, y)], axis=-1)
        hvals = field_value(field, pts_eval)
        piece = (hvals * _GL_WEIGHTS[None, :]).sum(axis=1) * wdt
        total += float((om * piece).sum()) * dy
    return -total


def linf_apply(phi: np.ndarray) -> np.ndarray:
    """The model operator phi'' + phi, applied as the single per-mode
    symbol (1 - k^2) so the kernel modes are annihilated exactly."""
    k = np.arange(len(phi) // 2 + 1, dtype=float)
    return apply_symbol(phi, 1.0 - k**2)


def project_perp(f: np.ndarray) -> np.ndarray:
    """Remove the cos t and sin t modes."""
    k = np.arange(len(f) // 2 + 1, dtype=float)
    return apply_symbol(f, np.where(k == 1.0, 0.0, 1.0))


def sderiv(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of 2 pi-periodic samples: one transform pair per
    call, with the symbol (ik)^order built anew."""
    k = np.arange(len(values) // 2 + 1, dtype=float)
    return apply_symbol(values, (1j * k) ** order)


class _Frame:
    """Closed-form ansatz data at sample nodes, as complex arrays: the
    complex-frame oracle of the immersed solve's real invariants.

    The frequencies are (+-1/m, n/m) in the rescaled parameter and
    (+-1/n, 1) in the full one.
    """

    def __init__(self, params: AnsatzParams, t: np.ndarray, rescaled: bool = True):
        R = params.R
        m = params.rescale if rescaled else params.n
        w1, w2 = params.sign / m, (params.n / m) if rescaled else 1.0  # slow, fast
        e1, e2 = np.exp(1j * w1 * t), np.exp(1j * w2 * t)
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


def perturbed(params, phi):
    """``(w, w', K)`` of the normal perturbation w = u + phi * normal at the
    nodes of ``phi``: the frame computes its own waves, and each derivative
    of phi takes its own transform pair."""
    phi = np.asarray(phi, dtype=float)
    t = 2.0 * np.pi * np.arange(len(phi)) / len(phi)
    return _perturb(_Frame(params, t), phi, sderiv(phi, 1), sderiv(phi, 2))


def curvature_gap(params, phi, h) -> np.ndarray:
    """Curvature gap K(u + phi nu) - H(u + phi nu) at the nodes of ``phi``."""
    w, _, kappa = perturbed(params, phi)
    return kappa - h(np.abs(w))


def verify_second_multiplier(result, h):
    """|lambda2| of a radius search's result alongside the rotation-invariance
    integral of (H - K)(w . w') over the period, which vanishes for every
    closed curve w, both evaluated anew on the result's profile."""
    params = AnsatzParams(n=result.n, R=result.R, mirror=result.mirror)
    phi = result.phi
    w, dw, kappa = perturbed(params, phi)
    gap = kappa - h(np.abs(w))
    radial_rate = (w.conjugate() * dw).real
    identity = float((-gap * radial_rate).sum() * 2.0 * np.pi / len(phi))
    return abs(result.lambda2), identity


def fixed_point_rebuilt(params, h, config=None, phi0=None, inexact=False):
    """``fixed_point_solve`` with nothing shared between iterates: each
    derivative and each Linv takes its own transform pair with its symbol
    built anew, and the curve is evaluated on the complex frame.  Returns
    the same six fields: ``(phi, lambda1, lambda2, trace, gap, w . w')``."""
    config = config or LSConfig()
    num = config.num_samples
    t = 2.0 * np.pi * np.arange(num) / num
    frame = _Frame(params, t)
    cos_t, sin_t = np.cos(t), np.sin(t)
    weight = 2.0 * np.pi / num / np.pi
    k = np.arange(num // 2 + 1, dtype=float)
    if phi0 is None:
        phi = np.zeros(num)
    else:
        phi = apply_symbol(np.array(phi0, dtype=float), (k != 1.0).astype(float))
    phi_prev = res_prev = None
    trace = []
    growing = 0
    for _ in range(config.max_iter):
        w, dw, kappa = _perturb(frame, phi, sderiv(phi, 1), sderiv(phi, 2))
        gap = kappa - h(np.abs(w))
        residual = -apply_symbol(
            gap, np.divide(1.0, 1.0 - k**2, out=np.zeros_like(k), where=k != 1.0)
        )
        delta = float(np.abs(residual).max())
        growing = growing + 1 if trace and delta > trace[-1] else 0
        if growing >= 5:
            raise NotContracting("defect grew for 5 consecutive iterations")
        trace.append(delta)
        lam1 = float((gap * cos_t).sum() * weight)
        lam2 = float((gap * sin_t).sum() * weight)
        if delta <= config.tol_fp or (
            inexact and abs(lam1) > config.tol_root and delta <= FORCING * abs(lam1)
        ):
            return phi, lam1, lam2, tuple(trace), gap, (w.conjugate() * dw).real
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
    raise MaxIterationsExceeded("fixed-point defect not below tol_fp")


def brent(f, a, fa, b, fb, tol_f):
    """Drive the generator ``immersed._brent`` with the function ``f``:
    the root ``(x, f(x))`` that Brent's method stops on."""
    steps = _brent(a, fa, b, fb, tol_f)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def search(n, h, config, first):
    """Drive the generator ``immersed._search`` with ``fixed_point_solve``:
    each request is answered with ``fixed_point_solve(..., inexact=True)``,
    the first answer mapped by ``first``.  The ``LSResult`` the search
    returns; a solve that raises raises here."""
    steps = _search(n, h, config)
    try:
        params, phi0 = next(steps)
        sol = first(fixed_point_solve(params, h, config, phi0, inexact=True))
        while True:
            params, phi0 = steps.send(sol)
            sol = fixed_point_solve(params, h, config, phi0, inexact=True)
    except StopIteration as stop:
        return stop.value


def find_radius_sequential(n, h, config=None):
    """The radius search of ``find_radius``, written as one loop of calls:
    ``fixed_point_solve`` per evaluation, the bracket-end walk, then
    ``brent`` in log r.  The sequential oracle of the lockstep searches."""
    config = config or LSConfig()
    tol_root = config.tol_root
    mirror = h.A < 0.0
    power = 2.0 ** ((h.gamma + 2.0) / 2.0)
    r0, r1 = config.r_bracket or default_bracket(h)
    if not (power * r0 < abs(h.A) * h.gamma / 2.0 < r1):
        raise ValueError(
            f"'r_bracket' ({r0:g}, {r1:g}) violates the root-existence inequalities"
        )
    R1 = (r1 * n) ** (1.0 / (h.gamma + 2.0))
    if not R1 < n:
        key = "r_bracket" if config.r_bracket else "n_list"
        raise ValueError(f"'{key}': bracket end r = {r1:g} gives R = {R1:.4g}, not < n = {n}")
    solved = {}

    def lam1_at(r):
        params = AnsatzParams(n=n, R=(r * n) ** (1.0 / (h.gamma + 2.0)), mirror=mirror)
        nearest = min(solved, key=lambda s: abs(s - r), default=None)
        phi0 = None if nearest is None else solved[nearest].phi
        sol = fixed_point_solve(params, h, config, phi0, inexact=True)
        solved[r] = sol
        return sol.lambda1

    walks = []

    def endpoint(end, other):
        r = end
        for failed in range(16):
            try:
                f = lam1_at(r)
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

    r0, f_lo = endpoint(r0, r1)
    r1, f_hi = endpoint(r1, r0)
    if f_lo == 0.0:
        r_n, stop_reason = r0, "bracket_end"
    elif f_hi == 0.0:
        r_n, stop_reason = r1, "bracket_end"
    elif f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"lambda1({r0:g}) = {f_lo:.3e} and lambda1({r1:g}) = {f_hi:.3e}" + "".join(walks)
        )
    else:
        radius = {math.log(r0): r0, math.log(r1): r1}

        def lam1_at_log(s):
            radius[s] = math.exp(s)
            return lam1_at(radius[s])

        s_n, f_n = brent(lam1_at_log, math.log(r0), f_lo, math.log(r1), f_hi, tol_root)
        r_n = radius[s_n]
        if abs(f_n) > tol_root:
            raise MaxIterationsExceeded("radius search did not reach tol_root")
        stop_reason = "tol_root"
    sol = solved[r_n]
    gap = sol.gap
    sin_t = np.sin(2.0 * np.pi * np.arange(len(gap)) / len(gap))
    residual = float(np.abs(gap - sol.lambda2 * sin_t).max())
    return LSResult(
        n=n,
        R=(r_n * n) ** (1.0 / (h.gamma + 2.0)),
        r=r_n,
        mirror=mirror,
        phi=sol.phi,
        lambda1=sol.lambda1,
        lambda2=sol.lambda2,
        residual=residual,
        iterations=len(sol.trace),
        radius_evals=len(solved),
        trace=tuple((r, s.lambda1, len(s.trace), s.trace[-1]) for r, s in solved.items()),
        converged=abs(sol.lambda1) <= tol_root and residual <= tol_root + 100.0 * config.tol_fp,
        stop_reason=stop_reason,
        rotation_identity=float((-gap * sol.radial_rate).sum() * 2.0 * np.pi / len(sol.phi)),
    )


def find_radius_in_r(n, h, config=None):
    """The radius search with Brent's method in r itself, warm-started
    inexact solves as in ``find_radius`` (no bracket-end walk).  Returns
    ``(r, lambda1, radius_evals)``."""
    config = config or LSConfig()
    r0, r1 = config.r_bracket or default_bracket(h)
    solved = {}

    def lam1_at(r):
        params = AnsatzParams(n=n, R=(r * n) ** (1.0 / (h.gamma + 2.0)), mirror=h.A < 0)
        nearest = min(solved, key=lambda s: abs(s - r), default=None)
        phi0 = None if nearest is None else solved[nearest]
        sol = fixed_point_solve(params, h, config, phi0, inexact=True)
        solved[r] = sol.phi
        return sol.lambda1

    f0 = lam1_at(r0)
    r, lam1 = brent(lam1_at, r0, f0, r1, lam1_at(r1), config.tol_root)
    return r, lam1, len(solved)


def radial_masked(h, s):
    """``RadialCurvature`` by its masked formula alone: the inner
    polynomial below s0, the power law elsewhere, chosen point by point."""
    s = np.asarray(s, dtype=float)
    inner = s < h.s0
    c0, c2, c4 = h._poly
    s_safe = np.where(inner, h.s0, s)
    return np.where(inner, c0 + c2 * s**2 + c4 * s**4, h._outer(s_safe))


def linearized_coeffs(params, num_samples: int = 512):
    """The three coefficient functions of the linearized curvature operator
    a phi'' + b phi' + c phi at the unperturbed ansatz."""
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    fr = _Frame(params, t)
    s = fr.speed
    dot12 = (fr.du.conjugate() * fr.d2u).real
    cross12 = (fr.du.conjugate() * fr.d2u).imag  # i u' . u''
    a = 1.0 / s**2
    b = -dot12 / s**4
    c = (2.0 * dot12**2 - 2.0 * np.abs(fr.d2u) ** 2 * s**2 + 3.0 * cross12**2) / s**6
    return a, b, c


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def value_calls(monkeypatch):
    """Shapes of the points passed to ``CurvatureField.value`` during the test."""
    calls = []
    value = CurvatureField.value

    def counting_value(self, points):
        calls.append(np.shape(points))
        return value(self, points)

    monkeypatch.setattr(CurvatureField, "value", counting_value)
    return calls
