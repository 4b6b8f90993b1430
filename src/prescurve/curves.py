"""Uniformly sampled closed planar curves with spectral differentiation.

A curve is a T-periodic map into the plane stored as N samples at the
uniform parameters ``t_j = T j / N``.  All derivative operations act on the
trigonometric interpolant of the samples, so they are exact for band-limited
curves, and all integrals use the trapezoidal rule, which is spectrally
accurate for periodic integrands.

The rotation ``i p = (-y, x)`` (counterclockwise by pi/2) fixes every sign
convention in the package.  Under it the counterclockwise unit circle has
curvature +1 and signed area -pi; tests record this pairing explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._text import rows_text
from .errors import DegenerateSpeed
from ._read import read_numeric
from .fields import _known_keys, _number, _numbers

__all__ = [
    "ClosedCurve",
    "rot90",
    "apply_symbol",
    "derivative",
    "length",
    "signed_area",
    "reparametrize_constant_speed",
    "is_simple",
    "curve_reverse",
    "circle",
    "trig_resample",
    "read_curve",
    "write_curve",
]

#: Relative threshold below which a speed counts as degenerate.
EPS_REG = 1e-8


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate plane vectors by +pi/2: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


@dataclass(frozen=True)
class ClosedCurve:
    """T-periodic plane curve sampled at N uniform parameter values.

    Attributes
    ----------
    period:
        Length T of the parameter interval (1 for the minimization parts,
        2*pi*n for assembled immersed loops).
    samples:
        Array of shape (N, 2) with N even and >= 16.
    """

    period: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"'samples' must have shape (N, 2), got {samples.shape}")
        n = samples.shape[0]
        if n < 16 or n % 2:
            raise ValueError(f"need an even number of samples >= 16 in 'samples', got {n}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("'samples' must be finite")
        if not (self.period > 0 and np.isfinite(self.period)):
            raise ValueError(f"'period' must be positive and finite, got {self.period!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def params(self) -> np.ndarray:
        """The sample parameters t_j = period * j / N."""
        return self.period * np.arange(self.n) / self.n

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def diameter(self) -> float:
        lo = self.samples.min(axis=0)
        hi = self.samples.max(axis=0)
        return float(np.hypot(*(hi - lo)))


def apply_symbol(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier to uniformly sampled periodic data.

    ``values`` has N samples along axis 0.  ``symbol`` holds the multiplier
    of each mode k = 0..N/2 of the real FFT, shape (N/2+1,); derivative
    symbols come from ``_derivative_symbol``.  An array of shape
    (N/2+1, K) is a stack of K multipliers along a trailing axis: the
    result gains that axis, shape ``values.shape + (K,)``, and the K
    products share one forward transform.  The inverse transform keeps only
    the real part of the Nyquist product, so an odd (imaginary) symbol
    annihilates that mode and an even one scales it as a cosine.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    factor = np.asarray(symbol)
    stack = factor.shape[1:]
    spectrum = np.fft.rfft(values, axis=0)
    spectrum = spectrum.reshape(spectrum.shape + (1,) * len(stack))
    factor = factor.reshape(factor.shape[:1] + (1,) * (values.ndim - 1) + stack)
    return np.fft.irfft(spectrum * factor, n=n, axis=0)


def _frozen(*arrays):
    """The arrays, made read-only: cached tables are shared between calls."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _derivative_symbol(n: int, period: float, *orders: int) -> np.ndarray:
    """The symbols (i (2 pi / T) k)^order of the derivatives of the given
    orders at period T, one row per rfft mode k = 0..n/2 and one column per
    order.  Built once per (n, period, orders) and read-only, since every
    caller shares it.
    """
    base = 1j * (2.0 * np.pi / period) * np.arange(n // 2 + 1, dtype=float)
    (symbol,) = _frozen(np.stack([base**o for o in orders], axis=1))
    return symbol


def derivative(curve: ClosedCurve, order: int = 1) -> np.ndarray:
    """Sampled order-th derivative of the trigonometric interpolant.

    Exact for band-limited curves; ``order`` must be 1, 2 or 3.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    return apply_symbol(curve.samples, _derivative_symbol(curve.n, curve.period, order)[:, 0])


def _jet(values: np.ndarray, period: float):
    """The first and second derivatives of periodic samples at period T,
    from one forward transform.  Each is a contiguous copy of the shape of
    ``values``, so that a reduction over it (``einsum``) adds in the same
    order as over a lone ``derivative``."""
    jet = apply_symbol(values, _derivative_symbol(len(values), period, 1, 2))
    return jet[..., 0].copy(), jet[..., 1].copy()


def _speed(curve: ClosedCurve) -> np.ndarray:
    # an overflowing u' is reported by ``_require_regular``, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        du = derivative(curve, 1)
    return np.hypot(du[:, 0], du[:, 1])


def _require_regular(curve: ClosedCurve, speed: np.ndarray) -> None:
    if not np.isfinite(speed).all():
        # an overflowed or NaN derivative: no threshold can judge it
        bad = speed[~np.isfinite(speed)]
        raise DegenerateSpeed(
            f"speed is not finite at {bad.size} of {speed.size} samples (e.g. {bad[0]})"
        )
    threshold = EPS_REG * max(_length(curve, speed), 0.0) / curve.period
    if speed.min() <= threshold:
        raise DegenerateSpeed(
            f"min speed {speed.min():.3e} <= threshold {threshold:.3e}"
        )


def _length(curve: ClosedCurve, speed: np.ndarray) -> float:
    """``length`` from the speed at the nodes that a caller already has."""
    return float(speed.sum() * curve.period / curve.n)


def length(curve: ClosedCurve) -> float:
    """Curve length: trapezoidal quadrature of the speed over one period."""
    return _length(curve, _speed(curve))


def signed_area(curve: ClosedCurve) -> float:
    """Signed area (1/2) * integral of u . i u' over one period.

    Translation invariant and 2-homogeneous under scaling about the origin.
    With the i = (+pi/2)-rotation convention the *clockwise* circle has
    positive area.
    """
    du = derivative(curve, 1)
    integrand = np.einsum("ij,ij->i", curve.samples, rot90(du))
    return float(0.5 * integrand.sum() * curve.period / curve.n)


def _curvature(curve: ClosedCurve, du, d2u, speed) -> np.ndarray:
    """Signed curvature (i u' . u'') / |u'|^3 at the sample nodes, from the
    sampled u', u'' and speed that a caller already has (``_jet``); raises
    ``DegenerateSpeed`` on a curve that is not regular, or whose speed**3
    underflows to 0 or overflows."""
    _require_regular(curve, speed)
    with np.errstate(over="ignore"):
        cube = speed**3
    if not (cube.min() > 0.0 and cube.max() < np.inf):
        raise DegenerateSpeed(
            f"speed**3 leaves the positive floats: it spans [{cube.min()}, {cube.max()}]"
        )
    return np.einsum("ij,ij->i", rot90(du), d2u) / cube


#: Oversampling factor of the table that ``trig_resample`` reads off.
RESAMPLE_GRID = 16
#: Number of equispaced table nodes in each Lagrange stencil.
RESAMPLE_STENCIL = 12

# stencil node offsets -5..6 around the node left of the target, and the
# constant Lagrange denominators prod_{l != m} (d_m - d_l), exact in floats
_STENCIL_OFFSETS = np.arange(RESAMPLE_STENCIL) - (RESAMPLE_STENCIL // 2 - 1)
_STENCIL_DENOM = np.array(
    [
        float(np.prod([dm - dl for dl in _STENCIL_OFFSETS if dl != dm]))
        for dm in _STENCIL_OFFSETS
    ]
)


def _lagrange_weights(frac: np.ndarray) -> np.ndarray:
    """Stencil weights at fractional offsets ``frac`` in [0, 1).

    Each numerator prod_{l != m} (frac - d_l) is built from prefix and suffix
    products rather than by dividing out one factor, so a target on a node
    (frac = 0) gets exact Kronecker weights.
    """
    diff = frac[:, None] - _STENCIL_OFFSETS
    left = np.ones_like(diff)
    right = np.ones_like(diff)
    left[:, 1:] = np.cumprod(diff[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(diff[:, :0:-1], axis=1)[:, ::-1]
    return left * right / _STENCIL_DENOM


def _regrid(values: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of N ``values`` at m uniform nodes,
    node j at fraction j / m of the period, exactly, by one FFT of the
    larger of the two sizes.

    The Nyquist mode of even N is split in halves at +-N/2.  Above N the
    spectrum is zero-padded; below N each mode k folds into bin k mod m, the
    mode it aliases to on the coarser grid.
    """
    n = values.shape[0]
    if m == n:
        return values.copy()
    if m > n:
        coef = np.fft.rfft(values, axis=0)
        if n % 2 == 0:
            # on the finer grid the Nyquist mode gains a conjugate partner
            coef[n // 2] *= 0.5
        out = np.fft.irfft(coef, n=m, axis=0)
        out *= m / n
        return out
    full = np.fft.fft(values, axis=0)
    half = n // 2
    if n % 2 == 0:
        nyq = 0.5 * full[half : half + 1]
        modes = np.concatenate([nyq, full[half + 1 :], full[:half], nyq])
    else:
        modes = np.concatenate([full[half + 1 :], full[: half + 1]])
    # modes[p] is mode p - half
    folded = np.zeros((m,) + values.shape[1:], dtype=complex)
    np.add.at(folded, (np.arange(len(modes)) - half) % m, modes)
    return np.fft.ifft(folded, axis=0).real * (m / n)


def _read_off(table: np.ndarray, period: float, t) -> np.ndarray:
    """Read a tabulated interpolant off at the parameters ``t``.

    ``table`` holds the interpolant at ``len(table)`` uniform nodes of the
    period, as ``_regrid`` makes it; each parameter is read off by
    ``RESAMPLE_STENCIL``-point equispaced Lagrange interpolation, O(1) per
    parameter.
    """
    size = table.shape[0]
    x = np.atleast_1d(np.asarray(t, dtype=float)) * (size / period)
    left = np.floor(x)
    stencil = (left.astype(np.int64)[:, None] + _STENCIL_OFFSETS) % size
    weights = _lagrange_weights(x - left)
    return np.einsum("pk,pk...->p...", weights, table[stencil])


def trig_resample(
    values: np.ndarray, period: float, t: np.ndarray | None = None, *, nodes=None
):
    """Evaluate the trigonometric interpolant of periodic samples.

    ``values`` may be (N,) or (N, m); the result has matching trailing shape.
    The interpolant carries the Nyquist mode of even N as a pure cosine.
    Give exactly one of ``t`` and ``nodes``:

    - ``nodes=m`` returns the interpolant at the uniform parameters
      ``period * j / m``, j < m, exactly, from one zero-padded (m > N) or
      aliased (m < N) FFT: O(m log m + N log N) time, O(m + N) memory;
      ``nodes=N`` returns a copy of ``values``.
    - ``t`` evaluates at arbitrary parameters by gridding, as in the NUFFT:
      the interpolant is tabulated on ``RESAMPLE_GRID * N`` uniform points
      as above and read off by ``RESAMPLE_STENCIL``-point equispaced
      Lagrange interpolation.  The cost is O(N log N) plus O(len(t)); on
      full-spectrum data the error is on a par with summing the Fourier
      series directly in double precision.  A caller that reads the same
      samples off more than once (``reparametrize_constant_speed``) builds
      the table once and reads it off each time.
    """
    values = np.asarray(values, dtype=float)
    if (t is None) == (nodes is None):
        raise ValueError("give exactly one of 't' and 'nodes'")
    if nodes is not None:
        if int(nodes) != nodes or nodes < 1:
            raise ValueError(f"'nodes' must be a positive integer, got {nodes!r}")
        return _regrid(values, int(nodes))
    return _read_off(_regrid(values, RESAMPLE_GRID * values.shape[0]), period, t)


#: Newton on the arclength stops once an update it applied is at most this
#: fraction of the period; it takes ``NEWTON_MAX`` steps at most.
NEWTON_TOL = 1e-12
NEWTON_MAX = 6


def reparametrize_constant_speed(curve: ClosedCurve) -> ClosedCurve:
    """Resample the curve at equal arclength increments.

    The start point is kept, the period is unchanged, and length and signed
    area are preserved to spectral accuracy.

    One table of ``RESAMPLE_GRID * N`` uniform nodes carries the arclength,
    the speed and the curve, exactly, from one FFT.  The arclength column
    gives a monotone initial guess of each target parameter by linear
    interpolation; Newton steps read arclength and speed off the table until
    an update is at most ``NEWTON_TOL`` times the period (at most
    ``NEWTON_MAX`` steps; a curve of nearly constant speed takes one), and
    the new samples are read off the same table.
    """
    speed = _speed(curve)
    _require_regular(curve, speed)
    n, period = curve.n, curve.period

    # spectral antiderivative of the speed: S(t) = mean*t + osc(t) - osc(0)
    mean = speed.mean()
    k = np.arange(n // 2 + 1, dtype=float)
    osc0 = apply_symbol(
        speed, np.divide(period, 2j * np.pi * k, out=np.zeros(k.shape, complex), where=k > 0)
    )
    size = RESAMPLE_GRID * n
    table = _regrid(np.column_stack([osc0, speed, curve.samples]), size)

    targets = mean * curve.params
    t_table = period * np.arange(size) / size
    t_cur = np.interp(targets, mean * t_table + table[:, 0] - osc0[0], t_table)
    for _ in range(NEWTON_MAX):
        osc, spd = _read_off(table[:, :2], period, t_cur).T
        update = (mean * t_cur + osc - osc0[0] - targets) / spd
        t_cur = t_cur - update
        if np.abs(update).max() <= NEWTON_TOL * period:
            break
    return ClosedCurve(period=period, samples=_read_off(table[:, 2:], period, t_cur))


def _arcs_interleave(r1, r2, r3, r4) -> bool:
    """Whether rays r3, r4 separate rays r1, r2 in angular order around 0.

    This is the transversality test for two curve strands meeting at a
    point: strand A leaves along r1/r2, strand B along r3/r4; the strands
    cross iff exactly one of r3, r4 lies on the arc from r1 to r2.
    """
    a1 = np.arctan2(r1[1], r1[0])
    a2 = np.arctan2(r2[1], r2[0])
    a3 = np.arctan2(r3[1], r3[0])
    a4 = np.arctan2(r4[1], r4[0])
    span = (a2 - a1) % (2.0 * np.pi)
    in3 = ((a3 - a1) % (2.0 * np.pi)) < span
    in4 = ((a4 - a1) % (2.0 * np.pi)) < span
    return in3 != in4


def _candidate_pairs(a: np.ndarray, b: np.ndarray, tol: float):
    """Non-adjacent segment pairs (i < j) whose tol-padded boxes overlap.

    Sort and sweep over x-extents (Shamos & Hoey 1976): after sorting the
    segments by their padded left end, the segments whose x-extent meets
    that of segment p are the ones up to ``searchsorted`` of its right end.
    The pairs come back in row-major order, as ``triu_indices`` lists them.
    """
    n = len(a)
    lo = np.minimum(a, b) - tol
    hi = np.maximum(a, b) + tol
    order = np.argsort(lo[:, 0], kind="stable")
    stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    counts = stop - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    start = np.cumsum(counts) - counts
    second = first + 1 + np.arange(first.size) - np.repeat(start, counts)
    p, q = order[first], order[second]
    idx_i, idx_j = np.minimum(p, q), np.maximum(p, q)
    keep = (
        (lo[idx_i, 1] <= hi[idx_j, 1])
        & (lo[idx_j, 1] <= hi[idx_i, 1])
        & (idx_j - idx_i > 1)
        # the pair (0, n-1) is adjacent through the wrap-around
        & (idx_j - idx_i < n - 1)
    )
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    row_major = np.lexsort((idx_j, idx_i))
    return idx_i[row_major], idx_j[row_major]


def is_simple(curve: ClosedCurve):
    """Whether the sample polyline has no transverse self-intersection.

    Returns ``(simple, pairs)`` where ``pairs`` lists the parameter values
    (t_i, t_j) of crossing locations.  Two detection passes run: proper
    interior crossings of non-adjacent segment pairs, and coincident-node
    contacts (within 1e-10 * diameter) that the angular interleaving test
    classifies as transverse.  Both tests run only on the segment pairs
    whose bounding boxes, padded by that tolerance, overlap; those include
    every pair either test can flag.  Sampling density is the caller's
    responsibility.
    """
    pts = curve.samples
    n = curve.n
    a = pts
    b = np.roll(pts, -1, axis=0)
    tol = 1e-10 * max(curve.diameter(), 1e-300)
    dt = curve.period / n
    pairs = []

    idx_i, idx_j = _candidate_pairs(a, b, tol)

    p, r = a[idx_i], b[idx_i] - a[idx_i]
    q, s = a[idx_j], b[idx_j] - a[idx_j]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = q - p
    t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    u_num = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]

    scale_r = np.hypot(r[:, 0], r[:, 1])
    scale_s = np.hypot(s[:, 0], s[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        tpar = t_num / denom
        upar = u_num / denom
    # endpoint tolerance in parameter units of each segment
    eps_t = tol / np.where(scale_r > 0, scale_r, 1.0)
    eps_u = tol / np.where(scale_s > 0, scale_s, 1.0)
    transverse = (
        (np.abs(denom) > tol * np.maximum(scale_r, scale_s))
        & (tpar > eps_t)
        & (tpar < 1.0 - eps_t)
        & (upar > eps_u)
        & (upar < 1.0 - eps_u)
    )
    for h in np.nonzero(transverse)[0]:
        pairs.append(
            (float((idx_i[h] + tpar[h]) * dt), float((idx_j[h] + upar[h]) * dt))
        )

    # crossings that run exactly through sample nodes
    d2 = np.sum((pts[idx_i] - pts[idx_j]) ** 2, axis=1)
    contact = (d2 <= tol**2) & (idx_j - idx_i > 1) & (idx_j - idx_i < n - 1)
    for h in np.nonzero(contact)[0]:
        i, j = int(idx_i[h]), int(idx_j[h])
        r1 = pts[(i - 1) % n] - pts[i]
        r2 = pts[(i + 1) % n] - pts[i]
        r3 = pts[(j - 1) % n] - pts[j]
        r4 = pts[(j + 1) % n] - pts[j]
        if min(map(np.linalg.norm, (r1, r2, r3, r4))) <= tol:
            continue  # stacked nodes: under-resolved, skip
        if _arcs_interleave(r1, r2, r3, r4):
            pairs.append((float(i * dt), float(j * dt)))

    return len(pairs) == 0, pairs


def curve_reverse(curve: ClosedCurve) -> ClosedCurve:
    """Reverse the orientation (t -> -t); flips the signed area sign."""
    rolled = np.roll(curve.samples[::-1], 1, axis=0)
    return ClosedCurve(period=curve.period, samples=rolled)


def circle(
    radius: float,
    center=(0.0, 0.0),
    n: int = 256,
    period: float = 1.0,
    orientation: int = 1,
) -> ClosedCurve:
    """Circle sampled uniformly; orientation +1 is counterclockwise."""
    t = 2.0 * np.pi * np.arange(n) / n
    c = np.asarray(center, dtype=float)
    samples = c + radius * np.stack(
        [np.cos(orientation * t), np.sin(orientation * t)], axis=1
    )
    return ClosedCurve(period=period, samples=samples)


def read_curve(path) -> ClosedCurve:
    """Read a curve file: a JSON object with keys "period" and "samples"
    and no others.  ``ValueError`` names the file, and the key when one is
    at fault."""
    doc = read_numeric(path)
    try:
        if not isinstance(doc, dict) or "period" not in doc or "samples" not in doc:
            raise ValueError("not a curve file (need 'period' and 'samples')")
        _known_keys(doc, "a curve file", ("period", "samples"))
        samples = _numbers(doc["samples"], "samples")
        return ClosedCurve(period=_number("period", doc["period"]), samples=samples)
    except ValueError as exc:
        raise ValueError(f"cannot parse curve file {path}: {exc}") from None


def write_curve(curve: ClosedCurve, path) -> None:
    # the text of json.dumps({"period": ..., "samples": ...}): its floats
    # are repr, its separators ", " and ": "
    samples = rows_text(curve.samples, ", ", "], [")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"period": {float(curve.period)!r}, "samples": [[{samples}]]}}\n')
