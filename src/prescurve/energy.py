"""The prescribed-curvature energy L + A_H and its first variation.

Two independent routes to the weighted area are provided: the line integral
of the vector potential along the curve, and a plane quadrature of the
winding number against H.  They agree for any potential with div Q = H,
which makes the pair a gauge-consistency check.

Shape derivatives likewise come in two forms: the L^2 gradient of the
energy (length variation integrated by parts spectrally) and the pointwise
formula integral (H - K)(V . i u'); their agreement is a standing
cross-check on the differentiation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    ClosedCurve,
    apply_symbol,
    curvature,
    derivative,
    length,
    rot90,
)
from .errors import DegenerateSpeed
from .fields import CurvatureField, VectorPotential, build_potential, field_value, q_eval

__all__ = [
    "EnergyContext",
    "build_context",
    "anisotropic_area",
    "anisotropic_area_by_winding",
    "energy",
    "energy_gradient",
    "shape_derivative",
    "pair",
    "area_gradient",
    "rescaled_anisotropic_area",
]


@dataclass(frozen=True)
class EnergyContext:
    """A curvature field together with its divergence-compatible potential."""

    field: CurvatureField
    potential: VectorPotential


def build_context(field: CurvatureField) -> EnergyContext:
    return EnergyContext(field=field, potential=build_potential(field))


def _quad(curve: ClosedCurve, values: np.ndarray) -> float:
    """Trapezoidal quadrature of sampled values over one period."""
    return float(values.sum() * curve.period / curve.n)


def anisotropic_area(curve: ClosedCurve, ctx: EnergyContext) -> float:
    """Weighted area as the line integral of Q_H(u) . i u'."""
    du = derivative(curve, 1)
    q = q_eval(ctx.potential, curve.samples)
    return _quad(curve, np.einsum("ij,ij->i", q, rot90(du)))


def energy(curve: ClosedCurve, ctx: EnergyContext) -> float:
    """Prescribed-curvature energy: length plus weighted area."""
    return length(curve) + anisotropic_area(curve, ctx)


def pair(curve: ClosedCurve, grad: np.ndarray, direction: np.ndarray) -> float:
    """L^2 pairing of a sampled gradient with a sampled direction field."""
    return _quad(curve, np.einsum("ij,ij->i", grad, direction))


def area_gradient(curve: ClosedCurve) -> np.ndarray:
    """L^2 representative of the signed-area first variation: i u'."""
    return rot90(derivative(curve, 1))


def energy_gradient(curve: ClosedCurve, ctx: EnergyContext) -> np.ndarray:
    """L^2 representative of the first variation of L + A_H.

    The length part -d/dt(u'/|u'|) is formed spectrally on the interpolant;
    the area part is H(u) i u'.  For band-limited test directions phi the
    pairing reproduces the directional derivative of the energy.
    """
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    if speed.min() <= 1e-8 * length(curve) / curve.period:
        raise DegenerateSpeed("energy gradient needs a regular curve")
    tangent = du / speed[:, None]
    h = field_value(ctx.field, curve.samples)
    dtangent = apply_symbol(tangent, lambda k: 2j * np.pi * k / curve.period)
    return -dtangent + h[:, None] * rot90(du)


def shape_derivative(curve: ClosedCurve, field, variation: np.ndarray) -> float:
    """Directional energy derivative via the pointwise curvature-gap form
    integral (H(u) - K(u)) (V . i u')."""
    du = derivative(curve, 1)
    k = curvature(curve)
    h = field_value(field, curve.samples)
    integrand = (h - k) * np.einsum("ij,ij->i", variation, rot90(du))
    return _quad(curve, integrand)


def rescaled_anisotropic_area(curve: ClosedCurve, ctx: EnergyContext, tau: float) -> float:
    """The scaling family A_{H;tau}(u) = A_H(tau u) / tau (tau > 0)."""
    if tau <= 0:
        raise ValueError("tau must be positive for the rescaled family")
    scaled = ClosedCurve(period=curve.period, samples=tau * curve.samples)
    return anisotropic_area(scaled, ctx) / tau


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


def anisotropic_area_by_winding(
    curve: ClosedCurve, field, rows: int = 1024, panel: float = 0.05
) -> float:
    """Weighted area as the plane integral of winding number times H.

    Gauge-free oracle for :func:`anisotropic_area`: with the +pi/2 rotation
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
