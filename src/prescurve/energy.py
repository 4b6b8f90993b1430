"""The prescribed-curvature energy L + A_H and its first variation.

The weighted area is the line integral of the vector potential along the
curve, and the gradient is the L^2 first variation (length variation
integrated by parts spectrally).  Their independent oracles live in
``tests/``: a plane quadrature of the winding number against H, which
agrees with the line integral for any potential with div Q = H, and the
pointwise shape derivative integral (H - K)(V . i u').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, apply_symbol, derivative, length, rot90
from .errors import DegenerateSpeed
from .fields import CurvatureField, VectorPotential, build_potential, q_eval

__all__ = [
    "EnergyContext",
    "build_context",
    "anisotropic_area",
    "field_and_potential",
    "energy",
    "energy_gradient",
    "pair",
    "area_gradient",
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


def field_and_potential(ctx: EnergyContext, points) -> tuple[np.ndarray, np.ndarray]:
    """H and Q at an (N, 2) array of points, bit for bit equal to
    ``ctx.field.value(points)`` and ``q_eval(ctx.potential, points)``.

    The two periodic parts combine one set of B-spline stencils (their grids
    have the same size whenever the potential comes from
    :func:`build_context`), and |p| is formed once for both radial parts.
    """
    field, potential = ctx.field, ctx.potential
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        # a non-finite point reads NaN, as the separate lookups mask it
        return field.value(pts), q_eval(potential, pts)
    h = np.full(len(pts), field.constant)
    q = 0.5 * potential.linear_coefficient * pts
    h_spline, q_spline = field._spline, potential._spline
    if h_spline is not None:
        stencil = h_spline.stencil(pts)
        h = h + h_spline.combine(stencil)
    if q_spline is not None:
        if h_spline is None or h_spline.m != q_spline.m:
            stencil = q_spline.stencil(pts)
        q = q + q_spline.combine(stencil)
    if field.radial is not None or potential._radial_spline is not None:
        r = np.hypot(pts[:, 0], pts[:, 1])
        if field.radial is not None:
            h = h + field.radial(r)
        if potential._radial_spline is not None:
            q = q + potential._radial_part(pts, r)
    return h, q


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
    h = ctx.field.value(curve.samples)
    dtangent = apply_symbol(tangent, lambda k: 2j * np.pi * k / curve.period)
    return -dtangent + h[:, None] * rot90(du)
