"""The prescribed-curvature energy L + A_H and its first variation.

The weighted area is the line integral of the vector potential along the
curve, and the gradient is the L^2 first variation (length variation
integrated by parts spectrally).  Their independent oracles live in
``tests/``: a plane quadrature of the winding number against H, which
agrees with the line integral for any potential with div Q = H, and the
pointwise shape derivative integral (H - K)(V . i u').

H and Q come from ``fields.h_and_q``, through its halves
``CurvatureField.value`` and ``q_eval``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    ClosedCurve,
    _derivative_symbol,
    _length,
    apply_symbol,
    derivative,
    length,
    rot90,
)
from .errors import DegenerateSpeed
from .fields import CurvatureField, VectorPotential, build_potential, q_eval

__all__ = [
    "EnergyContext",
    "build_context",
    "anisotropic_area",
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


def energy(curve: ClosedCurve, ctx: EnergyContext) -> float:
    """Prescribed-curvature energy: length plus weighted area."""
    return length(curve) + anisotropic_area(curve, ctx)


def pair(curve: ClosedCurve, grad: np.ndarray, direction: np.ndarray) -> float:
    """L^2 pairing of a sampled gradient with a sampled direction field."""
    return _quad(curve, np.einsum("ij,ij->i", grad, direction))


def area_gradient(curve: ClosedCurve) -> np.ndarray:
    """L^2 representative of the signed-area first variation: i u'."""
    return rot90(derivative(curve, 1))


def energy_gradient(curve: ClosedCurve, field: CurvatureField) -> np.ndarray:
    """L^2 representative of the first variation of L + A_H.

    The length part -d/dt(u'/|u'|) is formed spectrally on the interpolant;
    the area part is H(u) i u', which reads H but not its potential.  For
    band-limited test directions phi the pairing reproduces the directional
    derivative of the energy.
    """
    du = derivative(curve, 1)
    speed = np.hypot(du[:, 0], du[:, 1])
    if speed.min() <= 1e-8 * _length(curve, speed) / curve.period:
        raise DegenerateSpeed("energy gradient needs a regular curve")
    tangent = du / speed[:, None]
    h = field.value(curve.samples)
    dtangent = apply_symbol(tangent, _derivative_symbol(curve.n, curve.period, 1)[:, 0])
    return -dtangent + h[:, None] * rot90(du)
