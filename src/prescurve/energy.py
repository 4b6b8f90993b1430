"""The prescribed-curvature energy L + A_H.

The weighted area is the line integral of the vector potential along the
curve.  Its independent oracle lives in ``tests/``: a plane quadrature of
the winding number against H, which agrees with the line integral for any
potential with div Q = H.  The L^2 gradient of L + A_H is formed in
``physics.verify_solution``, from the jet it already holds.

H and Q come from ``fields.h_and_q``, through its halves
``CurvatureField.value`` and ``q_eval``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, derivative, length, rot90
from .fields import CurvatureField, VectorPotential, build_potential, q_eval

__all__ = [
    "EnergyContext",
    "build_context",
    "anisotropic_area",
    "energy",
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
