"""Closed planar curves whose curvature matches a prescribed function of position.

Three routes to such curves are provided:

* area-constrained minimization of the weighted length ``L + A_H``
  (:mod:`prescurve.minimize`),
* an explicit perturbative construction of immersed loops for radial
  curvature profiles (:mod:`prescurve.immersed`),
* direct integration of the curvature ODE, with magnetic-orbit and
  cylinder-lift applications (:mod:`prescurve.physics`).

Everything is built on uniformly sampled periodic curves with spectral
differentiation (:mod:`prescurve.curves`) and on vector potentials whose
divergence is the prescribed curvature (:mod:`prescurve.fields`).
"""

from .curves import write_curve
from .energy import build_context
from .fields import RadialCurvature
from .immersed import build_immersed_loop
from .minimize import minimize_area_constrained, sweep_isoperimetric
from .physics import simulate_magnetic

__all__ = [
    "RadialCurvature",
    "build_context",
    "build_immersed_loop",
    "minimize_area_constrained",
    "simulate_magnetic",
    "sweep_isoperimetric",
    "write_curve",
]

__version__ = "0.1.0"
