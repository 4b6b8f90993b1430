"""Exception types shared across the package."""


class PrescurveError(Exception):
    """Base class for numerical and validation failures."""


class DegenerateSpeed(PrescurveError):
    """A curve operation requiring regularity met a (nearly) vanishing or a
    non-finite speed."""


class NonZeroMean(PrescurveError):
    """The periodic Poisson solver received data with a nonzero cell mean."""


class NonIntegrable(PrescurveError):
    """The decaying radial datum has a numerically divergent tail integral."""


class FieldTooLarge(PrescurveError):
    """The vector potential violates the sup-norm smallness the theory needs."""


class SignIncompatible(PrescurveError):
    """The iterate's signed area cannot be projected onto the target value."""


class NoSignChange(PrescurveError):
    """The multiplier has the same sign at both ends of the radius bracket."""


class NotContracting(PrescurveError):
    """The fixed-point iteration increased its update norm repeatedly."""


class MaxIterationsExceeded(PrescurveError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


class StepTooLarge(PrescurveError):
    """The ODE integrator lost the conserved speed beyond tolerance."""
