import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from prescurve.fields import CurvatureField

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


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
