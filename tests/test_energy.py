import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prescurve.curves import (
    ClosedCurve,
    circle,
    derivative,
    length,
    rot90,
    signed_area,
)
from prescurve.energy import (
    anisotropic_area,
    area_gradient,
    build_context,
    energy,
    energy_gradient,
    pair,
)
from prescurve.fields import CurvatureField, periodic_from_callable

from conftest import (
    anisotropic_area_by_winding,
    curvature,
    dirichlet,
    field_value,
    random_loop,
    shape_derivative,
    sup_norm,
    tabulated,
)


def rescaled_anisotropic_area(curve, ctx, tau: float) -> float:
    """The scaling family A_{H;tau}(u) = A_H(tau u) / tau (tau > 0)."""
    if tau <= 0:
        raise ValueError("tau must be positive for the rescaled family")
    scaled = ClosedCurve(period=curve.period, samples=tau * curve.samples)
    return anisotropic_area(scaled, ctx) / tau


@pytest.fixture(scope="module")
def ctx_one():
    return build_context(CurvatureField.from_parts(constant=1.0))


@pytest.fixture(scope="module")
def ctx_zero():
    return build_context(CurvatureField.from_parts(constant=0.0))


@pytest.fixture(scope="module")
def ctx_periodic():
    grid = periodic_from_callable(
        lambda x, y: 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        + 0.1 * np.cos(4 * np.pi * x),
        m=256,
    )
    return build_context(CurvatureField.from_parts(constant=0.3, periodic=grid))


def wobbly_curve(seed=1, n=256):
    rng = np.random.default_rng(seed)
    return ClosedCurve(1.0, random_loop(rng, n=n))


class TestAnisotropicArea:
    def test_constant_one_equals_signed_area(self, ctx_one):
        c = wobbly_curve()
        assert anisotropic_area(c, ctx_one) == pytest.approx(signed_area(c), rel=1e-12)

    def test_constant_curve_zero(self, ctx_periodic):
        c = ClosedCurve(1.0, np.tile([0.3, 0.4], (64, 1)))
        assert anisotropic_area(c, ctx_periodic) == pytest.approx(0.0, abs=1e-12)

    def test_jordan_circle_radial_field_against_disc_quadrature(self):
        # oracle: A_H = sign(area) * integral of H over the enclosed disc,
        # computed by 2-d polar quadrature
        rad = tabulated(lambda r: np.exp(-(r**2)))
        field = CurvatureField.from_parts(radial=rad)
        ctx = build_context(field)
        c = circle(1.3, center=(0.4, -0.2), n=256, orientation=1)  # area < 0
        nr, na = 400, 256
        r_edges = 1.3 * np.sqrt(np.linspace(0, 1, nr + 1))
        r_mid = (r_edges[:-1] + r_edges[1:]) / 2
        w = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2) / na
        ang = 2 * np.pi * (np.arange(na) + 0.5) / na
        px = 0.4 + r_mid[:, None] * np.cos(ang)
        py = -0.2 + r_mid[:, None] * np.sin(ang)
        disc = float((field.value(np.stack([px, py], axis=-1)) * w[:, None]).sum())
        expected = math.copysign(1.0, signed_area(c)) * disc
        assert anisotropic_area(c, ctx) == pytest.approx(expected, rel=1e-3)


class TestWindingArea:
    def test_circle_constant_field(self, ctx_one):
        c = circle(1.4, n=256, orientation=1)
        val = anisotropic_area_by_winding(c, ctx_one.field, rows=1024)
        assert val == pytest.approx(signed_area(c), rel=2e-4)

    def test_zero_field(self, ctx_zero):
        c = wobbly_curve()
        assert anisotropic_area_by_winding(c, ctx_zero.field, rows=64) == 0.0

    def test_figure_eight_cancels(self, ctx_one):
        t = np.arange(256) / 256
        f8 = ClosedCurve(
            1.0, np.stack([np.sin(4 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        )
        val = anisotropic_area_by_winding(f8, ctx_one.field, rows=1024)
        assert abs(val) < 1e-3

    def test_gauge_consistency_composite(self, ctx_periodic):
        c = wobbly_curve(seed=7)
        line = anisotropic_area(c, ctx_periodic)
        wind = anisotropic_area_by_winding(c, ctx_periodic.field, rows=2048)
        assert wind == pytest.approx(line, rel=1e-3)

    def test_gauge_consistency_figure_eight(self, ctx_periodic):
        t = np.arange(256) / 256
        f8 = ClosedCurve(
            1.0,
            np.stack(
                [0.8 * np.sin(4 * np.pi * t) + 0.3, 1.1 * np.sin(2 * np.pi * t) - 0.2],
                axis=1,
            ),
        )
        line = anisotropic_area(f8, ctx_periodic)
        wind = anisotropic_area_by_winding(f8, ctx_periodic.field, rows=2048)
        assert wind == pytest.approx(line, abs=2e-3 * max(1.0, abs(line)))


class TestEnergy:
    def test_zero_field_is_length(self, ctx_zero):
        c = wobbly_curve()
        assert energy(c, ctx_zero) == pytest.approx(length(c), rel=1e-14)

    def test_constant_curve(self, ctx_one):
        c = ClosedCurve(1.0, np.tile([0.1, 0.2], (64, 1)))
        assert energy(c, ctx_one) == pytest.approx(0.0, abs=1e-12)

    def test_circle_value(self, ctx_one):
        # K = +1 circle: E = 2 pi r - pi r^2 under the recorded convention
        for r in (0.5, 1.0, 2.0):
            c = circle(r, n=256, orientation=1)
            assert energy(c, ctx_one) == pytest.approx(
                2 * math.pi * r - math.pi * r**2, rel=1e-10
            )


class TestEnergyGradient:
    def test_matches_finite_differences(self, ctx_periodic, rng):
        # relative to the direction's natural scale |g| |phi| when the
        # directional derivative itself is nearly zero
        t = np.arange(256) / 256
        for trial in range(3):
            c = ClosedCurve(1.0, random_loop(rng))
            g = energy_gradient(c, ctx_periodic.field)
            gnorm = math.sqrt(pair(c, g, g))
            worst = 0.0
            for _ in range(20):
                phi = np.zeros((256, 2))
                for k in range(5):
                    phi += rng.normal(size=(1, 2)) * np.cos(2 * np.pi * k * t)[:, None]
                    phi += rng.normal(size=(1, 2)) * np.sin(2 * np.pi * k * t)[:, None]
                phi /= np.abs(phi).max()
                eps = 1e-5
                up = energy(ClosedCurve(1.0, c.samples + eps * phi), ctx_periodic)
                dn = energy(ClosedCurve(1.0, c.samples - eps * phi), ctx_periodic)
                fd = (up - dn) / (2 * eps)
                an = pair(c, g, phi)
                scale = max(abs(fd), 1e-2 * gnorm * math.sqrt(pair(c, phi, phi)))
                worst = max(worst, abs(fd - an) / scale)
            assert worst < 1e-6

    def test_tangential_direction_vanishes(self, ctx_periodic):
        c = wobbly_curve(seed=3)
        g = energy_gradient(c, ctx_periodic.field)
        du = derivative(c, 1)
        scale = math.sqrt(pair(c, g, g)) * math.sqrt(pair(c, du, du))
        assert abs(pair(c, g, du)) < 1e-8 * max(scale, 1.0)

    def test_critical_circle(self, ctx_one):
        c = circle(1.0, n=256, orientation=1)  # K = +1 = H
        g = energy_gradient(c, ctx_one.field)
        assert np.abs(g).max() < 1e-6


class TestShapeDerivative:
    def test_tangential_zero(self, ctx_periodic):
        c = wobbly_curve(seed=11)
        du = derivative(c, 1)
        assert abs(shape_derivative(c, ctx_periodic.field, du)) < 1e-10

    def test_normal_direction_formula(self, ctx_periodic):
        # E'(u)[i u'] equals the integral of (H - K) |u'|^2
        c = wobbly_curve(seed=13)
        du = derivative(c, 1)
        v = rot90(du)
        speed2 = du[:, 0] ** 2 + du[:, 1] ** 2
        h = field_value(ctx_periodic.field, c.samples)
        k = curvature(c)
        expected = float(((h - k) * speed2).mean())
        assert shape_derivative(c, ctx_periodic.field, v) == pytest.approx(
            expected, rel=1e-12
        )

    def test_agrees_with_gradient_pairing(self, ctx_periodic, rng):
        t = np.arange(256) / 256
        c = wobbly_curve(seed=17)
        g = energy_gradient(c, ctx_periodic.field)
        for _ in range(10):
            v = np.zeros((256, 2))
            for k in range(5):
                v += rng.normal(size=(1, 2)) * np.cos(2 * np.pi * k * t)[:, None]
                v += rng.normal(size=(1, 2)) * np.sin(2 * np.pi * k * t)[:, None]
            sd = shape_derivative(c, ctx_periodic.field, v)
            an = pair(c, g, v)
            assert sd == pytest.approx(an, rel=1e-7)


class TestScalingIdentity:
    def test_derivative_of_scaled_area(self, ctx_periodic):
        # d/ds A_H(s u) = s * integral H(s u) u . i u'
        c = wobbly_curve(seed=19)
        du = derivative(c, 1)
        idu = rot90(du)
        for s in (0.5, 0.9, 1.4, 2.0):
            eps = 1e-6
            up = anisotropic_area(ClosedCurve(1.0, (s + eps) * c.samples), ctx_periodic)
            dn = anisotropic_area(ClosedCurve(1.0, (s - eps) * c.samples), ctx_periodic)
            fd = (up - dn) / (2 * eps)
            h = field_value(ctx_periodic.field, s * c.samples)
            formula = s * float((h * np.einsum("ij,ij->i", c.samples, idu)).mean())
            assert fd == pytest.approx(formula, abs=1e-6 * max(1.0, abs(formula)))


class TestRescaledFamily:
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
    @settings(max_examples=100)
    def test_smallness_inequality(self, seed, tau):
        # S^2 |A_{H;tau}(u)| <= tau |H|_inf D(u)^2
        grid = periodic_from_callable(
            lambda x, y: 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), m=64
        )
        ctx = build_context(CurvatureField.from_parts(periodic=grid))
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        val = rescaled_anisotropic_area(c, ctx, tau)
        bound = tau * sup_norm(ctx.field) * dirichlet(c) ** 2 / (4 * math.pi)
        assert abs(val) <= bound * (1 + 1e-9) + 1e-12

    def test_match_direct_definition(self, ctx_periodic):
        c = wobbly_curve(seed=23)
        tau = 1.7
        direct = anisotropic_area(ClosedCurve(1.0, tau * c.samples), ctx_periodic) / tau
        assert rescaled_anisotropic_area(c, ctx_periodic, tau) == pytest.approx(direct)


def test_area_gradient_is_rotated_velocity():
    c = wobbly_curve(seed=29)
    assert np.array_equal(area_gradient(c), rot90(derivative(c, 1)))
