import copy
import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import ndimage
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from prescurve import _read, fields
from prescurve.curves import circle, read_curve
from prescurve.energy import EnergyContext, build_context
from prescurve.errors import NonZeroMean
from prescurve.fields import (
    _CubicSpline,
    _PeriodicSpline2D,
    PLANE_GRADIENT_CONSTANT,
    TORUS_GRADIENT_CONSTANT,
    CurvatureField,
    RadialCurvature,
    RadialDecaying,
    VectorPotential,
    build_potential,
    h_and_q,
    lorentz_norm_21,
    periodic_from_callable,
    field_from_dict,
    q_eval,
    read_field,
    solve_torus_poisson,
)

from conftest import (
    TwoFramePoint,
    complex_fft_potential,
    gradient_spectrum,
    padded_coefficients,
    radial_masked,
    sup_norm,
    tabulated,
    torus_gradient,
    write_field,
)


EPS = np.finfo(float).eps


def cell_grid(m=64):
    x = np.arange(m) / m
    return np.meshgrid(x, x, indexing="ij")


class TestTorusPoisson:
    def test_product_sine_exact(self):
        xx, yy = cell_grid(64)
        h = 8 * np.pi**2 * np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        g = torus_gradient(h)
        gx = 2 * np.pi * np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        gy = 2 * np.pi * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
        assert np.abs(g[:, :, 0] - gx).max() < 1e-12
        assert np.abs(g[:, :, 1] - gy).max() < 1e-12

    def test_zero_field(self):
        assert np.abs(torus_gradient(np.zeros((32, 32)))).max() == 0.0

    def test_single_mode(self):
        xx, _ = cell_grid(64)
        g = torus_gradient(np.cos(2 * np.pi * xx))
        assert np.abs(g[:, :, 0] + np.sin(2 * np.pi * xx) / (2 * np.pi)).max() < 1e-13
        assert np.abs(g[:, :, 1]).max() < 1e-13

    def test_nonzero_mean_rejected(self):
        with pytest.raises(NonZeroMean):
            solve_torus_poisson(np.full((32, 32), 0.3))

    def test_gradient_bound(self):
        xx, yy = cell_grid(128)
        grid = 0.8 * np.cos(2 * np.pi * (xx + 2 * yy)) + 0.5 * np.sin(4 * np.pi * yy)
        grid -= grid.mean()
        g = torus_gradient(grid)
        sup = np.hypot(g[:, :, 0], g[:, :, 1]).max()
        osc = grid.max() - grid.min()
        assert sup <= TORUS_GRADIENT_CONSTANT * osc + 1e-8

    @pytest.mark.parametrize("m", [8, 33, 64, 256])
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_coefficients_match_complex_fft_oracle(self, m, seed):
        # the potential's spline from the half-spectrum against the spline
        # through the grid of a full complex-FFT solve (a smooth grid, then
        # rough ones).  The oracle's extra round trip is its own error: at
        # M = 256 it differs from extended-precision coefficients by up to
        # 12 eps max|Q|, the half-spectrum path by up to 3.2 eps max|Q|.
        if seed is None:
            xx, yy = cell_grid(m)
            grid = 0.5 * np.sin(2 * np.pi * (xx + 0.01)) * np.sin(2 * np.pi * (yy - 0.02))
        else:
            grid = _rough_grid(m, seed)
        field = CurvatureField.from_parts(constant=0.3, periodic=grid)
        oracle = complex_fft_potential(field)
        got = build_potential(field)._spline._coeffs
        qmax = np.abs(oracle.periodic_gradient).max()
        assert got.shape == (2, m + 4, m + 4)
        assert np.abs(got - oracle._spline._coeffs).max() <= 16 * EPS * qmax

    def test_one_forward_transform(self, monkeypatch):
        # a potential build takes the rfft2 of the H grid, then, a channel
        # at a time, irfft2's two 1-d passes: the ifft over the rows of the
        # channel's spectrum and (one block at M = 64) the irfft over its
        # columns into the spline's table; no complex 2-d transform, no
        # grid of Q
        field = CurvatureField.from_parts(periodic=_rough_grid(64, 3))
        assert fields.TABLE_BLOCK // 64 >= 64
        calls = []
        names = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2")
        for name in names + ("fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        build_potential(field)
        assert calls == ["rfft2", "ifft", "ifft", "irfft", "irfft"]

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 33, 64, 256])
    def test_tables_match_padded_irfft2(self, m):
        # the field's and the potential's tables, built a channel at a time
        # and padded in place, equal the whole-grid construction byte for
        # byte: np.pad of one irfft2 of the field's spectrum, and of the
        # potential's two-channel spectrum -grad v^
        field = CurvatureField.from_parts(constant=0.3, periodic=_rough_grid(m, 8))
        want = padded_coefficients(np.fft.rfft2(field.periodic))
        got = field._spline._coeffs
        assert got.shape == want.shape == (m + 4, m + 4)
        assert got.tobytes() == want.tobytes()
        want = padded_coefficients(np.negative(gradient_spectrum(field.periodic)))
        got = build_potential(field)._spline._coeffs
        assert got.shape == want.shape == (2, m + 4, m + 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [8, 33, 64, 256])
    def test_node_value_table_matches_padded_irfft2(self, m, rng):
        # a spline through (M, M, 2) node values, a channel at a time
        grid = rng.normal(size=(m, m, 2))
        want = padded_coefficients(np.fft.rfft2(np.moveaxis(grid, (0, 1), (-2, -1))))
        got = VectorPotential(periodic_gradient=grid)._spline._coeffs
        assert got.shape == want.shape == (2, m + 4, m + 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [8, 33, 64])
    def test_spline_node_values(self, m, rng):
        # the B-spline read at its nodes gives back the grid it interpolates
        grid = rng.normal(size=(m, m, 2))
        pot = VectorPotential(periodic_gradient=grid)
        nodes = pot._spline.nodes()
        assert nodes.shape == (2, m, m)
        assert np.abs(np.moveaxis(nodes, 0, -1) - grid).max() <= 1e-14
        sup = np.hypot(grid[:, :, 0], grid[:, :, 1]).max()
        assert pot.sup_periodic() == pytest.approx(sup, rel=1e-14, abs=0.0)

    def test_sup_periodic_matches_oracle(self):
        field = CurvatureField.from_parts(periodic=_rough_grid(64, 4))
        oracle = complex_fft_potential(field)
        g = oracle.periodic_gradient
        assert build_potential(field).sup_periodic() == pytest.approx(
            np.hypot(g[:, :, 0], g[:, :, 1]).max(), rel=1e-14, abs=0.0
        )


def disc_indicator(r0: float):
    """The indicator of the disc of radius r0, with ``r_max`` = 2 r0: all
    that ``lorentz_norm_21`` reads of a radial part, and unlike a spline
    table exact at the jump."""

    def indicator(r):
        return np.where(np.asarray(r) <= r0, 1.0, 0.0)

    indicator.r_max = 2.0 * r0
    return indicator


class TestLorentzNorm:
    def test_disc_indicator_closed_form(self):
        for r0 in (0.5, 1.7):
            ind = disc_indicator(r0)
            # closed form: integral of t^(-1/2) over (0, pi r0^2)
            assert lorentz_norm_21(ind, nr=65536) == pytest.approx(
                2 * r0 * math.sqrt(math.pi), rel=1e-3
            )

    def test_zero(self):
        z = tabulated(np.zeros_like, r_max=1.0)
        assert lorentz_norm_21(z) == 0.0

    def test_gaussian_against_brute_rearrangement(self):
        gauss = tabulated(lambda r: np.exp(-(r**2)))
        # oracle: rearrange |H| sampled on a fine 2-d grid
        L = 6.0
        m = 2000
        x = np.linspace(-L, L, m, endpoint=False) + L / m
        xx, yy = np.meshgrid(x, x, indexing="ij")
        vals = np.exp(-(xx**2 + yy**2)).ravel()
        order = np.argsort(vals)[::-1]
        cell = (2 * L / m) ** 2
        t = np.arange(1, len(vals) + 1) * cell
        t0 = np.concatenate([[0.0], t[:-1]])
        oracle = float(np.sum(vals[order] * 2 * (np.sqrt(t) - np.sqrt(t0))))
        assert lorentz_norm_21(gauss) == pytest.approx(oracle, rel=1e-3)
        # and the analytic value for reference
        assert lorentz_norm_21(gauss) == pytest.approx(math.pi, rel=1e-6)


def radial_part(pot: VectorPotential, r: np.ndarray, angle: float = 0.7) -> np.ndarray:
    """Q . p/|p| of a potential with no periodic or linear part, at radii r
    along the ray at ``angle``."""
    direction = np.array([math.cos(angle), math.sin(angle)])
    return q_eval(pot, r[:, None] * direction) @ direction


def cubic_table(r0: float = 0.0, num: int = 13) -> RadialDecaying:
    """(1 - r/3)^3 tabulated on [r0, 3]: a not-a-knot spline reproduces a
    cubic, extrapolated first piece included, so its enclosed integral is
    F(r) = r^2/2 - r^3/3 + r^4/12 - r^5/135, and F(3) = 0.45 beyond."""
    r = np.linspace(r0, 3.0, num)
    return RadialDecaying(table=(r, (1.0 - r / 3.0) ** 3))


def gaussian_table(r0: float) -> tuple:
    """exp(-r^2) tabulated at 4097 radii of [r0, 16], and its potential."""
    r = np.linspace(r0, 16.0, 4097)
    gauss = RadialDecaying(table=(r, np.exp(-(r**2))))
    return r, gauss, build_potential(CurvatureField.from_parts(radial=gauss))


def cubic_enclosed(r: np.ndarray) -> np.ndarray:
    """F(r)/r of :func:`cubic_table`, as the sum of the closed form's
    terms divided by r."""
    rr = np.minimum(r, 3.0)
    return np.where(
        r <= 3.0, rr / 2 - rr**2 / 3 + rr**3 / 12 - rr**4 / 135, 0.45 / np.where(r > 0, r, 1.0)
    )


class TestPlanePoisson:
    def test_disc_indicator_closed_form(self):
        ind = tabulated(disc_indicator(1.0), r_max=4.0, num=16001)
        pot = build_potential(CurvatureField.from_parts(radial=ind))
        r = np.linspace(0.0, 6.0, 1201)
        f = radial_part(pot, r)
        inner = (r > 0.05) & (r < 0.95)
        assert np.abs(f[inner] - r[inner] / 2).max() < 1e-3
        outer = r > 1.05
        assert np.abs(f[outer] - 1.0 / (2 * r[outer])).max() < 1e-3

    def test_zero(self):
        z = tabulated(np.zeros_like, r_max=1.0)
        pot = build_potential(CurvatureField.from_parts(radial=z))
        assert np.abs(radial_part(pot, np.linspace(0.0, 3.0, 61))).max() == 0.0
        assert pot.sup_radial() == 0.0

    @pytest.mark.parametrize("r0", [0.0, 0.5])
    def test_cubic_table_exact(self, r0):
        pot = build_potential(CurvatureField.from_parts(radial=cubic_table(r0)))
        r = np.array([1e-300, 1e-160, 1e-8, 0.01, 0.3, 1.0, 2.5, 2.999, 3.0, 3.5, 10.0, 1e6])
        for angle in (0.0, 0.7, -2.0):
            got = radial_part(pot, r, angle)
            want = cubic_enclosed(r)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("r0", [0.0, 0.5])
    def test_gaussian_table_against_quad(self, r0):
        # quad of s h2(s) over the same spline, extrapolated below r0
        r, gauss, pot = gaussian_table(r0)
        for radius in (0.01, 0.3):
            val, _ = quad(
                lambda s: s * gauss(s), 0.0, radius, points=r[(r > 0) & (r < radius)],
                epsabs=0.0, epsrel=1e-13, limit=500,
            )
            got = radial_part(pot, np.array([radius]))[0]
            assert got == pytest.approx(val / radius, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r0", [0.0, 0.5])
    def test_gaussian_table_against_piecewise_gauss(self, r0):
        # s h2(s) is a quintic on each piece, and on [0, r0] for r0 > 0:
        # 4-point Gauss-Legendre is exact there, and fsum adds the pieces
        r, gauss, pot = gaussian_table(r0)
        nodes, weights = np.polynomial.legendre.leggauss(4)
        for radius in (0.3, 1.0, 2.5, 10.0, 40.0):
            end = min(radius, 16.0)
            edges = np.concatenate([[0.0], r[(r > 0) & (r < end)], [end]])
            half = np.diff(edges)[:, None] / 2
            s = edges[:-1, None] + half * (nodes + 1)
            total = math.fsum(((s * gauss(s) * weights) * half).ravel().tolist())
            got = radial_part(pot, np.array([radius]))[0]
            assert got == pytest.approx(total / radius, rel=1e-14, abs=0.0)

    def test_no_table_built(self, monkeypatch):
        # the field's own spline is the only tridiagonal solve
        gauss = tabulated(lambda r: np.exp(-(r**2)))
        field = CurvatureField.from_parts(constant=0.5, radial=gauss)
        calls = []
        thomas = fields._thomas
        monkeypatch.setattr(fields, "_thomas", lambda *a: calls.append(1) or thomas(*a))
        pot = build_potential(field)
        assert calls == []
        assert pot.radial is gauss

    def test_sup_radial_bounds_q(self, rng):
        gauss = tabulated(lambda r: 0.1 * np.exp(-(r**2)))
        pot = build_potential(CurvatureField.from_parts(radial=gauss))
        pts = rng.uniform(-40.0, 40.0, size=(2000, 2))
        ray = radial_part(pot, np.linspace(0.0, 40.0, 100001))
        assert np.abs(q_eval(pot, pts)).max() <= pot.sup_radial()
        assert pot.sup_radial() == pytest.approx(np.abs(ray).max(), rel=1e-6)

    def test_gaussian_divergence(self):
        gauss = tabulated(lambda r: np.exp(-(r**2)))
        field = CurvatureField.from_parts(radial=gauss)
        pot = build_potential(field)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(100, 2))
        h = 2e-5
        div = (
            q_eval(pot, pts + [h, 0])[:, 0] - q_eval(pot, pts - [h, 0])[:, 0]
            + q_eval(pot, pts + [0, h])[:, 1] - q_eval(pot, pts - [0, h])[:, 1]
        ) / (2 * h)
        assert np.abs(div - field.value(pts)).max() < 1e-6

    def test_decaying_gradient_bound(self):
        gauss = tabulated(lambda r: 0.1 * np.exp(-(r**2)))
        field = CurvatureField.from_parts(radial=gauss)
        pot = build_potential(field)
        assert pot.sup_radial() <= PLANE_GRADIENT_CONSTANT * lorentz_norm_21(gauss) + 1e-6

    def test_potential_vanishes_at_infinity(self):
        gauss = tabulated(lambda r: np.exp(-(r**2)))
        field = CurvatureField.from_parts(radial=gauss)
        pot = build_potential(field)
        # twice the table's last radius: the radial part is long 0 there
        r_end = 2.0 * gauss.r_max
        at_end = np.hypot(*q_eval(pot, np.array([[r_end, 0.0]]))[0])
        assert at_end <= 1e-3 * gauss.linf() * r_end
        # and the tail keeps shrinking beyond the table
        far = np.hypot(*q_eval(pot, np.array([[4 * r_end, 0.0]]))[0])
        assert far < at_end / 3


class TestRadialCurvature:
    def test_profile_values(self):
        h = RadialCurvature(A=1.0, gamma=2.0)
        assert h(np.array([2.0]))[0] == pytest.approx(1.25)
        assert h(np.array([10.0]))[0] == pytest.approx(1.01)

    def test_c2_mollification(self):
        h = RadialCurvature(A=1.0, gamma=2.0, s0=1.0)
        eps = 1e-5
        s0 = 1.0

        def at(s):
            return h(np.array([s]))[0]

        second_left = (at(s0) - 2 * at(s0 - eps) + at(s0 - 2 * eps)) / eps**2
        second_right = (at(s0 + 2 * eps) - 2 * at(s0 + eps) + at(s0)) / eps**2
        # analytic h'' just outside: gamma (gamma+1) A / s0^(gamma+2) = 6
        assert second_right == pytest.approx(6.0, rel=1e-3)
        assert second_left == pytest.approx(second_right, rel=1e-2)
        first_left = (at(s0) - at(s0 - eps)) / eps
        first_right = (at(s0 + eps) - at(s0)) / eps
        assert first_left == pytest.approx(first_right, rel=1e-3)
        assert at(s0 - 1e-12) == pytest.approx(at(s0 + 1e-12), abs=1e-9)

    @pytest.mark.parametrize(
        "s",
        [
            np.linspace(1.0, 10.0, 101),  # every point outside s0 (fast path)
            np.linspace(0.0, 3.0, 101),
            np.array([2.0, np.nan, 3.0]),
            np.array([0.5, np.nan, 3.0]),
            np.array([]),
            np.zeros((0, 3)),
            np.array([[1.5, 2.0], [4.0, 1.0]]),
        ],
    )
    def test_matches_masked_formula(self, s):
        # a call with no point inside s0 skips the inner branch; values,
        # shape and bits stay those of the point-by-point masked formula
        h = RadialCurvature(A=-0.7, gamma=1.5)
        got, want = np.asarray(h(s)), radial_masked(h, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_power_overflow_is_silent(self):
        # s^gamma overflows to inf for s > ~1.4 at gamma 2000; A / inf = 0
        h = RadialCurvature(A=1.0, gamma=2000.0)
        assert h(np.array([2.0, 5.0])).tolist() == [1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialCurvature(A=0.0, gamma=2.0)
        with pytest.raises(ValueError):
            RadialCurvature(A=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            RadialCurvature(A=1.0, gamma=2.0, s0=-1.0)


def radial_potential(h: RadialCurvature, r_max: float = 100.0, nr: int = 32768):
    """Potential of a radial curvature profile,
    Q(p) = ((1/|p|) int_0^|p| h(s) s ds) p/|p|.

    The asymptotically constant part contributes the linear term p/2; the
    decaying remainder h - 1 is a :class:`RadialDecaying` table.
    """
    r = np.linspace(0.0, r_max, nr)
    return VectorPotential(radial=RadialDecaying(table=(r, h(r) - 1.0)), linear_coefficient=1.0)


class TestRadialPotential:
    def test_constant_one_linear(self):
        # h == 1 has no decaying remainder: Q(p) = p / 2 exactly
        h = RadialCurvature(A=1e-12, gamma=2.0)
        pot = radial_potential(h, r_max=50.0)
        pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
        assert np.abs(q_eval(pot, pts) - pts / 2).max() < 1e-9

    def test_matches_quadrature_oracle(self):
        # oracle: adaptive quadrature of the defining integral
        h = RadialCurvature(A=1.0, gamma=2.0, s0=1.0)
        pot = radial_potential(h, r_max=60.0)
        for p in ([3.0, 4.0], [0.6, 0.0], [12.0, -5.0]):
            r = math.hypot(*p)
            val, _ = quad(lambda s: h(np.array([s]))[0] * s, 0.0, r, limit=400)
            oracle = np.asarray(p) * val / r**2
            got = q_eval(pot, np.array([p]))[0]
            assert np.abs(got - oracle).max() < 1e-8 * max(np.abs(oracle).max(), 1.0)

    def test_divergence_matches_curvature(self):
        h = RadialCurvature(A=1.0, gamma=2.0)
        pot = radial_potential(h, r_max=60.0)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-8, 8, size=(100, 2))
        step = 2e-5
        div = (
            q_eval(pot, pts + [step, 0])[:, 0] - q_eval(pot, pts - [step, 0])[:, 0]
            + q_eval(pot, pts + [0, step])[:, 1] - q_eval(pot, pts - [0, step])[:, 1]
        ) / (2 * step)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.abs(div - h(r)).max() < 1e-6


class TestQEval:
    def test_linear_part_only(self):
        pot = VectorPotential(linear_coefficient=0.7)
        pts = np.array([[2.0, -1.0], [0.0, 3.0]])
        assert np.abs(q_eval(pot, pts) - 0.35 * pts).max() == 0.0

    def test_periodic_grid_nodes_exact(self):
        xx, yy = cell_grid(32)
        gx = np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        gy = np.sin(4 * np.pi * yy)
        pot = VectorPotential(periodic_gradient=np.stack([gx, gy], axis=-1))
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        vals = q_eval(pot, pts)
        assert np.abs(vals[:, 0] - gx.ravel()).max() < 1e-10
        assert np.abs(vals[:, 1] - gy.ravel()).max() < 1e-10

    def test_periodicity(self, rng):
        xx, yy = cell_grid(64)
        grid = 0.3 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
        field = CurvatureField.from_parts(periodic=grid)
        pot = build_potential(field)
        pts = rng.uniform(0, 1, size=(50, 2))
        shifts = rng.integers(-3, 4, size=(50, 2)).astype(float)
        assert np.abs(q_eval(pot, pts) - q_eval(pot, pts + shifts)).max() < 1e-12

    def test_offgrid_against_spectral_oracle(self, rng):
        # oracle: direct Fourier synthesis of the Poisson gradient
        m = 256
        xx, yy = cell_grid(m)
        grid = 0.5 * np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy) + 0.2 * np.cos(
            4 * np.pi * xx
        )
        field = CurvatureField.from_parts(periodic=grid)
        pot = build_potential(field)
        pts = rng.uniform(-1, 2, size=(40, 2))

        hhat = np.fft.fft2(grid)
        k = np.fft.fftfreq(m, d=1.0 / m)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        k2 = kx**2 + ky**2
        with np.errstate(divide="ignore", invalid="ignore"):
            vhat = np.where(k2 > 0, hhat / (4 * np.pi**2 * k2), 0.0)
        # keep only the active low modes for the direct sum
        active = np.argwhere(np.abs(vhat) > 1e-8 * np.abs(vhat).max())
        oracle = np.zeros((len(pts), 2))
        for i, j in active:
            phase = np.exp(2j * np.pi * (kx[i, j] * pts[:, 0] + ky[i, j] * pts[:, 1]))
            coef = vhat[i, j] / m**2
            oracle[:, 0] += (-2j * np.pi * kx[i, j] * coef * phase).real
            oracle[:, 1] += (-2j * np.pi * ky[i, j] * coef * phase).real
        got = q_eval(pot, pts)
        assert np.abs(got - oracle).max() < 1e-6


class TestCurvatureFieldType:
    def test_mean_folded_into_constant(self):
        xx, _ = cell_grid(32)
        grid = 1.0 + 0.3 * np.sin(2 * np.pi * xx)
        field = CurvatureField.from_parts(constant=0.5, periodic=grid)
        assert field.constant == pytest.approx(1.5)
        assert abs(field.periodic.mean()) < 1e-13

    def test_nonzero_mean_rejected_directly(self):
        with pytest.raises(ValueError):
            CurvatureField(constant=0.0, periodic=np.full((16, 16), 1.0))

    def test_value_composite(self):
        xx, yy = cell_grid(64)
        grid = 0.3 * np.sin(2 * np.pi * xx)
        rad = tabulated(lambda r: np.exp(-(r**2)))
        field = CurvatureField.from_parts(constant=1.0, periodic=grid, radial=rad)
        val = field.value(np.array([[0.25, 0.0]]))[0]
        assert val == pytest.approx(1.0 + 0.3 + math.exp(-0.0625), abs=1e-6)

    def test_admissibility_report(self):
        xx, _ = cell_grid(32)
        ok_field = CurvatureField.from_parts(periodic=0.5 * np.sin(2 * np.pi * xx))
        rep = ok_field.admissibility()
        assert rep["periodic_ok"]
        loud = CurvatureField.from_parts(periodic=5.0 * np.sin(2 * np.pi * xx))
        assert not loud.admissibility()["periodic_ok"]
        # sup |H1| = 2 < 2 sqrt 2, but the oscillation 4 is not
        wide = CurvatureField.from_parts(periodic=2.0 * np.sin(2 * np.pi * xx))
        rep = wide.admissibility()
        assert rep["periodic_oscillation"] == pytest.approx(4.0)
        assert not rep["periodic_ok"]


def _rough_grid(m, seed):
    # random nodal data: every spline coefficient of the stencil matters
    grid = np.random.default_rng(seed).normal(size=(m, m))
    return grid - grid.mean()


_RADIAL_R = np.linspace(0.0, 3.0, 48)
POINT_FIELDS = {
    "periodic": CurvatureField.from_parts(periodic=_rough_grid(32, 0)),
    "constant+periodic": CurvatureField.from_parts(
        constant=-1.5, periodic=_rough_grid(16, 1)
    ),
    "radial": CurvatureField.from_parts(
        radial=RadialDecaying(table=(_RADIAL_R, np.exp(-(_RADIAL_R**2))))
    ),
    "periodic+radial": CurvatureField.from_parts(
        constant=0.25,
        periodic=_rough_grid(8, 2),
        radial=RadialDecaying(table=(_RADIAL_R, (1.0 - _RADIAL_R / 3.0) ** 3)),
    ),
}
# k/32 is a grid node of every field above when 32 | k*M
_COORD = st.one_of(
    st.integers(-32_000, 32_000).map(lambda k: k / 32),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


class TestPointEvaluation:
    @given(name=st.sampled_from(sorted(POINT_FIELDS)), x=_COORD, y=_COORD)
    @example(name="periodic", x=0.0, y=0.0)
    @example(name="periodic+radial", x=-0.125, y=0.375)
    @example(name="constant+periodic", x=-1000.0, y=999.96875)
    @example(name="periodic+radial", x=1e-300, y=-1e-300)
    @example(name="periodic", x=-1e-300, y=-1e-300)
    @example(name="constant+periodic", x=0.3, y=-1e-300)
    def test_at_matches_value(self, name, x, y):
        field = POINT_FIELDS[name]
        h = field.at(x, y)
        assert type(h) is float
        expected = field.value(np.array([[x, y]]))[0]
        assert abs(h - expected) <= 1e-14 * max(1.0, sup_norm(field))
        if field.radial is None:
            # same weights, coordinate wrap and summation order as
            # value: the same bits
            assert h == expected

    @pytest.mark.parametrize("name", ["periodic", "constant+periodic"])
    def test_at_bitwise_on_random_points(self, name, rng):
        field = POINT_FIELDS[name]
        # normal draws carry all 53 bits, so wrapping a negative grid
        # coordinate into the cell rounds it (uniform(-1, 1) draws do not)
        pts = np.concatenate(
            [rng.normal(scale=0.5, size=(1000, 2)), rng.normal(scale=300.0, size=(200, 2))]
        )
        got = np.array([field.at(x, y) for x, y in pts.tolist()])
        np.testing.assert_array_equal(got, field.value(pts))

    def test_non_finite_points_read_nan(self):
        field = POINT_FIELDS["periodic"]
        pts = np.array([[np.nan, 0.1], [0.2, np.inf], [-np.inf, np.nan], [0.3, 0.4]])
        got = field.value(pts)
        assert np.isnan(got[:3]).all()
        assert got[3] == field.at(0.3, 0.4)
        q = q_eval(build_potential(field), pts)
        assert np.isnan(q[:3]).all() and np.isfinite(q[3]).all()

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_at_reads_nan_where_value_does(self, name):
        field = POINT_FIELDS[name]
        rows = [(np.nan, 0.1), (0.2, np.nan), (np.inf, 0.0), (-np.inf, np.nan), (0.3, -np.inf)]
        assert np.isnan(field.value(np.array(rows))).all()
        for x, y in rows:
            assert math.isnan(field.at(x, y))


def _crossing_path(n=4000):
    """Points along a curve that crosses many cells of each grid in small
    steps, as the stages of an orbit do, wrap-edge points included."""
    t = np.linspace(0.0, 1.0, n)
    path = np.stack([3.1 * t - 0.8 + 0.2 * np.sin(9 * t), 2.3 * np.cos(5 * t)], axis=1)
    return np.concatenate([path, _WRAP_EDGE_POINTS, path[::-1]])


class TestPointEvaluator:
    """A field's one-frame point evaluator against ``value`` and against
    the two-frame read it replaces, bit for bit."""

    @pytest.mark.parametrize("name", ["periodic", "constant+periodic"])
    def test_path_matches_value(self, name):
        field = POINT_FIELDS[name]
        pts = _crossing_path()
        got = [field.at(x, y) for x, y in pts.tolist()]
        np.testing.assert_array_equal(got, field.value(pts))

    @pytest.mark.parametrize("name", ["periodic", "constant+periodic"])
    def test_alternating_cells(self, name):
        # reads alternate between distant cells: a cell read again after
        # another one must not get the other's coefficients
        field = POINT_FIELDS[name]
        far = [(0.1, 0.1), (0.73, 0.52), (0.1 + 1e-3, 0.1), (-5.27, 2.52), (0.1, 0.1)]
        pts = np.array(far * 50)
        got = [field.at(x, y) for x, y in pts.tolist()]
        np.testing.assert_array_equal(got, field.value(pts))
        assert got[0] != got[1] != got[2]

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_mapped_matches_closure(self, name):
        # the magnetic orbit's field for charge 3, mass 0.7 and speed 1.3:
        # b = scale (H - lam), scale = -m v / e
        field = POINT_FIELDS[name]
        scale, lam = -0.7 * 1.3 / 3.0, 1.8125
        b = field.mapped_at(scale, lam)
        pts = _crossing_path(1000)
        got = [b(x, y) for x, y in pts.tolist()]
        assert got == [scale * (field.at(x, y) - lam) for x, y in pts.tolist()]
        if field.periodic is not None and field.radial is None:
            oracle = TwoFramePoint(field._spline, field.constant, scale, lam)
            assert got == [oracle.at(x, y) for x, y in pts.tolist()]
        assert math.isnan(b(math.nan, 0.1))


# (x*M) % M rounds to M itself at these points, the far end of the padding
_WRAP_EDGE_POINTS = [(-1e-300, -1e-300), (0.3, -1e-300), (-1e-300, 0.3)]
# finite points at which x*M overflows for every grid size M >= 2
_OVERFLOW_POINTS = [(1.5e308, 0.1), (0.2, -1.5e308), (-1e308, 1e308)]


_CONTEXTS = {name: build_context(field) for name, field in POINT_FIELDS.items()}


class TestSharedStencil:
    """``h_and_q`` reads H and Q through one set of stencils, bit for bit
    as the separate lookups do."""

    @pytest.mark.parametrize("n", [1, 256, 4096])
    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_matches_separate_lookups(self, name, n, rng):
        ctx = _CONTEXTS[name]
        pts = rng.normal(scale=0.5, size=(n, 2))
        pts[::5] *= 600.0  # far points wrap many cells
        h, q = h_and_q(ctx.field, ctx.potential, pts)
        np.testing.assert_array_equal(h, ctx.field.value(pts))
        np.testing.assert_array_equal(q, q_eval(ctx.potential, pts))

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_wrap_edge_and_non_finite_points(self, name):
        ctx = _CONTEXTS[name]
        non_finite = [(np.nan, 0.1), (0.2, np.nan), (np.inf, 0.0), (-np.inf, np.nan)]
        pts = np.array(_WRAP_EDGE_POINTS + non_finite + [(0.3, 0.4)])
        h, q = h_and_q(ctx.field, ctx.potential, pts)
        np.testing.assert_array_equal(h, ctx.field.value(pts))
        np.testing.assert_array_equal(q, q_eval(ctx.potential, pts))
        assert np.isnan(h[3:7]).all() and np.isnan(q[3:7]).all()
        finite = [0, 1, 2, 7]
        assert np.isfinite(h[finite]).all() and np.isfinite(q[finite]).all()
        # a non-finite row leaves the others as a finite-only lookup reads them
        h_ok, q_ok = h_and_q(ctx.field, ctx.potential, pts[finite])
        np.testing.assert_array_equal(h[finite], h_ok)
        np.testing.assert_array_equal(q[finite], q_ok)

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_overflowing_grid_coordinates(self, name):
        # finite points whose grid coordinate x*M overflows: rows on a grid
        # read NaN, as non-finite ones do, with no warning (warnings fail
        # the tests); a field without a grid still reads them
        ctx = _CONTEXTS[name]
        field = ctx.field
        pts = np.array(_OVERFLOW_POINTS + [(0.3, 0.4)])
        h, q = h_and_q(ctx.field, ctx.potential, pts)
        np.testing.assert_array_equal(h, field.value(pts))
        np.testing.assert_array_equal(q, q_eval(ctx.potential, pts))
        at = np.array([field.at(x, y) for x, y in pts.tolist()])
        on_grid = field.periodic is not None
        for got in (h, q[:, 0], q[:, 1], at):
            assert np.isnan(got[:3]).all() == on_grid
            assert np.isfinite(got[:3]).all() != on_grid
        h_ok, q_ok = h_and_q(ctx.field, ctx.potential, pts[3:])
        np.testing.assert_array_equal(h[3:], h_ok)
        np.testing.assert_array_equal(q[3:], q_ok)
        if field.radial is None:
            assert at[3] == h[3]

    def test_overflowing_radius(self):
        # finite points whose |p| overflows are beyond the radial tables: H
        # reads the constant and Q its linear part, as at() reads H, with no
        # warning (warnings fail the tests)
        field = CurvatureField.from_parts(constant=0.75, radial=POINT_FIELDS["radial"].radial)
        pot = build_potential(field)
        pts = np.array([(1.7e308, 1.7e308), (-1.7e308, 1e308), (0.3, 0.4)])
        h, q = h_and_q(field, pot, pts)
        np.testing.assert_array_equal(h[:2], [0.75, 0.75])
        np.testing.assert_array_equal(q[:2], 0.375 * pts[:2])
        np.testing.assert_array_equal(field.value(pts), h)
        np.testing.assert_array_equal(q_eval(pot, pts), q)
        assert [field.at(x, y) for x, y in pts.tolist()] == h.tolist()

    def test_grids_of_different_sizes(self, rng):
        # a potential on another grid size takes stencils of its own
        ctx = EnergyContext(
            field=POINT_FIELDS["periodic"],
            potential=_CONTEXTS["constant+periodic"].potential,
        )
        pts = rng.normal(size=(300, 2))
        h, q = h_and_q(ctx.field, ctx.potential, pts)
        np.testing.assert_array_equal(h, ctx.field.value(pts))
        np.testing.assert_array_equal(q, q_eval(ctx.potential, pts))


class TestScipyOracles:
    """The numpy spline, prefilter and quadrature against the scipy routines
    they replace; scipy is a test-only dependency."""

    @pytest.mark.parametrize("m", [8, 33, 256])
    def test_value_matches_map_coordinates_bitwise(self, m, rng):
        field = CurvatureField(periodic=_rough_grid(m, 3))  # constant exactly 0
        coeffs = field._spline._coeffs[1 : m + 1, 1 : m + 1]
        pts = np.concatenate(
            [
                rng.normal(scale=0.5, size=(1000, 2)),
                rng.normal(scale=300.0, size=(200, 2)),
                _WRAP_EDGE_POINTS,
            ]
        )
        expected = ndimage.map_coordinates(
            coeffs, pts.T * m, order=3, mode="grid-wrap", prefilter=False
        )
        np.testing.assert_array_equal(field.value(pts), expected)
        np.testing.assert_array_equal([field.at(x, y) for x, y in pts.tolist()], expected)

    @pytest.mark.parametrize("m", [8, 33, 256])
    def test_q_eval_channels_match_map_coordinates_bitwise(self, m, rng):
        # no constant and no radial part: Q is the spline of the gradient
        pot = build_potential(CurvatureField(periodic=_rough_grid(m, 6)))
        pts = np.concatenate(
            [
                rng.normal(scale=0.5, size=(1000, 2)),
                rng.normal(scale=300.0, size=(200, 2)),
                _WRAP_EDGE_POINTS,
            ]
        )
        q = q_eval(pot, pts)
        for c in range(2):
            coeffs = pot._spline._coeffs[c, 1 : m + 1, 1 : m + 1]
            expected = ndimage.map_coordinates(
                coeffs, pts.T * m, order=3, mode="grid-wrap", prefilter=False
            )
            np.testing.assert_array_equal(q[:, c], expected)

    @pytest.mark.parametrize("m", [8, 33, 256])
    def test_prefilter_matches_spline_filter(self, m):
        grid = _rough_grid(m, 4)
        coeffs = _PeriodicSpline2D(grid)._coeffs
        expected = ndimage.spline_filter(grid, order=3, mode="grid-wrap")
        err = np.abs(coeffs[1 : m + 1, 1 : m + 1] - expected).max()
        assert err <= 1e-14 * np.abs(expected).max()
        # wrap padding: one node before and three after on each axis
        np.testing.assert_array_equal(coeffs[0, 1 : m + 1], coeffs[m, 1 : m + 1])
        np.testing.assert_array_equal(coeffs[m + 1 : m + 4], coeffs[1:4])
        np.testing.assert_array_equal(coeffs[:, m + 1 : m + 4], coeffs[:, 1:4])

    def test_channels_match_single_channel_splines(self, rng):
        grid = rng.normal(size=(32, 32, 2))
        both = _PeriodicSpline2D(grid)
        pts = np.concatenate([rng.normal(size=(300, 2)), _WRAP_EDGE_POINTS])
        got = both.combine(both.stencil(pts))
        assert got.shape == (303, 2)
        for c in range(2):
            one = _PeriodicSpline2D(np.ascontiguousarray(grid[:, :, c]))
            np.testing.assert_array_equal(got[:, c], one.combine(one.stencil(pts)))

    @pytest.mark.parametrize("m", [8, 33, 256])
    def test_shifted_reads_match_combine(self, m, rng):
        # one lattice stencil read at whole-cell shifts, negative and beyond
        # M included, against fresh stencils at the moved points.  The points
        # are multiples of 2^-10, so that a moved point p + s/M is exact when
        # M is a power of two; at M = 33 the shifts are whole periods.
        spline = _PeriodicSpline2D(_rough_grid(m, 7))
        pts = np.concatenate(
            [rng.integers(-2048, 2048, size=(200, 2)) / 1024, _WRAP_EDGE_POINTS]
        )
        step = m if m & (m - 1) else 1
        shifts = step * rng.integers(-3 * m // step, 3 * m // step + 1, size=(9, 2))
        shifts[0] = 0
        got = spline.combine_shifted(spline.lattice_stencil(pts), shifts)
        assert got.shape == (9, len(pts))
        scale = np.abs(spline._coeffs).max()
        for row, shift in zip(got, shifts):
            want = spline.combine(spline.stencil(pts + shift / m))
            assert np.abs(row - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("scale", [1e40, 1e300])
    def test_lattice_stencil_of_huge_points(self, scale, rng):
        # a point whose x*M passes 2^63 has its node wrapped into [0, M)
        # before the integer cast, which would overflow (a RuntimeWarning,
        # an error under the suite's filterwarnings); such a point is a
        # whole number of cells, so the read is that of combine
        m = 8
        spline = _PeriodicSpline2D(_rough_grid(m, 7))
        pts = scale * rng.normal(size=(50, 2))
        stencil = spline.lattice_stencil(pts)
        np.testing.assert_array_equal(stencil[0], np.floor(pts.T * m) % m)
        got = spline.combine_shifted(stencil, np.zeros((1, 2), dtype=np.intp))
        want = spline.combine(spline.stencil(pts))
        assert np.abs(got[0] - want).max() <= 1e-14 * np.abs(spline._coeffs).max()

    @pytest.mark.parametrize("nodes", ["uniform", "nonuniform"])
    def test_spline_matches_cubic_spline(self, nodes, rng):
        if nodes == "uniform":
            x = np.linspace(0.0, 3.0, 48)
        else:
            x = np.cumsum(rng.uniform(0.01, 0.2, size=40))
        y = np.exp(-(x**2)) + 0.01 * rng.normal(size=x.size)
        # beyond both ends the end pieces extrapolate
        xs = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 2001), x])
        expected = CubicSpline(x, y)(xs)
        err = np.abs(_CubicSpline(x, y)(xs) - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
    def test_spline_rejects_unordered_nodes(self, x):
        with pytest.raises(ValueError, match="increasing"):
            RadialDecaying(table=(x, [1.0, 0.5, 0.2, 0.0]))


class TestFieldIO:
    def test_roundtrip(self, tmp_path, rng):
        xx, yy = cell_grid(16)
        grid = 0.2 * np.sin(2 * np.pi * (xx + yy))
        rad = tabulated(lambda r: 0.1 * np.exp(-(r**2)))
        field = CurvatureField.from_parts(constant=0.4, periodic=grid, radial=rad)
        path = tmp_path / "field.json"
        write_field(field, path, radial_params={"A": 1.0, "gamma": 2.0})
        back = read_field(path)
        assert back.constant == pytest.approx(field.constant)
        pts = rng.uniform(-1, 1, size=(20, 2))
        assert np.abs(back.value(pts) - field.value(pts)).max() < 1e-4
        _, h = field_from_dict(json.loads(path.read_text()))
        assert h.gamma == 2.0

    def test_missing_radial_params(self, tmp_path):
        path = tmp_path / "field.json"
        write_field(CurvatureField.from_parts(constant=1.0), path)
        field, h = field_from_dict(json.loads(path.read_text()))
        assert field.constant == 1.0 and h is None

    def test_read_memory(self, tmp_path):
        # the grid is decoded a slice at a time into one array, so the read,
        # spline included, peaks below 6 times the grid's bytes
        m = 256
        x = np.arange(m) / m
        grid = 0.5 * np.outer(np.sin(2 * np.pi * (x + 0.01)), np.sin(2 * np.pi * (x - 0.02)))
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"constant": 0.0, "periodic_grid": grid.tolist()}) + "\n")
        tracemalloc.start()
        try:
            read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * grid.nbytes

    @staticmethod
    def _traced_peaks(tmp_path) -> tuple:
        """The traced peaks of ``read_field`` and of ``build_context`` on a
        256^2 field file, each over the grid's bytes; the second counts the
        field the read made, as a solve holds it."""
        m = 256
        x = np.arange(m) / m
        grid = 0.5 * np.outer(np.sin(2 * np.pi * (x + 0.01)), np.sin(2 * np.pi * (x - 0.02)))
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"constant": 0.0, "periodic_grid": grid.tolist()}) + "\n")
        tracemalloc.start()
        try:
            field = read_field(path)
            read = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            build_context(field)
            context = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return read / grid.nbytes, context / grid.nbytes

    def test_read_peak(self, tmp_path):
        # the spline's spectrum goes before its padded table is made, and
        # the table is padded in place: about 4.35 times the grid's bytes
        # in a fresh process, where the whole-grid irfft2 and np.pad took
        # 5.30
        read, _ = self._traced_peaks(tmp_path)
        assert read <= 4.5

    def test_context_peak(self, tmp_path):
        # the potential's spline a channel at a time, with no two-channel
        # spectrum and no two-channel irfft2: about 6.43 times the grid's
        # bytes, field included, where the whole-grid build took 8.39
        _, context = self._traced_peaks(tmp_path)
        assert context <= 6.6


# An int that the drawn ints never reach, written as the text -0.
_MINUS_ZERO = 10**19 + 7
_ENTRIES = st.one_of(
    st.integers(-(10**18), 10**18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [_MINUS_ZERO, -0.0, 5e-324, 1.7976931348623157e308, 0.30000000000000004, 1 / 3]
    ),
)
_FORMATS = {
    "default": {},
    "compact": {"separators": (",", ":")},
    "indent": {"indent": 2},
}


@st.composite
def _numeric_arrays(draw):
    """A nested list of numbers of shape (N,), (N, 2) or (M, M)."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(n,), (n, 2), (n % 12 + 1,) * 2]))
    flat = draw(st.lists(_ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=object).reshape(shape).tolist()


def _numeric_text(values, fmt: str) -> str:
    """A document with ``values`` at the top and in a nested object."""
    doc = {"scale": 2, "values": values, "radial": {"r": values, "s0": -1.5}}
    return json.dumps(doc, **_FORMATS[fmt]).replace(str(_MINUS_ZERO), "-0")


class TestNumericReader:
    """``_read.read_numeric`` returns what ``json.load`` returns, with
    each rectangular array of numbers as the float64 array
    ``np.asarray(..., dtype=float)`` of its list, bit for bit, at any slice
    size; anything else it leaves to ``json.load``."""

    @given(
        values=_numeric_arrays(),
        fmt=st.sampled_from(sorted(_FORMATS)),
        block=st.integers(1, 400),
    )
    # one row; 8 rows of 18 bytes, exactly 8 and 4 slices of text; a 1-d
    # array longer than a slice
    @example(values=[[0.5, -0.0, 5e-324]], fmt="compact", block=1)
    @example(values=[[0.5] * 4] * 8, fmt="compact", block=18)
    @example(values=[[0.5] * 4] * 8, fmt="compact", block=36)
    @example(values=[float(i) for i in range(200)], fmt="default", block=64)
    def test_arrays_match_json(self, tmp_path_factory, values, fmt, block):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        text = _numeric_text(values, fmt)
        path.write_text(text, encoding="utf-8")
        expected = json.loads(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_read, "BLOCK", block)
            doc = _read.read_numeric(path)
        assert doc.keys() == expected.keys()
        assert doc["radial"].keys() == expected["radial"].keys()
        pairs = [(doc["values"], expected["values"]), (doc["radial"]["r"], expected["radial"]["r"])]
        for got, want in pairs:
            want = np.asarray(want, dtype=float)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert (doc["scale"], doc["radial"]["s0"]) == (2, -1.5)
        assert type(doc["scale"]) is int

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": [[0.5, true], [1.0, 2.0]]}',
            '{"a": [0.5, "0.5"]}',
            '{"a": [0.5, null]}',
            '{"a": [[[0.5]], [[1.0]]]}',
            '{"a": [[0.5, 1.0], [2.0]]}',
            '{"a": [[0.5, 1.0], 2.0]}',
            '{"a": [1, 2], "a": [3]}',
            '{"a\\u0062": [1, 2]}',
            '{"a": {"b": {"c": [1, 2]}}}',
            '{"a": [1, 2], "b": "text"}',
            '{"a": []}',
            '{"a": [[]]}',
            '{}',
            '[[1, 2], [3, 4]]',
            '{"a": [1, 1' + "0" * 400 + ']}',
            '{"a": [NaN, 1.0]}',
        ],
    )
    def test_others_read_as_json(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        expected = json.loads(text)
        doc = _read.read_numeric(path)
        if isinstance(doc, dict) and isinstance(doc.get("a"), np.ndarray):
            # NaN is a number to json: an array, which _numbers rejects
            np.testing.assert_array_equal(doc["a"], np.asarray(expected["a"], dtype=float))
        else:
            assert doc == expected

    @pytest.mark.parametrize(
        "text",
        ['{"a": [1, 2]', '{"a": [1, 2],}', '{"a": [1 2]}', '{"a": [1, 2]} x', "\ufeff{}", ""],
    )
    def test_invalid_json_has_json_message(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as want:
            _read.read_json(path)
        with pytest.raises(ValueError) as got:
            _read.read_numeric(path)
        assert str(got.value) == str(want.value)


# A valid field document with every key, and the keys of each of its objects.
_FIELD_DOC = {
    "constant": 0.25,
    "periodic_grid": [[0.1, -0.1, 0.0], [0.0, 0.2, -0.2], [0.3, 0.0, -0.3]],
    "radial": {"r": [0.0, 1.0, 2.0, 3.0, 4.0], "h": [0.5, 0.3, 0.1, 0.02, 0.0]},
    "radial_params": {"A": 1.0, "gamma": 2.0, "s0": 1.0},
}
_FIELD_OBJECTS = {
    (): _FIELD_DOC,
    ("radial",): _FIELD_DOC["radial"],
    ("radial_params",): _FIELD_DOC["radial_params"],
}
_SCALAR_KEYS = [("constant",), *(("radial_params", k) for k in ("A", "gamma", "s0"))]


def _mutated(path: tuple, value) -> dict:
    """A copy of the valid document with ``value`` stored at ``path``."""
    doc = copy.deepcopy(_FIELD_DOC)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


@st.composite
def _bad_field_docs(draw, kind: str):
    """A valid field document with one mutation of ``kind``, and the key
    that the mutation breaks."""
    if kind == "unknown key":
        where = draw(st.sampled_from(sorted(_FIELD_OBJECTS)))
        key = draw(st.text(max_size=12).filter(lambda k: k not in _FIELD_OBJECTS[where]))
        return _mutated(where + (key,), 1.0), key
    if kind == "bad scalar":
        path = draw(st.sampled_from(_SCALAR_KEYS))
        value = draw(
            st.one_of(
                st.booleans(),
                st.text(max_size=8),
                st.sampled_from([math.nan, math.inf, -math.inf]),
                st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
            )
        )
        return _mutated(path, value), path[-1]
    if kind == "not an object":
        key = draw(st.sampled_from(["radial", "radial_params"]))
        value = draw(
            st.one_of(
                st.booleans(),
                st.floats(),
                st.text(max_size=8),
                st.lists(st.floats(allow_nan=False), max_size=4),
            )
        )
        return _mutated((key,), value), key
    # "array entry": one entry of an array, true, a numeric string or an
    # int beyond the floats
    key = draw(st.sampled_from(["periodic_grid", "radial.r", "radial.h"]))
    path = tuple(key.split(".")) + (draw(st.integers(0, 2)),)
    if key == "periodic_grid":
        path += (draw(st.integers(0, 2)),)
    entry = functools.reduce(operator.getitem, path, _FIELD_DOC)
    value = draw(
        st.sampled_from([True, repr(entry)])
        | st.integers(min_value=2**1024)
        | st.integers(max_value=-(2**1024))
    )
    return _mutated(path, value), key


def _rejected_naming(doc: dict, key: str, parse=field_from_dict) -> None:
    """Assert that ``parse(doc)`` raises a ``ValueError`` naming ``key``;
    any other exception propagates."""
    try:
        parse(doc)
        message = None
    except ValueError as exc:
        message = str(exc)
    # one assertion, so that a failing example fails in one place
    assert message is not None and repr(key) in message, message or "accepted"


class TestFieldDocument:
    def test_valid_document(self):
        # the start of every mutation parses, so each error is the mutation's
        field, h = field_from_dict(copy.deepcopy(_FIELD_DOC))
        assert field.periodic.shape == (3, 3) and field.radial.r_max == 4.0
        assert h == RadialCurvature(A=1.0, gamma=2.0, s0=1.0)

    @given(
        st.sampled_from(["unknown key", "bad scalar", "not an object"]).flatmap(
            _bad_field_docs
        )
    )
    def test_one_mutation_names_its_key(self, case):
        _rejected_naming(*case)

    @given(_bad_field_docs("array entry"))
    def test_array_entry_names_its_key(self, case):
        _rejected_naming(*case)


# a valid curve document: 16 samples of a circle, the fewest a curve takes
_CURVE_DOC = {"period": 1.0, "samples": circle(1.0, n=16).samples.tolist()}


@st.composite
def _bad_curve_docs(draw):
    """A valid curve document with one mutation, and the key it breaks."""
    doc = copy.deepcopy(_CURVE_DOC)
    samples = doc["samples"]
    kind = draw(st.sampled_from(["unknown key", "period", "samples", "entry"]))
    if kind == "unknown key":
        key = draw(st.text(max_size=12).filter(lambda k: k not in _CURVE_DOC))
        doc[key] = 2
        return doc, key
    if kind == "entry":
        # one entry: true, a numeric string or an int beyond the floats
        row = samples[draw(st.integers(0, len(samples) - 1))]
        col = draw(st.integers(0, 1))
        row[col] = draw(
            st.sampled_from([True, repr(row[col])])
            | st.integers(min_value=2**1024)
            | st.integers(max_value=-(2**1024))
        )
        return doc, "samples"
    if kind == "period":
        doc["period"] = draw(
            st.one_of(
                st.booleans(),
                st.text(max_size=8),
                st.sampled_from([math.nan, math.inf, -math.inf]),
                st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
                st.floats(max_value=0.0, allow_nan=False) | st.integers(max_value=0),
            )
        )
        return doc, "period"
    row = draw(st.integers(0, len(samples) - 1))
    doc["samples"] = draw(
        st.sampled_from(
            [
                # ragged
                samples[:row] + [samples[row][:1]] + samples[row + 1 :],
                samples[:row] + [samples[row] + [0.0]] + samples[row + 1 :],
                samples[:row] + [0.5] + samples[row + 1 :],
                # an odd count, fewer than 16 rows, or 3 columns
                samples[:-1],
                samples + [samples[row]],
                samples[: 2 * (row // 2)],
                [r + [0.0] for r in samples],
            ]
        )
        | st.one_of(
            # not an array
            st.none(),
            st.booleans(),
            st.floats(),
            st.text(max_size=8),
            st.dictionaries(st.text(max_size=4), st.floats(allow_nan=False), max_size=3),
        )
    )
    return doc, "samples"


def _read_curve_doc(directory, doc):
    """``read_curve`` of ``doc``, written to a file in ``directory``."""
    path = directory / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return read_curve(path)


class TestCurveDocument:
    """``read_curve`` of a curve file with one key at fault names the key,
    as ``field_from_dict`` does for a field document."""

    def test_valid_document(self, tmp_path):
        curve = _read_curve_doc(tmp_path, copy.deepcopy(_CURVE_DOC))
        assert curve.period == 1.0 and curve.n == 16

    @given(_bad_curve_docs())
    def test_one_mutation_names_its_key(self, tmp_path_factory, case):
        read = functools.partial(_read_curve_doc, tmp_path_factory.mktemp("curve"))
        _rejected_naming(*case, parse=read)


def test_periodic_from_callable_shape():
    grid = periodic_from_callable(lambda x, y: np.sin(2 * np.pi * x) + 0 * y, m=32)
    assert grid.shape == (32, 32)
    assert grid[8, 0] == pytest.approx(1.0)
