import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import ndimage
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import CubicSpline

from prescurve.energy import EnergyContext, build_context
from prescurve.errors import NonZeroMean
from prescurve.fields import (
    _CubicSpline,
    _cumulative_simpson,
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
    q_eval,
    read_field,
    read_radial_curvature,
    solve_plane_poisson_decaying,
    solve_torus_poisson,
)

from conftest import (
    TwoFramePoint,
    complex_fft_potential,
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
        # a potential build takes the rfft2 of the H grid and one irfft2 to
        # both channels' coefficients; no complex 2-d transform, no grid of Q
        field = CurvatureField.from_parts(periodic=_rough_grid(64, 3))
        calls = []
        for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        build_potential(field)
        assert calls == ["rfft2", "irfft2"]

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
    that ``lorentz_norm_21`` and ``solve_plane_poisson_decaying`` read of a
    radial part, and unlike a spline table exact at the jump."""

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


class TestPlanePoisson:
    def test_disc_indicator_closed_form(self):
        ind = disc_indicator(1.0)
        r, vp = solve_plane_poisson_decaying(ind, nr=16001, r_max=4.0)
        inner = r[(r > 0.05) & (r < 0.95)]
        vin = vp[(r > 0.05) & (r < 0.95)]
        assert np.abs(vin + inner / 2).max() < 1e-3
        outer = r[r > 1.05]
        vout = vp[r > 1.05]
        assert np.abs(vout + 1.0 / (2 * outer)).max() < 1e-3

    def test_zero(self):
        z = tabulated(np.zeros_like, r_max=1.0)
        _, vp = solve_plane_poisson_decaying(z)
        assert np.abs(vp).max() == 0.0

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
        r_end = float(pot.radial_r[-1])
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

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialCurvature(A=0.0, gamma=2.0)
        with pytest.raises(ValueError):
            RadialCurvature(A=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            RadialCurvature(A=1.0, gamma=2.0, s0=-1.0)


def radial_potential(h: RadialCurvature, r_max: float = 100.0, nr: int = 32768):
    """Potential of a radial curvature profile via the defining quadrature
    Q(p) = ((1/|p|) int_0^|p| h(s) s ds) p/|p|.

    The asymptotically constant part contributes the linear term p/2; the
    decaying remainder is tabulated.
    """
    r = np.linspace(0.0, r_max, nr)
    cum = cumulative_simpson(r * (h(r) - 1.0), x=r, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.where(r > 0, cum / np.where(r > 0, r, 1.0), 0.0)
    return VectorPotential(radial_r=r, radial_f=decay, linear_coefficient=1.0)


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

    def test_pickle_after_at(self):
        field = POINT_FIELDS["periodic+radial"]
        pts = np.array([[0.3, -0.7], [12.5, 3.25], [-0.01, 0.02]])
        before = [field.at(x, y) for x, y in pts]
        copy = pickle.loads(pickle.dumps(field))
        assert [copy.at(x, y) for x, y in pts] == before
        np.testing.assert_array_equal(copy.value(pts), field.value(pts))


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

    @pytest.mark.parametrize("name", ["periodic", "constant+periodic"])
    def test_pickle_round_trip(self, name):
        field = POINT_FIELDS[name]
        pts = _crossing_path(500)
        before = [field.at(x, y) for x, y in pts.tolist()]
        copy = pickle.loads(pickle.dumps(field))
        assert [copy.at(x, y) for x, y in pts.tolist()] == before
        at = pickle.loads(pickle.dumps(field.mapped_at(-0.5, 0.25)))
        assert [at(x, y) for x, y in pts.tolist()] == [-0.5 * (h - 0.25) for h in before]

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

    def test_channels_survive_pickle(self, rng):
        pot = build_potential(CurvatureField.from_parts(periodic=_rough_grid(16, 5)))
        copy = pickle.loads(pickle.dumps(pot))
        pts = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(q_eval(copy, pts), q_eval(pot, pts))

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

    @pytest.mark.parametrize("n", [3, 4, 101, 8192])
    def test_simpson_matches_cumulative_simpson(self, n):
        r = np.linspace(0.0, 7.0, n)
        y = r * np.exp(-(r**2)) + 0.3 * np.cos(3.0 * r)
        expected = cumulative_simpson(y, x=r, initial=0.0)
        err = np.abs(_cumulative_simpson(y, r[1] - r[0]) - expected).max()
        assert err <= 1e-13 * np.abs(expected).max()


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
        h = read_radial_curvature(path)
        assert h.gamma == 2.0

    def test_missing_radial_params(self, tmp_path):
        path = tmp_path / "field.json"
        write_field(CurvatureField.from_parts(constant=1.0), path)
        with pytest.raises(ValueError):
            read_radial_curvature(path)


def test_periodic_from_callable_shape():
    grid = periodic_from_callable(lambda x, y: np.sin(2 * np.pi * x) + 0 * y, m=32)
    assert grid.shape == (32, 32)
    assert grid[8, 0] == pytest.approx(1.0)
