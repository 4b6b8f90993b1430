import math

import numpy as np
import pytest

from prescurve.curves import ClosedCurve, circle, derivative, is_simple, length, signed_area
from prescurve.energy import build_context
from prescurve.errors import FieldTooLarge, SignIncompatible
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve.minimize import (
    SHARP_ISOPERIMETRIC,
    MinimizeOptions,
    MinimizeResult,
    _project_area,
    check_multiplier_bounds,
    extract_lagrange_multiplier,
    minimize_area_constrained,
    sweep_isoperimetric,
)

S = SHARP_ISOPERIMETRIC


@pytest.fixture(scope="module")
def ctx_zero():
    return build_context(CurvatureField.from_parts(constant=0.0))


@pytest.fixture(scope="module")
def ctx_one():
    return build_context(CurvatureField.from_parts(constant=1.0))


@pytest.fixture(scope="module")
def ctx_periodic():
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    return build_context(CurvatureField.from_parts(periodic=grid))


def radius_stats(result: MinimizeResult):
    pts = result.curve.samples
    center = pts.mean(axis=0)
    radii = np.hypot(*(pts - center).T)
    return radii.mean(), radii.max() - radii.min()


class TestMinimize:
    def test_flat_isoperimetric_circle(self, ctx_zero):
        res = minimize_area_constrained(ctx_zero, math.pi)
        assert res.converged
        assert res.energy_value == pytest.approx(S * math.sqrt(math.pi), abs=1e-6)
        mean_r, dev = radius_stats(res)
        assert mean_r == pytest.approx(1.0, abs=1e-6)
        assert dev < 1e-6
        # lambda = sign(tau) / r for the length-only problem
        assert res.lam == pytest.approx(1.0, abs=1e-4)
        assert res.curvature_residual < 1e-4

    def test_constant_curvature_circle(self, ctx_one):
        # the K = +1 unit circle has area -pi under the recorded convention
        res = minimize_area_constrained(ctx_one, -math.pi)
        assert res.converged
        mean_r, _ = radius_stats(res)
        assert mean_r == pytest.approx(1.0, abs=1e-3)
        assert abs(res.lam) < 1e-3

    def test_from_ellipse_start(self, ctx_one):
        t = np.arange(256) / 256
        ell = np.stack(
            [1.5 * np.cos(2 * np.pi * t), 0.7 * np.sin(2 * np.pi * t)], axis=1
        )
        opts = MinimizeOptions(initial=ClosedCurve(1.0, ell))
        res = minimize_area_constrained(ctx_one, -math.pi, opts)
        assert res.converged
        mean_r, dev = radius_stats(res)
        assert mean_r == pytest.approx(1.0, abs=1e-4)
        assert dev < 1e-4

    def test_periodic_field(self, ctx_periodic):
        res = minimize_area_constrained(ctx_periodic, 1.0)
        assert res.converged
        assert res.curvature_residual <= 1e-3
        # energy bounds from the potential smallness
        q = ctx_periodic.potential.sup_zero_mean()
        assert (1 - q) * S <= res.energy_value <= (1 + q) * S + 1e-6

    def test_constant_speed_of_minimizer(self, ctx_periodic):
        res = minimize_area_constrained(ctx_periodic, 1.0)
        du = derivative(res.curve, 1)
        speed = np.hypot(du[:, 0], du[:, 1])
        assert (speed.max() - speed.min()) / speed.mean() < 1e-5

    def test_zero_tau_rejected(self, ctx_zero):
        with pytest.raises(ValueError):
            minimize_area_constrained(ctx_zero, 0.0)

    def test_not_converged_flagged(self, ctx_periodic):
        opts = MinimizeOptions(max_iter=2)
        res = minimize_area_constrained(ctx_periodic, 1.0, opts)
        assert not res.converged


class TestProjection:
    def test_exact_area(self):
        t = np.arange(64) / 64
        pts = np.stack([2.0 * np.cos(-2 * np.pi * t), np.sin(-2 * np.pi * t)], axis=1)
        out = _project_area(pts, 1.0, 1.3)
        assert signed_area(ClosedCurve(1.0, out)) == pytest.approx(1.3, abs=1e-14)

    def test_wrong_sign_large_raises(self):
        c = circle(1.0, n=64, orientation=1)  # area -pi
        with pytest.raises(SignIncompatible):
            _project_area(c.samples, 1.0, math.pi)

    def test_wrong_sign_small_reflects(self):
        t = np.arange(64) / 64
        # tiny counterclockwise loop: area -0.01 against target +2
        pts = 0.056 * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        out = _project_area(pts, 1.0, 2.0)
        assert signed_area(ClosedCurve(1.0, out)) == pytest.approx(2.0, abs=1e-12)


class TestMultiplier:
    def test_circle_no_field(self, ctx_zero):
        # CCW circle radius r has K = 1/r, so lambda = -1/r; CW flips
        for r in (0.5, 2.0):
            ccw = circle(r, n=256, orientation=1)
            assert extract_lagrange_multiplier(ccw, ctx_zero) == pytest.approx(
                -1.0 / r, rel=1e-10
            )
            cw = circle(r, n=256, orientation=-1)
            assert extract_lagrange_multiplier(cw, ctx_zero) == pytest.approx(
                1.0 / r, rel=1e-10
            )

    def test_exact_shifted_loop_recovered(self, ctx_periodic):
        res = minimize_area_constrained(ctx_periodic, 1.0)
        lam = extract_lagrange_multiplier(res.curve, ctx_periodic)
        assert lam == pytest.approx(res.lam, abs=1e-12)

    def test_matching_constant_curvature(self, ctx_one):
        # circle of radius 1/H0 with K = H0 gives lambda = 0
        c = circle(1.0, n=256, orientation=1)
        assert extract_lagrange_multiplier(c, ctx_one) == pytest.approx(0.0, abs=1e-10)

    def test_circle_virial_identity(self, ctx_zero):
        # for H == 0 the weak equation tested with the curve itself gives
        # 2 lambda tau = L
        tau = math.pi
        res = minimize_area_constrained(ctx_zero, tau)
        assert 2 * res.lam * tau == pytest.approx(length(res.curve), abs=1e-6)


class TestSweep:
    def test_flat_field_scaling_law(self, ctx_zero):
        taus = np.geomspace(0.25, 4.0, 5)
        rows = sweep_isoperimetric(ctx_zero, taus)
        for row in rows:
            assert row.converged and row.simple
            assert row.s_h / math.sqrt(row.tau) == pytest.approx(S, abs=1e-4)
            assert row.stilde == pytest.approx(S, abs=1e-4)
        # lambda tracks the derivative of S_H = S sqrt(tau)
        for row in rows:
            assert row.lam == pytest.approx(S / (2 * math.sqrt(row.tau)), rel=1e-3)

    def test_interior_multiplier_matches_difference_quotient(self, ctx_periodic):
        taus = np.geomspace(0.5, 2.0, 5)
        rows = sweep_isoperimetric(ctx_periodic, taus)
        for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
            slope = (nxt.s_h - prev.s_h) / (nxt.tau - prev.tau)
            assert mid.lam == pytest.approx(slope, rel=0.05)

    def test_reflection_symmetry(self, ctx_periodic):
        # sweeps of (H, tau) and (-H, -tau) agree
        neg = build_context(
            CurvatureField.from_parts(periodic=-ctx_periodic.field.periodic)
        )
        rows_pos = sweep_isoperimetric(ctx_periodic, [0.7, 1.0])
        rows_neg = sweep_isoperimetric(neg, [-1.0, -0.7])
        assert rows_pos[0].s_h == pytest.approx(rows_neg[1].s_h, abs=2e-3)
        assert rows_pos[1].s_h == pytest.approx(rows_neg[0].s_h, abs=2e-3)

    def test_cold_solves_go_through_map(self, ctx_periodic):
        taus = [0.7, 1.0, 1.4]
        seen = []

        def recording_map(fn, items):
            items = list(items)
            seen.extend(items)
            return map(fn, items)

        rows = sweep_isoperimetric(ctx_periodic, taus, map=recording_map)
        assert seen == taus
        assert rows == sweep_isoperimetric(ctx_periodic, taus)

    def test_validation(self, ctx_zero):
        with pytest.raises(ValueError):
            sweep_isoperimetric(ctx_zero, [])
        with pytest.raises(ValueError):
            sweep_isoperimetric(ctx_zero, [1.0, 0.0])
        with pytest.raises(ValueError):
            sweep_isoperimetric(ctx_zero, [2.0, 1.0])


class TestMultiplierBounds:
    def test_flat_field_circle_is_edge_case(self, ctx_zero):
        # with no field both bounds collapse onto S / (2 sqrt tau)
        tau = math.pi
        res = minimize_area_constrained(ctx_zero, tau)
        ok, (lo, hi) = check_multiplier_bounds(tau, res.lam, ctx_zero)
        assert ok
        assert lo == pytest.approx(0.0, abs=1e-4)

    def test_converged_results_inside(self, ctx_periodic):
        for tau in (0.5, 1.0, 2.0):
            res = minimize_area_constrained(ctx_periodic, tau)
            ok, margins = check_multiplier_bounds(tau, res.lam, ctx_periodic)
            assert ok, margins

    def test_artificial_violation(self, ctx_periodic):
        huge = 100.0
        ok, _ = check_multiplier_bounds(1.0, huge, ctx_periodic)
        assert not ok

    def test_field_too_large(self):
        grid = periodic_from_callable(
            lambda x, y: 40.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=128
        )
        ctx = build_context(CurvatureField.from_parts(periodic=grid))
        with pytest.raises(FieldTooLarge):
            check_multiplier_bounds(1.0, 0.0, ctx)


class TestSimplicityOfWeakFieldMinimizers:
    def test_weak_periodic_minimizers_simple(self):
        grid = periodic_from_callable(
            lambda x, y: 0.1 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=128
        )
        ctx = build_context(CurvatureField.from_parts(periodic=grid))
        for tau in (0.5, -1.2, 2.0):
            res = minimize_area_constrained(ctx, tau)
            assert res.converged
            ok, _ = is_simple(res.curve)
            assert ok
