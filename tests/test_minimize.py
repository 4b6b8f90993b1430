import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prescurve.curves import (
    ClosedCurve,
    circle,
    derivative,
    is_simple,
    length,
    signed_area,
)
from prescurve.energy import EnergyContext, anisotropic_area, build_context
from prescurve.errors import FieldTooLarge, SignIncompatible
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve import minimize
from prescurve.minimize import (
    COARSE_N,
    SHARP_ISOPERIMETRIC,
    MinimizeOptions,
    MinimizeResult,
    _descend,
    _disc_scores,
    _initial_circle,
    _project_area,
    _trial,
    check_multiplier_bounds,
    extract_lagrange_multiplier,
    minimize_area_constrained,
    sweep_isoperimetric,
)

from conftest import curvature, dirichlet, disc_scores_general, tabulated

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


@pytest.fixture(scope="module")
def ctx_mixed():
    grid = periodic_from_callable(
        lambda x, y: 0.3 * np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y), m=64
    )
    radial = tabulated(lambda r: 0.2 * np.exp(-(r**2)))
    return build_context(CurvatureField.from_parts(constant=0.4, periodic=grid, radial=radial))


def lattice_pair(m: int, cells) -> tuple:
    """A skewed periodic wave on an m x m grid, and the same grid rolled by
    (p/8, q/8) of a cell for ``cells`` = (p, q)."""
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.cos(2 * np.pi * (x - 2 * y) + 0.3) + 0.2 * np.sin(4 * np.pi * y),
        m=m,
    )
    p, q = cells
    return grid, np.roll(grid, (p * m // 8, q * m // 8), axis=(0, 1))


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

    @pytest.mark.parametrize("n_start", [96, 1024])
    def test_start_at_another_n(self, ctx_one, n_start):
        # a band-limited start sampled at another N is regridded exactly, so
        # the solve matches the one started from the same curve at 256 samples
        def ellipse(n):
            t = np.arange(n) / n
            return np.stack([1.5 * np.cos(2 * np.pi * t), 0.7 * np.sin(2 * np.pi * t)], axis=1)

        ref = minimize_area_constrained(
            ctx_one, -math.pi, MinimizeOptions(initial=ClosedCurve(1.0, ellipse(256)))
        )
        res = minimize_area_constrained(
            ctx_one, -math.pi, MinimizeOptions(initial=ClosedCurve(1.0, ellipse(n_start)))
        )
        assert res.iterations == ref.iterations
        assert np.abs(res.curve.samples - ref.curve.samples).max() <= 1e-12

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
        assert res.stop_reason == "max_iter"


class TestStopReason:
    def test_cap_at_the_iterations_needed(self, ctx_periodic):
        # the decrement meets tol_grad on the last allowed iteration: the
        # solve stops for tol_grad, not at the cap, and has converged
        free = minimize_area_constrained(ctx_periodic, 1.0)
        assert free.stop_reason == "tol_grad" and free.converged
        pinned = minimize_area_constrained(
            ctx_periodic, 1.0, MinimizeOptions(max_iter=free.iterations)
        )
        assert pinned.stop_reason == "tol_grad" and pinned.converged
        assert pinned.iterations == free.iterations
        np.testing.assert_array_equal(pinned.curve.samples, free.curve.samples)
        short = minimize_area_constrained(
            ctx_periodic, 1.0, MinimizeOptions(max_iter=free.iterations - 1)
        )
        assert short.stop_reason == "max_iter" and not short.converged
        assert short.iterations == free.iterations - 1

    def test_line_search_exit(self, ctx_periodic, monkeypatch):
        # no step can meet this sufficient-decrease constant
        monkeypatch.setattr(minimize, "ARMIJO", 1e30)
        res = minimize_area_constrained(ctx_periodic, 1.0)
        assert res.stop_reason == "line_search"
        assert res.iterations == 1


def _count_descents(monkeypatch) -> collections.Counter:
    """Count ``_descend`` calls by the node count of the iterate."""
    calls = collections.Counter()
    descend = minimize._descend

    def counted(ctx, cur, *args):
        calls[len(cur.samples)] += 1
        return descend(ctx, cur, *args)

    monkeypatch.setattr(minimize, "_descend", counted)
    return calls


class TestCoarseToFine:
    @pytest.mark.parametrize("tau", [1.0, -2.0])
    def test_matches_single_stage(self, ctx_periodic, monkeypatch, tau):
        opts = MinimizeOptions(n_samples=1024)
        calls = _count_descents(monkeypatch)
        two = minimize_area_constrained(ctx_periodic, tau, opts)
        assert set(calls) == {COARSE_N, 1024}
        assert two.iterations == sum(calls.values())
        calls.clear()
        monkeypatch.setattr(minimize, "COARSE_N", 2048)
        one = minimize_area_constrained(ctx_periodic, tau, opts)
        assert set(calls) == {1024}
        assert two.energy_value == pytest.approx(one.energy_value, rel=0.0, abs=1e-10)
        for res in (two, one):
            assert res.stop_reason == "tol_grad" and res.converged
            assert res.curve.n == 1024
            assert res.curvature_residual <= opts.tol_residual
            assert res.area_error <= opts.tol_area

    @pytest.mark.parametrize("n", [64, COARSE_N])
    def test_single_stage_up_to_coarse_n(self, ctx_periodic, monkeypatch, n):
        opts = MinimizeOptions(n_samples=n)
        res = minimize_area_constrained(ctx_periodic, 1.0, opts)
        monkeypatch.setattr(minimize, "COARSE_N", 4096)
        single = minimize_area_constrained(ctx_periodic, 1.0, opts)
        assert res.iterations == single.iterations
        np.testing.assert_array_equal(res.curve.samples, single.curve.samples)
        assert res.lam == single.lam

    @pytest.mark.parametrize("n_start", [96, 1024])
    def test_warm_start_runs_both_stages(self, ctx_periodic, monkeypatch, n_start):
        # the sweep's warm start: a minimizer at another area, here held at
        # another N, is resampled to COARSE_N and finished at 512 nodes
        prev = minimize_area_constrained(
            ctx_periodic, 0.8, MinimizeOptions(n_samples=n_start)
        ).curve
        cold = minimize_area_constrained(ctx_periodic, 1.0, MinimizeOptions(n_samples=512))
        calls = _count_descents(monkeypatch)
        warm = minimize_area_constrained(
            ctx_periodic, 1.0, MinimizeOptions(n_samples=512, initial=prev)
        )
        assert set(calls) == {COARSE_N, 512}
        assert warm.iterations == sum(calls.values())
        assert warm.stop_reason == "tol_grad" and warm.converged
        assert warm.curve.n == 512
        assert warm.energy_value == pytest.approx(cold.energy_value, rel=0.0, abs=1e-9)

    def test_coarse_cap_ends_the_solve_at_n(self, ctx_periodic, monkeypatch):
        calls = _count_descents(monkeypatch)
        res = minimize_area_constrained(
            ctx_periodic, 1.0, MinimizeOptions(n_samples=512, max_iter=3)
        )
        assert dict(calls) == {COARSE_N: 3}
        assert res.stop_reason == "max_iter" and res.iterations == 3
        assert not res.converged
        # the coarse iterate is resampled: the reported curve has n samples
        assert res.curve.n == 512
        assert res.area_error <= 1e-12


@settings(max_examples=12, deadline=None)
@given(
    amplitude=st.floats(0.0, 0.5),
    phase=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    tau=st.one_of(st.floats(-4.0, -0.25), st.floats(0.25, 4.0)),
)
def test_refinement_invariance(amplitude, phase, tau):
    # the answer does not depend on the node count that carries it; the
    # multiplier is first order in the distance to the minimizer, so two
    # descents that meet tol_grad by different paths agree in it only to
    # about 1e-6, against 1e-10 for the energy
    px, py = phase
    grid = periodic_from_callable(
        lambda x, y: amplitude
        * np.sin(2 * np.pi * (x + px))
        * np.sin(2 * np.pi * (y + py)),
        m=64,
    )
    ctx = build_context(CurvatureField.from_parts(periodic=grid))
    coarse, fine = (
        minimize_area_constrained(ctx, tau, MinimizeOptions(n_samples=n))
        for n in (256, 1024)
    )
    assert fine.stop_reason == coarse.stop_reason
    assert fine.energy_value == pytest.approx(coarse.energy_value, rel=1e-8, abs=0.0)
    assert fine.curvature_residual == pytest.approx(
        coarse.curvature_residual, rel=0.25, abs=1e-7
    )
    assert fine.lam == pytest.approx(coarse.lam, rel=0.0, abs=1e-6)


def _fourier(rng, n, modes, amplitude):
    """Random real trigonometric polynomial of degree ``modes``, (n, 2)."""
    t = np.arange(n) / n
    phase = 2 * np.pi * np.outer(t, np.arange(modes + 1))
    a, b = amplitude * rng.normal(size=(2, modes + 1, 2))
    return np.cos(phase) @ a + np.sin(phase) @ b


class TestTrial:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([16, 64, 256, 1024]),
        tau=st.one_of(st.floats(-4.0, -0.25), st.floats(0.25, 4.0)),
        alpha=st.floats(0.0, 1.0),
    )
    def test_single_pass_matches_projected_curve(self, ctx_mixed, seed, n, tau, alpha):
        # a band-limited loop of about area tau, stepped along a
        # band-limited direction as the line search does
        rng = np.random.default_rng(seed)
        radius = math.sqrt(abs(tau) / math.pi) * rng.uniform(0.8, 1.25)
        t = np.arange(n) / n
        turn = -1.0 if tau > 0 else 1.0  # clockwise encloses positive area
        loop = rng.uniform(-0.5, 0.5, size=2) + radius * np.stack(
            [np.cos(2 * np.pi * t), turn * np.sin(2 * np.pi * t)], axis=1
        )
        loop += _fourier(rng, n, 5, 0.03 * radius)
        direction = _fourier(rng, n, 8, 0.1 * radius)
        trial = _trial(ctx_mixed, loop - alpha * direction, tau)
        curve = ClosedCurve(1.0, trial.samples)
        expected = dirichlet(curve) + anisotropic_area(curve, ctx_mixed)
        assert trial.value == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert signed_area(curve) == pytest.approx(tau, rel=1e-14, abs=0.0)
        np.testing.assert_array_equal(trial.h, ctx_mixed.field.value(trial.samples))
        du = derivative(curve, 1)
        assert np.abs(trial.du - du).max() <= 1e-12 * np.abs(du).max()

    def test_wrong_sign_takes_the_reverse_path(self, ctx_periodic):
        # the tiny counterclockwise loop of TestProjection, through a trial
        t = np.arange(64) / 64
        pts = 0.056 * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        trial = _trial(ctx_periodic, pts, 2.0)
        np.testing.assert_allclose(trial.samples, _project_area(pts, 1.0, 2.0), atol=1e-14)
        assert signed_area(ClosedCurve(1.0, trial.samples)) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(SignIncompatible):
            _trial(ctx_periodic, circle(1.0, n=64, orientation=1).samples, math.pi)

    def test_iteration_memory_per_sample(self, ctx_periodic):
        # one descent iteration holds O(N) arrays with a small constant:
        # about 0.5 KB per sample at N = 4096
        n, tau = 4096, 1.0
        cur = _trial(ctx_periodic, _initial_circle(ctx_periodic, tau, n).samples, tau)
        tracemalloc.start()
        try:
            _, _, reason = _descend(ctx_periodic, cur, tau, 1.0, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reason is None  # a step was taken
        assert peak <= 800 * n


class TestInitialCircle:
    def test_roundoff_tie_takes_first_candidate(self, ctx_periodic, monkeypatch):
        # a lattice-symmetric field scores (0.25, 0.25) and (0.75, 0.75)
        # alike up to roundoff; the later candidate wins the roundoff here
        tied = {(0.25, 0.25): -0.01, (0.75, 0.75): -0.01 - 1e-17}
        assert tied[(0.75, 0.75)] < tied[(0.25, 0.25)]

        def scores(ctx, centers, radius):
            return np.array([tied.get(tuple(c), 0.0) for c in centers.tolist()])

        monkeypatch.setattr(minimize, "_disc_scores", scores)
        start = _initial_circle(ctx_periodic, 0.1, 64)
        np.testing.assert_allclose(start.samples.mean(axis=0), (0.25, 0.25), atol=1e-12)

    def test_memory_per_lookup_point(self, ctx_mixed):
        # the 96 competitor discs (288 quadrature points each) are looked up
        # 8 at a time: the peak is about 370 B per point of one lookup,
        # whatever the number of candidates
        tracemalloc.start()
        try:
            _initial_circle(ctx_mixed, 1.0, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 500 * 8 * 288


    def test_lattice_memory_per_lookup_point(self, ctx_periodic):
        # the 64 lattice discs are gathered 8 at a time from one stencil:
        # the peak is about 300 B per point of one gather
        tracemalloc.start()
        try:
            _initial_circle(ctx_periodic, 1.0, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 500 * 8 * 288

    def test_lattice_skips_value(self, ctx_periodic, value_calls):
        # every candidate of a periodic-only field is a grid node at M = 256
        _initial_circle(ctx_periodic, 1.0, 64)
        assert value_calls == []

    def test_off_lattice_centers_take_the_general_lookup(self, ctx_periodic, value_calls):
        centers = np.array([(0.25, 0.5), (0.1, 0.3), (-0.375, 2.0), (1e-3, 0.0)])
        # (0.25, 0.5) and (-0.375, 2.0) are nodes of the 256 grid; the rest
        # take one value call, bit for bit the general lookup
        got = _disc_scores(ctx_periodic, centers, 0.4)
        assert value_calls == [(2, 12, 24, 2)]
        rest = disc_scores_general(ctx_periodic, centers[[1, 3]], 0.4)
        np.testing.assert_array_equal(got[[1, 3]], rest)
        want = disc_scores_general(ctx_periodic, centers, 0.4)
        assert np.abs(got - want).max() <= 1e-14 * np.pi * 0.4**2 * 0.5

    @given(
        m=st.sampled_from([32, 64, 256]),
        constant=st.floats(-2.0, 2.0),
        k=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        amplitude=st.floats(0.1, 1.0),
        phase=st.floats(0.0, 2 * math.pi),
        tau=st.floats(0.05, 5.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_lattice_scores_match_general_lookup(
        self, m, constant, k, amplitude, phase, tau, sign
    ):
        # each score is within 1e-14 of the disc area times sup |H|, which
        # bounds it, and both scorings pick the same competitor circle
        grid = periodic_from_callable(
            lambda x, y: amplitude * np.cos(2 * np.pi * (k[0] * x + k[1] * y) + phase)
            + 0.3 * np.sin(2 * np.pi * (x + 2 * y)),
            m=m,
        )
        field = CurvatureField.from_parts(constant=constant, periodic=grid)
        ctx = EnergyContext(field=field, potential=None)  # the search reads H only
        radius = math.sqrt(tau / math.pi)
        centers = np.array([(0.0, 0.0)] + [(a / 8, b / 8) for a in range(8) for b in range(8)])
        got = _disc_scores(ctx, centers, radius)
        want = disc_scores_general(ctx, centers, radius)
        scale = tau * (abs(constant) + amplitude + 0.3)
        assert np.abs(got - want).max() <= 1e-14 * scale
        lattice = _initial_circle(ctx, sign * tau, 64)
        with mock.patch.object(minimize, "_disc_scores", disc_scores_general):
            general = _initial_circle(ctx, sign * tau, 64)
        np.testing.assert_array_equal(lattice.samples, general.samples)

    @pytest.mark.parametrize("m", [32, 256])
    @pytest.mark.parametrize("cells", [(1, 0), (0, 1), (3, 5)])
    def test_lattice_translation(self, m, cells):
        # H rolled by p M/8, q M/8 nodes is H moved by (p/8, q/8): the score
        # of the disc about (a/8, b/8) moves to the center ((a+p)/8, (b+q)/8)
        grid, rolled = lattice_pair(m, cells)
        p, q = cells
        centers = np.array([(a / 8, b / 8) for a in range(8) for b in range(8)])
        scores = []
        for g in (grid, rolled):
            ctx = EnergyContext(field=CurvatureField.from_parts(constant=0.2, periodic=g), potential=None)
            scores.append(_disc_scores(ctx, centers, 0.3))
        moved = [((a - p) % 8) * 8 + (b - q) % 8 for a in range(8) for b in range(8)]
        assert np.abs(scores[1] - scores[0][moved]).max() <= 1e-14 * np.pi * 0.3**2 * 0.9
        assert not np.allclose(scores[1], scores[0], rtol=0.0, atol=1e-3)


class TestEquivariance:
    """Symmetries of the field carry over to the solve."""

    OPTS = MinimizeOptions(n_samples=128)

    @pytest.mark.parametrize("tau", [0.8, -1.5])
    @pytest.mark.parametrize("cells", [(1, 0), (0, 1), (3, 5)])
    def test_lattice_translation_of_the_solve(self, cells, tau):
        # the rolled field gives the same energy, multiplier and iteration
        # count; samples are not compared, since a tie between lattice
        # centres may pick an equivalent one
        solves = [
            minimize_area_constrained(
                build_context(CurvatureField.from_parts(constant=0.2, periodic=grid)),
                tau,
                self.OPTS,
            )
            for grid in lattice_pair(64, cells)
        ]
        base, moved = solves
        assert base.converged and moved.converged
        assert moved.energy_value == pytest.approx(base.energy_value, rel=0.0, abs=1e-13)
        assert moved.lam == pytest.approx(base.lam, rel=0.0, abs=1e-13)
        assert moved.iterations == base.iterations

    @pytest.mark.parametrize("a", [0.3, 0.8])
    def test_sign_symmetry(self, a):
        # (H, tau) -> (-H, -tau) reverses the orientation and keeps S_H; for
        # a sin 2 pi x sin 2 pi y, -H is H moved by half a cell, so S_H(-tau)
        # of H is the same number
        grid = periodic_from_callable(
            lambda x, y: a * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=64
        )
        pos = build_context(CurvatureField.from_parts(periodic=grid))
        neg = build_context(CurvatureField.from_parts(periodic=-grid))
        for tau in (1.0, 2.5, 4.0):
            s_h = minimize_area_constrained(pos, tau, self.OPTS).energy_value
            for ctx in (neg, pos):
                other = minimize_area_constrained(ctx, -tau, self.OPTS).energy_value
                assert other == pytest.approx(s_h, rel=0.0, abs=1e-13)


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


def multiplier(curve, ctx) -> float:
    """``extract_lagrange_multiplier`` of K, H and the speed at the nodes."""
    du = derivative(curve, 1)
    h = ctx.field.value(curve.samples)
    speed = np.hypot(du[:, 0], du[:, 1])
    return extract_lagrange_multiplier(curvature(curve), h, speed)


class TestMultiplier:
    def test_circle_no_field(self, ctx_zero):
        # CCW circle radius r has K = 1/r, so lambda = -1/r; CW flips
        for r in (0.5, 2.0):
            ccw = circle(r, n=256, orientation=1)
            assert multiplier(ccw, ctx_zero) == pytest.approx(
                -1.0 / r, rel=1e-10
            )
            cw = circle(r, n=256, orientation=-1)
            assert multiplier(cw, ctx_zero) == pytest.approx(
                1.0 / r, rel=1e-10
            )

    def test_exact_shifted_loop_recovered(self, ctx_periodic):
        res = minimize_area_constrained(ctx_periodic, 1.0)
        lam = multiplier(res.curve, ctx_periodic)
        assert lam == pytest.approx(res.lam, abs=1e-12)

    def test_final_diagnostics_match_public_functions(self, ctx_periodic):
        # the solve takes u', u'', K and H of its final curve once; the
        # public functions, each taking its own, give the same bits
        res = minimize_area_constrained(ctx_periodic, 1.0)
        c = res.curve
        assert res.lam == multiplier(c, ctx_periodic)
        gap = curvature(c) - ctx_periodic.field.value(c.samples) + res.lam
        assert res.curvature_residual == float(np.abs(gap).max())
        assert res.area_error == abs(signed_area(c) - 1.0)

    def test_matching_constant_curvature(self, ctx_one):
        # circle of radius 1/H0 with K = H0 gives lambda = 0
        c = circle(1.0, n=256, orientation=1)
        assert multiplier(c, ctx_one) == pytest.approx(0.0, abs=1e-10)

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

    def test_solve_order(self, ctx_periodic, monkeypatch):
        # cold tau_1, then cold and warm at each later tau: the pairs of
        # adjacent solves that a warm-start win rate is read from
        solves = []
        solve = minimize.minimize_area_constrained

        def recording(ctx, tau, opts=None):
            solves.append((tau, "cold" if opts.initial is None else "warm"))
            return solve(ctx, tau, opts)

        monkeypatch.setattr(minimize, "minimize_area_constrained", recording)
        sweep_isoperimetric(ctx_periodic, [0.7, 1.0, 1.4])
        assert solves == [
            (0.7, "cold"), (1.0, "cold"), (1.0, "warm"), (1.4, "cold"), (1.4, "warm")
        ]

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
