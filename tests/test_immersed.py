import math
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from prescurve.curves import ClosedCurve, derivative, is_simple
from prescurve.errors import DegenerateSpeed, NoSignChange
from prescurve import immersed
from prescurve.fields import RadialCurvature
from prescurve.immersed import (
    AnsatzParams,
    LSConfig,
    _ansatz,
    _graph,
    _grid,
    _radial_rate,
    build_immersed_loop,
    default_bracket,
    find_radii,
    find_radius,
    fixed_point_solve,
    linf_invert_perp,
)

from conftest import (
    _Frame,
    _perturb,
    curvature,
    curvature_gap,
    find_radius_in_r,
    find_radius_sequential,
    fixed_point_rebuilt,
    linearized_coeffs,
    linf_apply,
    perturbed,
    project_perp,
    sderiv,
    search,
    verify_second_multiplier,
    winding_number,
)


@pytest.fixture(scope="module")
def h_model():
    return RadialCurvature(A=1.0, gamma=2.0)


def grid_2pi(n=512):
    return 2 * np.pi * np.arange(n) / n


EPS = np.finfo(float).eps
# the real invariants and the oracle's complex frame each take a few dozen
# rounded operations on terms of the size of the curve and its curvature,
# so one evaluation of the perturbed curve agrees with the other to this
# many units of roundoff, relative to those sizes
ROUNDING = 64 * EPS


def h_sup(params, phi, h):
    """max |H(|w|)| over the perturbed curve w = u + phi * normal: the size
    of the O(1) terms whose K - H cancellation leaves lambda2 as roundoff."""
    fr = _Frame(params, grid_2pi(len(phi)))
    return float(np.abs(h(np.abs(fr.u + phi * fr.nu))).max())


# the four radial profiles of the immersed-family benchmark, both mirrors
FAMILY = ((1.0, 2.0), (-1.0, 2.0), (0.5, 3.0), (-0.5, 1.5))


class TestAnsatz:
    def test_start_point(self):
        fr = _Frame(AnsatzParams(n=8, R=3.0), grid_2pi(128))
        assert fr.u[0] == pytest.approx(4.0 + 0.0j)

    def test_speed_near_unity(self):
        # | |u'| - n/(n-1) | stays bounded by a stable multiple of R/n
        ratios = []
        for n in (32, 64, 128, 256):
            R = (1.0 * n) ** 0.25
            fr = _Frame(AnsatzParams(n=n, R=R), grid_2pi(256))
            dev = np.abs(fr.speed - n / (n - 1)).max()
            ratios.append(dev * n / R)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 1.2

    def test_frame_identities(self):
        # the eight algebraic identities of the normal frame hold at nodes
        fr = _Frame(AnsatzParams(n=8, R=3.0), grid_2pi(512))
        u, du, d2u = fr.u, fr.du, fr.d2u
        nu, dnu, d2nu = fr.nu, fr.dnu, fr.d2nu
        s = fr.speed

        def dot(a, b):
            return (np.conj(a) * b).real

        def idot(a, b):
            return (np.conj(1j * a) * b).real

        assert np.abs(idot(du, nu) - s).max() < 1e-10
        assert np.abs(dot(du, nu)).max() < 1e-10
        assert np.abs(idot(du, dnu)).max() < 1e-10
        assert np.abs(idot(nu, d2u) + dot(du, d2u) / s).max() < 1e-10
        assert np.abs(dot(du, dnu) + idot(du, d2u) / s).max() < 1e-10
        assert np.abs(dot(nu, dnu)).max() < 1e-10
        assert np.abs(idot(nu, dnu) - idot(du, d2u) / s**2).max() < 1e-10
        assert np.abs(
            idot(du, d2nu) - (dot(du, d2u) ** 2 / s**3 - np.abs(d2u) ** 2 / s)
        ).max() < 1e-10

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_graph_matches_complex_frame(self, n, mirror, rng):
        # K(w), |w| and w . w' of w = u + phi nu from the real invariants
        # against the complex frame, for random smooth profiles at radii
        # from 0.3 to 0.6 n, where |u'| dips to 0.4 b
        grid, t = _grid(256), grid_2pi(256)
        for R in (0.3, 1.0, 0.6 * n):
            params = AnsatzParams(n=n, R=R, mirror=mirror)
            ans = _ansatz(params, grid.cos_t, grid.sin_t)
            for _ in range(3):
                phi = sum(
                    0.01 * (rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t))
                    for k in range(6)
                )
                dphi, d2phi = sderiv(phi, 1), sderiv(phi, 2)
                w, dw, kappa = _perturb(_Frame(params, t), phi, dphi, d2phi)
                dist, got = _graph(ans, phi, dphi, d2phi)
                size, speed = np.abs(w).max(), np.abs(dw).max()
                assert np.abs(got - kappa).max() <= ROUNDING * max(1.0, np.abs(kappa).max())
                assert np.abs(dist - np.abs(w)).max() <= ROUNDING * size
                rate = _radial_rate(ans, phi, dphi)
                assert np.abs(rate - (w.conjugate() * dw).real).max() <= ROUNDING * size * speed


class TestLinearOperator:
    # roundoff in the second-derivative symbol grows like N^2 eps, so the
    # machine-precision assertions run at the short sample count
    def test_kernel_exact(self):
        t = grid_2pi(128)
        assert np.abs(linf_apply(np.cos(t))).max() < 1e-12
        assert np.abs(linf_apply(np.sin(t))).max() < 1e-12

    def test_mode_inverse_values(self):
        t = grid_2pi()
        assert np.abs(linf_invert_perp(np.cos(2 * t)) + np.cos(2 * t) / 3).max() < 1e-13
        assert np.abs(linf_invert_perp(np.cos(t))).max() < 1e-14
        assert np.abs(linf_invert_perp(np.full_like(t, 1.7)) - 1.7).max() < 1e-13

    def test_inverse_exactness_random(self, rng):
        t = grid_2pi(128)
        for _ in range(50):
            f = np.zeros_like(t)
            for k in range(0, 12):
                f += rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
            f /= np.abs(f).max()
            assert np.abs(linf_apply(linf_invert_perp(f)) - project_perp(f)).max() < 1e-12

    def test_quadrature_oracle_agreement(self, rng):
        # oracle: direct convolution solution integral F(s) cos(t - s)
        t = grid_2pi(512)
        f = (
            0.7 * np.cos(2 * t)
            - 0.4 * np.sin(3 * t)
            + 0.2 * np.cos(5 * t)
            + 0.9
        )
        dense = np.linspace(0, 2 * np.pi, 16385)
        fd = (
            0.7 * np.cos(2 * dense)
            - 0.4 * np.sin(3 * dense)
            + 0.2 * np.cos(5 * dense)
            + 0.9
        )
        from scipy.integrate import cumulative_simpson, simpson

        big_f = cumulative_simpson(fd, x=dense, initial=0.0)
        eta = np.empty_like(t)
        for i, ti in enumerate(t):
            mask = dense <= ti + 1e-14
            xs = dense[mask]
            eta[i] = simpson(big_f[mask] * np.cos(ti - xs), x=xs) if len(xs) > 2 else 0.0
        # project the particular solution onto the complement of the kernel
        proj = eta.copy()
        for w in (np.cos(t), np.sin(t)):
            proj -= (eta * w).sum() * (2 * np.pi / len(t)) / np.pi * w
        assert np.abs(proj - linf_invert_perp(f)).max() < 1e-8


class TestCurvatureGap:
    def test_flat_profile_gap_is_ansatz_curvature_defect(self):
        # with h == 1 the gap at phi = 0 is K(u) - 1, decaying like
        # R/n = n^(delta-1) with a stable fitted constant
        flat = lambda s: np.ones_like(np.asarray(s))
        ratios = []
        for n in (32, 64, 128, 256):
            R = (1.0 * n) ** 0.25
            gap = curvature_gap(AnsatzParams(n=n, R=R), np.zeros(512), flat)
            ratios.append(np.abs(gap).max() * n / R)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 1.5

    def test_unperturbed_gap_decays(self, h_model):
        sups = {}
        for n in (32, 64, 128, 256):
            R = (1.0 * n) ** 0.25
            gap = curvature_gap(AnsatzParams(n=n, R=R), np.zeros(512), h_model)
            sups[n] = np.abs(gap).max()
        # decay consistent with n^(delta - 1) + n^(-delta gamma): slope near -1/2
        ns = np.array(sorted(sups))
        slope = np.polyfit(np.log(ns), np.log([sups[n] for n in ns]), 1)[0]
        assert -0.75 < slope < -0.35
        assert sups[256] < sups[32] / 2

    def test_converged_gap_is_kernel_mode(self, h_model):
        res = find_radius(64, h_model)
        gap = curvature_gap(AnsatzParams(n=64, R=res.R), res.phi, h_model)
        t = grid_2pi(len(gap))
        model = res.lambda1 * np.cos(t) + res.lambda2 * np.sin(t)
        assert np.abs(gap - model).max() < 1e-8


class TestFixedPoint:
    def test_converges_quickly_at_model_point(self, h_model):
        trace = fixed_point_solve(AnsatzParams(n=32, R=(1.0 * 32) ** 0.25), h_model).trace
        assert len(trace) <= 50
        assert trace[-1] <= 1e-10

    def test_defect_at_convergence(self, h_model):
        params = AnsatzParams(n=64, R=(1.0 * 64) ** 0.25)
        phi = fixed_point_solve(params, h_model).phi
        gap = curvature_gap(params, phi, h_model)
        # the map of the paper, Linv(L phi - G), against the oracle L
        defect = linf_invert_perp(linf_apply(phi) - gap) - phi
        assert np.abs(defect).max() <= 1e-10

    def test_start_profile_loses_kernel_modes(self, h_model):
        # the map never touches the cos and sin modes, so a start carrying
        # them must have them removed at entry to reach the cold-start root
        params = AnsatzParams(n=64, R=(1.0 * 64) ** 0.25)
        cold, *_ = fixed_point_solve(params, h_model)
        t = grid_2pi(len(cold))
        start = cold + 0.1 * np.cos(t) + 0.05 * np.sin(t)
        phi, *_ = fixed_point_solve(params, h_model, phi0=start)
        assert np.abs(phi - cold).max() <= 1e-9
        sup = np.abs(phi).max()
        assert abs(np.fft.rfft(phi)[1] / len(phi)) < 1e-12 * sup

    def test_inexact_solve_stops_early_on_the_exact_path(self, h_model):
        # at a bracket end, far from the root, the forcing rule stops the
        # same iteration once the defect is at most 0.1 |lambda1|
        r0, _ = default_bracket(h_model)
        params = AnsatzParams(n=64, R=(r0 * 64) ** 0.25)
        config = LSConfig()
        _, lam1_exact, _, exact, *_ = fixed_point_solve(params, h_model, config)
        _, lam1, _, trace, *_ = fixed_point_solve(params, h_model, config, inexact=True)
        assert len(trace) < len(exact)
        assert trace == exact[: len(trace)]
        assert abs(lam1) > config.tol_root
        assert config.tol_fp < trace[-1] <= 0.1 * abs(lam1)
        assert np.sign(lam1) == np.sign(lam1_exact)

    @pytest.mark.parametrize("inexact", [False, True])
    @pytest.mark.parametrize("amp", [1.0, -1.0])
    @pytest.mark.parametrize("n, R", [(8, 2.4), (32, 32**0.25), (64, 64**0.25)])
    def test_matches_rebuilt_oracle(self, n, R, amp, inexact):
        # the shared tables (one transform for phi' and phi'', symbols and
        # cos t, sin t built once, the ansatz's real invariants) against the
        # oracle that rebuilds every transform and evaluates the complex
        # frame, from a zero start and from the profile of a nearby radius;
        # at n = 8, below the asymptotic regime, R = 2.4 is one where both
        # families contract.  The two round differently, so they make the
        # same iterations and agree to rounding: the profile and the
        # multipliers to ROUNDING, each defect to ROUNDING per iteration
        # so far, the gap, which reads phi'', to (N/2)^2 ROUNDING, and
        # w . w', which reads phi', to (N/2) ROUNDING times the curve's size
        h = RadialCurvature(A=amp, gamma=2.0)
        params = AnsatzParams(n=n, R=R, mirror=amp < 0)
        config = LSConfig()
        half = config.num_samples // 2
        warm, *_ = fixed_point_solve(replace(params, R=0.96 * R), h, config, inexact=True)
        for phi0 in (None, warm):
            got = fixed_point_solve(params, h, config, phi0, inexact=inexact)
            phi, lam1, lam2, trace, gap, rate = fixed_point_rebuilt(
                params, h, config, phi0, inexact=inexact
            )
            assert len(got.trace) == len(trace)
            assert np.abs(got.phi - phi).max() <= ROUNDING * max(1.0, np.abs(phi).max())
            assert abs(got.lambda1 - lam1) <= ROUNDING
            assert abs(got.lambda2 - lam2) <= ROUNDING
            steps = np.arange(1, len(trace) + 1)
            assert np.all(np.abs(np.subtract(got.trace, trace)) <= ROUNDING * steps)
            assert np.abs(got.gap - gap).max() <= half**2 * ROUNDING
            size = params.R + 1.0 + np.abs(phi).max()
            assert np.abs(got.radial_rate - rate).max() <= half * ROUNDING * size**2

    def test_profile_norm_decay(self, h_model):
        sups = {}
        for n in (32, 64, 128, 256):
            res = find_radius(n, h_model)
            sups[n] = np.abs(res.phi).max()
        ns = np.array(sorted(sups))
        slope = np.polyfit(np.log(ns), np.log([sups[n] for n in ns]), 1)[0]
        # asymptotic exponent -gamma/(gamma+2) = -1/2, within 15 percent
        assert abs(slope - (-0.5)) <= 0.15 * 0.5

    def test_profile_is_perp_and_even(self, h_model):
        res = find_radius(32, h_model)
        phi = res.phi
        mode1 = np.fft.rfft(phi)[1] / len(phi)
        assert abs(mode1) < 1e-12 * max(np.abs(phi).max(), 1e-30)
        # evenness: phi(-t) = phi(t) up to solver tolerance
        flipped = np.concatenate([phi[:1], phi[1:][::-1]])
        assert np.abs(flipped - phi).max() < 1e-9


class TestFindRadius:
    def test_bracket_inequalities_enforced(self, h_model):
        with pytest.raises(ValueError):
            find_radius(64, h_model, LSConfig(r_bracket=(0.5, 2.0)))  # 4 * 0.5 >= 1

    def test_no_sign_change_below_asymptotic_regime(self, h_model):
        # below n ~ 32 the kernel equation has no root in the legal bracket
        with pytest.raises(NoSignChange):
            find_radius(16, h_model)

    def test_root_trend_toward_half_gamma_amplitude(self, h_model):
        # leading order of the kernel equation: r_n -> A gamma / 2 = 1
        roots = {n: find_radius(n, h_model).r for n in (64, 128, 256)}
        assert roots[64] < roots[128] < roots[256] < 1.0
        assert abs(roots[256] - 1.0) < abs(roots[64] - 1.0)

    def test_bracket_endpoint_signs(self, h_model):
        r0, r1 = default_bracket(h_model)
        res = find_radius(256, h_model)
        signs = {r: np.sign(l1) for r, l1, _, _ in res.trace if r in (r0, r1)}
        assert signs[r0] > 0 and signs[r1] < 0

    def test_multiplier_below_tolerance(self, h_model):
        res = find_radius(64, h_model, LSConfig(tol_root=1e-8))
        assert abs(res.lambda1) <= 1e-8
        assert res.converged

    def test_evaluation_count(self, h_model):
        # Brent in log r with warm-started solves needs 8 radius evaluations
        # here
        res = find_radius(64, h_model)
        assert res.converged
        assert res.radius_evals == len(res.trace) <= 12

    def test_stop_reason_tol_root(self, h_model):
        res = find_radius(64, h_model)
        assert res.stop_reason == "tol_root"
        assert abs(res.lambda1) <= LSConfig().tol_root < abs(res.trace[0][1])

    def test_stop_reason_bracket_end(self, h_model):
        # lambda1 exactly 0 at the lower end: that end is the radius, and
        # no search runs past the two bracket ends
        res = search(64, h_model, LSConfig(), lambda sol: sol._replace(lambda1=0.0))
        assert res.stop_reason == "bracket_end"
        assert res.r == default_bracket(h_model)[0]
        assert res.lambda1 == 0.0 and res.radius_evals == 2

    @pytest.mark.parametrize("amp, gamma", FAMILY)
    def test_bracket_end_accepted_by_brent(self, amp, gamma):
        # |lambda1| within tol_root but not 0 at the lower end: Brent's
        # method, run in log r, accepts that end at once, and the result is
        # the radius solved there, r0 itself (at (-0.5, 1.5),
        # exp(log r0) != r0)
        def small(sol):
            return sol._replace(lambda1=math.copysign(1e-12, sol.lambda1))

        h = RadialCurvature(A=amp, gamma=gamma)
        res = search(64, h, LSConfig(), small)
        assert res.stop_reason == "tol_root"
        assert res.r == default_bracket(h)[0]
        assert abs(res.lambda1) == 1e-12 and res.radius_evals == 2

    @pytest.mark.parametrize("amp, gamma", FAMILY)
    def test_family_converges_from_default_bracket(self, amp, gamma):
        h = RadialCurvature(A=amp, gamma=gamma)
        res = find_radius(64, h)
        assert res.converged
        assert res.mirror == (amp < 0)
        assert abs(res.lambda1) <= 1e-8
        r0, r1 = default_bracket(h)
        assert r0 < res.r < r1

    @pytest.mark.parametrize("amp, gamma", FAMILY)
    def test_accepted_root_solved_to_tol_fp(self, amp, gamma):
        # with a loose root tolerance the forcing rule could stop the solve
        # Brent accepts long before tol_fp; it must not apply there
        config = LSConfig(tol_root=1e-4)
        res = find_radius(64, RadialCurvature(A=amp, gamma=gamma), config)
        assert res.converged
        (row,) = [row for row in res.trace if row[0] == res.r]
        assert abs(row[1]) <= config.tol_root
        assert row[3] <= config.tol_fp

    def test_log_r_search_against_r_space_oracle(self):
        # both searches accept a root with |lambda1| <= tol_root, so the two
        # radii lie within 2 tol_root / |d lambda1 / dr| of each other; the
        # search in log r needs no more evaluations over the family
        tol_root = LSConfig().tol_root
        evals = evals_in_r = 0
        for amp, gamma in FAMILY:
            h = RadialCurvature(A=amp, gamma=gamma)
            res = find_radius(64, h)
            r_lin, lam1_lin, count = find_radius_in_r(64, h)
            assert abs(lam1_lin) <= tol_root

            def lam1_exact(r):
                R = (r * 64) ** (1.0 / (gamma + 2.0))
                return fixed_point_solve(AnsatzParams(n=64, R=R, mirror=amp < 0), h).lambda1

            d = 1e-3 * r_lin
            slope = (lam1_exact(r_lin + d) - lam1_exact(r_lin - d)) / (2.0 * d)
            assert abs(res.r - r_lin) <= 2.0 * tol_root / abs(slope)
            evals += res.radius_evals
            evals_in_r += count
        assert evals <= evals_in_r

    @pytest.mark.parametrize("amp, gamma", FAMILY)
    def test_inexact_solves_iteration_budget(self, amp, gamma):
        # solves stopped at defect <= 0.1 |lambda1| away from the root take
        # 28-36 fixed-point iterations per search here; exact ones 92-130
        res = find_radius(64, RadialCurvature(A=amp, gamma=gamma))
        assert res.converged
        assert sum(row[2] for row in res.trace) <= 60


def bits(value):
    """``value`` with every float as its bytes: equal bits compare equal,
    and 0.0 differs from -0.0."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def assert_same_result(got, want):
    for field in fields(want):
        name = field.name
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


class TestFamily:
    @pytest.mark.parametrize("n_list", [(32, 64, 128), (128, 32), (64,)])
    @pytest.mark.parametrize("amp, gamma", FAMILY)
    def test_lockstep_matches_sequential_oracle(self, amp, gamma, n_list):
        # each search, run in lockstep with the others in any list order,
        # ends bit for bit as the search run alone by one loop of solves
        h = RadialCurvature(A=amp, gamma=gamma)
        results = list(find_radii(n_list, h))
        assert [res.n for res in results] == list(n_list)
        for res, n in zip(results, n_list):
            assert_same_result(res, find_radius_sequential(n, h))

    def test_find_radius_matches_sequential_oracle(self, h_model):
        assert_same_result(find_radius(64, h_model), find_radius_sequential(64, h_model))

    def test_one_lockstep_run_per_call(self, h_model, monkeypatch):
        # find_radius is the family of one: its whole search, and that of
        # build_immersed_loop, is one lockstep run, not one per evaluation
        lockstep = immersed._lockstep
        calls = []

        def counted(searches, *args, **kwargs):
            calls.append(len(searches))
            return lockstep(searches, *args, **kwargs)

        monkeypatch.setattr(immersed, "_lockstep", counted)
        find_radius(64, h_model)
        assert calls == [1]
        build_immersed_loop(64, h_model)
        assert calls == [1, 1]

    @pytest.mark.parametrize("n_list", [(16,), (64, 16), (16, 64), (128, 64, 16, 2)])
    def test_failing_search_raises_in_list_order(self, h_model, n_list):
        # n = 16 has no sign change in the bracket; the family yields the
        # results before it, then raises what a loop of sequential searches
        # raises at the first failing n
        with pytest.raises(Exception) as want:
            expected = []
            for n in n_list:
                expected.append(find_radius_sequential(n, h_model))
        results = find_radii(n_list, h_model)
        for res in expected:
            assert_same_result(next(results), res)
        with pytest.raises(type(want.value)) as got:
            next(results)
        assert type(got.value) is type(want.value) is NoSignChange
        assert str(got.value) == str(want.value)

    def test_degenerate_row_fails_only_its_search(self, h_model, monkeypatch):
        # a curve that loses regularity in one row of the stack fails that
        # row's search alone; the other row's result is unchanged
        graph = immersed._graph
        calls = []

        def degenerate_on_third(ans, phi, *args):
            calls.append(None)
            if len(calls) == 3:
                assert len(phi) == 2
                exc = DegenerateSpeed("normal perturbation destroys regularity")
                exc.rows = np.array([1])
                raise exc
            return graph(ans, phi, *args)

        monkeypatch.setattr(immersed, "_graph", degenerate_on_third)
        results = find_radii((128, 64), h_model)
        monkeypatch.setattr(immersed, "_graph", graph)
        assert_same_result(next(results), find_radius_sequential(128, h_model))
        with pytest.raises(DegenerateSpeed, match="destroys regularity"):
            next(results)

    def test_start_of_wrong_shape_raises(self, h_model):
        params = AnsatzParams(n=64, R=64**0.25)
        with pytest.raises(ValueError, match=r"phi0 must have shape \(512,\), got \(7,\)"):
            fixed_point_solve(params, h_model, phi0=np.zeros(7))


class TestSecondMultiplier:
    def test_vanishes(self, h_model):
        res = find_radius(64, h_model)
        gap_sup = res.residual + abs(res.lambda1)
        lam2, rot = verify_second_multiplier(res, h_model)
        params = AnsatzParams(n=64, R=res.R, mirror=res.mirror)
        assert lam2 <= 1e-8 * gap_sup + 4 * EPS * h_sup(params, res.phi, h_model)

    @pytest.mark.parametrize("amp, gamma", [(1.0, 2.0), (-0.5, 1.5)])
    def test_parity_at_every_radius_evaluation(self, amp, gamma):
        # lambda2 is roundoff of the K - H sum at every radius the search
        # visits, not only at the root, and for a cold start as well; the
        # search's inexact lambda1 keeps the sign of the exact one wherever
        # it may steer the search, and the accepted root was solved exactly
        h = RadialCurvature(A=amp, gamma=gamma)
        config = LSConfig()
        res = find_radius(64, h, config)
        assert len(res.trace) >= 3
        for r, lam1, _, defect in res.trace:
            params = AnsatzParams(
                n=64, R=(r * 64) ** (1.0 / (gamma + 2.0)), mirror=res.mirror
            )
            phi, lam1_exact, lam2, *_ = fixed_point_solve(params, h)
            assert abs(lam2) <= 4 * EPS * h_sup(params, phi, h)
            if abs(lam1_exact) > config.tol_root:
                assert np.sign(lam1) == np.sign(lam1_exact)
                assert abs(lam1 - lam1_exact) <= 0.25 * abs(lam1_exact)
            if r == res.r:
                assert defect <= config.tol_fp

    def test_rotational_identity(self, h_model):
        res = find_radius(64, h_model)
        _, rot = verify_second_multiplier(res, h_model)
        assert abs(rot) < 1e-8

    @pytest.mark.parametrize("amp, gamma", [(1.0, 2.0), (-0.5, 1.5)])
    def test_accepted_evaluation_matches_oracles(self, amp, gamma):
        # the residual and the rotation identity are read off the last
        # evaluation of the accepted radius's solve, as the oracles evaluate
        # the returned profile anew on the complex frame: the same profile
        # and derivatives, so they agree to one evaluation's rounding
        h = RadialCurvature(A=amp, gamma=gamma)
        res = find_radius(64, h)
        params = AnsatzParams(n=64, R=res.R, mirror=res.mirror)
        w, dw, kappa = perturbed(params, res.phi)
        gap = kappa - h(np.abs(w))
        t = grid_2pi(len(gap))
        scale = np.abs(kappa).max() + np.abs(h(np.abs(w))).max()
        residual = float(np.abs(gap - res.lambda2 * np.sin(t)).max())
        assert abs(res.residual - residual) <= ROUNDING * scale
        rate = np.abs((w.conjugate() * dw).real).max()
        _, identity = verify_second_multiplier(res, h)
        assert abs(res.rotation_identity - identity) <= 2.0 * np.pi * ROUNDING * scale * rate

    def test_even_profile_kills_sine_multiplier(self, h_model):
        # any even perturbation gives an even gap, so the sine projection
        # vanishes by parity regardless of convergence
        t = grid_2pi()
        phi = 0.05 * np.cos(2 * t) - 0.02 * np.cos(3 * t) + 0.01
        gap = curvature_gap(AnsatzParams(n=32, R=(32.0) ** 0.25), phi, h_model)
        lam2 = float((gap * np.sin(t)).sum() * (2 * np.pi / len(t)) / np.pi)
        assert abs(lam2) < 1e-13 * max(np.abs(gap).max(), 1e-30)


class TestBuildLoop:
    def test_end_to_end(self, h_model):
        curve, res = build_immersed_loop(64, h_model)
        assert res.converged
        assert res.residual <= 1e-6
        kappa = curvature(curve)  # regularity implied
        r_pts = np.hypot(curve.samples[:, 0], curve.samples[:, 1])
        assert np.abs(kappa - h_model(r_pts)).max() <= 1e-6
        assert r_pts.min() > h_model.s0

    def test_winding_and_turning(self, h_model):
        curve, res = build_immersed_loop(32, h_model, LSConfig(samples_per_loop=64))
        # the loop encircles the origin once; its tangent makes n turns
        assert winding_number(curve, (0.0, 0.0)) == 1
        hodograph = ClosedCurve(curve.period, derivative(curve, 1))
        assert winding_number(hodograph, (0.0, 0.0)) == 32

    def test_self_intersections_found(self, h_model):
        curve, _ = build_immersed_loop(32, h_model, LSConfig(samples_per_loop=64))
        ok, pairs = is_simple(curve)
        assert not ok and len(pairs) >= 32

    def test_one_evaluation_at_the_accepted_radius(self, h_model, monkeypatch):
        # every fixed-point iteration evaluates the perturbed curve once and
        # the assembly once more; the accepted radius is not evaluated again
        graph = immersed._graph
        calls = []

        def counted(*args):
            calls.append(None)
            return graph(*args)

        monkeypatch.setattr(immersed, "_graph", counted)
        _, res = build_immersed_loop(64, h_model)
        assert len(calls) == sum(row[2] for row in res.trace) + 1

    def test_mirrored_family_negative_amplitude(self):
        h_neg = RadialCurvature(A=-1.0, gamma=2.0)
        curve, res = build_immersed_loop(64, h_neg)
        assert res.mirror
        assert res.converged
        assert res.residual <= 1e-6
        kappa = curvature(curve)
        r_pts = np.hypot(curve.samples[:, 0], curve.samples[:, 1])
        assert np.abs(kappa - h_neg(r_pts)).max() <= 1e-6


    def test_assembly_memory_per_sample(self, h_model):
        # the loop is read off one uniform regridding of the profile jet:
        # about 0.3 KB per assembled sample at n = 128 (8192 samples)
        tracemalloc.start()
        try:
            curve, _ = build_immersed_loop(128, h_model, LSConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 450 * curve.n


class TestLinearizedCoeffs:
    def test_small_radius_circle_limit(self):
        # oracle: symbolic evaluation of the coefficients on the pure circle
        import sympy as sp

        n_val = 8
        t, R = sp.symbols("t R", real=True)
        n = sp.Integer(n_val)
        m = n - 1
        w1, w2 = sp.Rational(1, 1) / m, n / m
        u = R * sp.exp(sp.I * w1 * t) + sp.exp(sp.I * w2 * t)
        du = sp.diff(u, t)
        d2u = sp.diff(u, t, 2)

        def dot(a, b):
            return sp.re(sp.conjugate(a) * b)

        s2 = sp.simplify(dot(du, du))
        a_sym = 1 / s2
        b_sym = -dot(du, d2u) / s2**2
        cross = sp.im(sp.conjugate(du) * d2u)
        c_sym = (
            2 * dot(du, d2u) ** 2 - 2 * dot(d2u, d2u) * s2 + 3 * cross**2
        ) / s2**3
        at_zero = {R: 0}
        a0 = float(sp.simplify(a_sym.subs(at_zero)))
        b0 = float(sp.simplify(b_sym.subs(at_zero).rewrite(sp.cos).simplify()))
        c0 = float(sp.simplify(c_sym.subs(at_zero).rewrite(sp.cos).simplify()))

        a, b, c = linearized_coeffs(AnsatzParams(n=n_val, R=1e-9), 128)
        assert a.mean() == pytest.approx(a0, abs=1e-6)
        assert a0 == pytest.approx((n_val - 1) ** 2 / n_val**2)
        assert np.abs(b - b0).max() < 1e-6
        assert b0 == 0.0
        assert np.abs(c - c0).max() < 1e-6

    def test_coefficient_estimates_stable(self):
        # sup|a-1| + sup|b| + sup|c-1| <= C R/n with C stable across n
        ratios = []
        for n in (32, 64, 128, 256):
            R = (1.0 * n) ** 0.25
            a, b, c = linearized_coeffs(AnsatzParams(n=n, R=R))
            total = np.abs(a - 1).max() + np.abs(b).max() + np.abs(c - 1).max()
            ratios.append(total * n / R)
        ratios = np.array(ratios)
        mid = ratios.mean()
        assert np.all(np.abs(ratios - mid) <= 0.2 * mid)
