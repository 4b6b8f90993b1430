"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one line (run with -s to see them live); runtime-limited
criteria assert their own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from prescurve.curves import ClosedCurve, derivative, is_simple, length
from prescurve.energy import anisotropic_area, build_context, energy
from prescurve.fields import (
    CurvatureField,
    RadialCurvature,
    build_potential,
    lorentz_norm_21,
    periodic_from_callable,
    q_eval,
)
from prescurve.immersed import (
    AnsatzParams,
    build_immersed_loop,
    default_bracket,
    linf_invert_perp,
)
from prescurve.minimize import SHARP_ISOPERIMETRIC as S
from prescurve.minimize import (
    MinimizeOptions,
    check_multiplier_bounds,
    minimize_area_constrained,
    sweep_isoperimetric,
)
from prescurve.physics import (
    MagneticConfig,
    gyroradius,
    integrate_curvature_ode,
    simulate_magnetic,
    verify_solution,
)

from conftest import (
    _Frame,
    anisotropic_area_by_winding,
    energy_gradient,
    linearized_coeffs,
    linf_apply,
    pair,
    project_perp,
    random_loop,
    shape_derivative,
    tabulated,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, detail


def radius_profile(curve):
    pts = curve.samples
    center = pts.mean(axis=0)
    return np.hypot(*(pts - center).T)


@pytest.fixture(scope="module")
def sine_field_half():
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    return build_context(CurvatureField.from_parts(periodic=grid))


@pytest.fixture(scope="module")
def model_radial():
    return RadialCurvature(A=1.0, gamma=2.0)


def test_criterion_01_classical_isoperimetry():
    start = time.monotonic()
    ctx = build_context(CurvatureField.from_parts(constant=0.0))
    taus = np.geomspace(0.1, 10.0, 10)
    worst_ratio = 0.0
    worst_circle = 0.0
    for tau in taus:
        res = minimize_area_constrained(ctx, float(tau), MinimizeOptions(n_samples=256))
        assert res.converged
        worst_ratio = max(worst_ratio, abs(res.energy_value / math.sqrt(tau) - S))
        radii = radius_profile(res.curve)
        worst_circle = max(worst_circle, radii.max() - radii.min())
    elapsed = time.monotonic() - start
    report(
        1,
        worst_ratio <= 1e-3 and worst_circle <= 1e-4 and elapsed <= 30.0,
        f"S/sqrt(tau) dev {worst_ratio:.2e} (<=1e-3), circle dev "
        f"{worst_circle:.2e} (<=1e-4), {elapsed:.1f}s (<=30s)",
    )


def test_criterion_02_constant_curvature_circles():
    worst_radius = 0.0
    worst_lam = 0.0
    for h0 in (0.5, 1.0, 2.0):
        ctx = build_context(CurvatureField.from_parts(constant=h0))
        tau = -math.pi / h0**2  # K = +h0 circle area under the convention
        res = minimize_area_constrained(ctx, tau)
        assert res.converged
        radii = radius_profile(res.curve)
        worst_radius = max(worst_radius, abs(radii.mean() - 1.0 / h0))
        worst_lam = max(worst_lam, abs(res.lam))
    report(
        2,
        worst_radius <= 1e-3 and worst_lam <= 1e-3,
        f"radius dev {worst_radius:.2e} (<=1e-3), |lambda| {worst_lam:.2e} (<=1e-3)",
    )


def test_criterion_03_potential_bounds_and_divergence():
    rng = np.random.default_rng(42)
    m = 512
    x = np.arange(m) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    worst_div = 0.0
    bounds_ok = True
    for _ in range(5):
        grid = np.zeros((m, m))
        for _ in range(4):
            k1, k2 = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            grid += rng.uniform(-0.3, 0.3) * np.cos(
                2 * np.pi * (k1 * xx + k2 * yy) + rng.uniform(0, 2 * np.pi)
            )
        grid -= grid.mean()
        amp, width = rng.uniform(0.02, 0.1), rng.uniform(0.5, 1.5)
        rad = tabulated(lambda r, a=amp, w=width: a * np.exp(-((r / w) ** 2)))
        field = CurvatureField.from_parts(
            constant=rng.uniform(-0.5, 0.5), periodic=grid, radial=rad
        )
        assert field.admissibility()["combined_ok"]
        pot = build_potential(field)
        osc = field.periodic_oscillation()
        bounds_ok &= pot.sup_periodic() <= math.sqrt(2) / 8 * osc + 1e-8
        bounds_ok &= (
            pot.sup_radial() <= (math.pi / 2) ** 1.5 * lorentz_norm_21(rad) + 1e-6
        )
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        h = 2e-5
        div = (
            q_eval(pot, pts + [h, 0])[:, 0] - q_eval(pot, pts - [h, 0])[:, 0]
            + q_eval(pot, pts + [0, h])[:, 1] - q_eval(pot, pts - [0, h])[:, 1]
        ) / (2 * h)
        worst_div = max(worst_div, float(np.abs(div - field.value(pts)).max()))
    report(
        3,
        bounds_ok and worst_div <= 1e-6,
        f"gradient bounds {'hold' if bounds_ok else 'VIOLATED'}, "
        f"div residual {worst_div:.2e} (<=1e-6)",
    )


def test_criterion_04_winding_divergence_identity(sine_field_half):
    field = CurvatureField.from_parts(
        constant=1.0, periodic=sine_field_half.field.periodic
    )
    ctx = build_context(field)
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(3):
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(seed)))
        assert is_simple(c)[0]
        line = anisotropic_area(c, ctx)
        wind = anisotropic_area_by_winding(c, field, rows=2048)
        worst = max(worst, abs(line - wind) / abs(line))
    t = np.arange(256) / 256
    f8 = ClosedCurve(
        1.0,
        np.stack(
            [0.8 * np.sin(4 * np.pi * t) + 0.3, 1.1 * np.sin(2 * np.pi * t) + 0.2],
            axis=1,
        ),
    )
    line8 = anisotropic_area(f8, ctx)
    wind8 = anisotropic_area_by_winding(f8, field, rows=2048)
    fig8_err = abs(line8 - wind8) / max(abs(line8), 1.0)
    report(
        4,
        worst <= 1e-3 and fig8_err <= 1e-3,
        f"simple-curve rel dev {worst:.2e}, figure-eight dev {fig8_err:.2e} (<=1e-3)",
    )


def test_criterion_05_gradient_correctness(sine_field_half):
    ctx = sine_field_half
    rng = np.random.default_rng(11)
    t = np.arange(256) / 256
    worst_fd = 0.0
    worst_cross = 0.0
    for seed in range(3):
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(100 + seed)))
        g = energy_gradient(c, ctx.field)
        gnorm = math.sqrt(pair(c, g, g))
        for _ in range(20):
            phi = np.zeros((256, 2))
            for k in range(5):
                phi += rng.normal(size=(1, 2)) * np.cos(2 * np.pi * k * t)[:, None]
                phi += rng.normal(size=(1, 2)) * np.sin(2 * np.pi * k * t)[:, None]
            phi /= np.abs(phi).max()
            eps = 1e-5
            up = energy(ClosedCurve(1.0, c.samples + eps * phi), ctx)
            dn = energy(ClosedCurve(1.0, c.samples - eps * phi), ctx)
            fd = (up - dn) / (2 * eps)
            an = pair(c, g, phi)
            scale = max(abs(fd), 1e-2 * gnorm * math.sqrt(pair(c, phi, phi)))
            worst_fd = max(worst_fd, abs(fd - an) / scale)
            sd = shape_derivative(c, ctx.field, phi)
            worst_cross = max(worst_cross, abs(sd - an) / max(abs(an), 1e-2 * gnorm))
    report(
        5,
        worst_fd <= 1e-6 and worst_cross <= 1e-7,
        f"FD rel err {worst_fd:.2e} (<=1e-6), cross-formula {worst_cross:.2e} (<=1e-7)",
    )


def test_criterion_06_isoperimetric_function_theory(sine_field_half):
    start = time.monotonic()
    ctx = sine_field_half
    # 12 points spanning more than three decades, with a tight interior
    # cluster for the derivative check; the small-area anchors sit where
    # the competitor disc fits inside the field's negative well
    taus = [0.000316, 0.00316, 0.0316, 0.1, 0.316, 0.7, 0.9, 1.1, 1.35, 1.65, 2.0, 3.16]
    rows = sweep_isoperimetric(ctx, taus)
    assert all(r.converged for r in rows)

    q = ctx.potential.sup_zero_mean()
    bounds_ok = all(
        (1 - q) * S * math.sqrt(r.tau) - 1e-6
        <= r.s_h
        <= (1 + q) * S * math.sqrt(r.tau) + 1e-6
        for r in rows
    )

    # multiplier vs centered difference quotient on smooth interior rows
    slope_devs = []
    for prev, mid, nxt in zip(rows, rows[1:], rows[2:]):
        ratio = max(
            (mid.tau - prev.tau) / (nxt.tau - mid.tau),
            (nxt.tau - mid.tau) / (mid.tau - prev.tau),
        )
        left = (mid.s_h - prev.s_h) / (mid.tau - prev.tau)
        right = (nxt.s_h - mid.s_h) / (nxt.tau - mid.tau)
        smooth = ratio <= 1.6 and abs(left - right) <= 0.2 * abs(left + right) / 2
        if not smooth:
            continue  # flagged, not failed
        centered = (nxt.s_h - prev.s_h) / (nxt.tau - prev.tau)
        slope_devs.append(abs(mid.lam - centered) / abs(centered))
    slope_ok = len(slope_devs) >= 3 and max(slope_devs) <= 0.05

    by_tau = {r.tau: r for r in rows}
    anchors = [by_tau[t].stilde for t in (0.316, 0.00316, 0.000316)]
    trend_ok = abs(anchors[0] - S) > abs(anchors[1] - S) > abs(anchors[2] - S)

    mult_ok = all(
        check_multiplier_bounds(r.tau, r.lam, ctx)[0] for r in rows
    )
    elapsed = time.monotonic() - start
    report(
        6,
        bounds_ok and slope_ok and trend_ok and mult_ok and elapsed <= 300.0,
        f"energy bounds {'hold' if bounds_ok else 'VIOLATED'}; "
        f"slope dev max {max(slope_devs) if slope_devs else float('nan'):.3f} on "
        f"{len(slope_devs)} smooth rows (<=0.05); rescaled-profile trend "
        f"{'decreasing' if trend_ok else 'NOT decreasing'}; multiplier bounds "
        f"{'hold' if mult_ok else 'VIOLATED'}; {elapsed:.0f}s (<=300s)",
    )


def test_criterion_07_immersed_pipeline(model_radial):
    start = time.monotonic()
    h = model_radial
    r0, r1 = default_bracket(h)
    sups = {}
    ok = True
    details = []
    for n in (32, 64, 128, 256):
        curve, res = build_immersed_loop(n, h)
        sups[n] = float(np.abs(res.phi).max())
        gap_sup = abs(res.lambda1) + abs(res.lambda2) + res.residual
        ok &= res.iterations <= 50
        ok &= abs(res.lambda1) <= 1e-8
        h_sup = float(np.abs(h(np.hypot(*curve.samples.T))).max())
        ok &= abs(res.lambda2) <= 1e-8 * gap_sup + 4 * np.finfo(float).eps * h_sup
        ok &= res.residual <= 1e-6
        ok &= r0 < res.r < r1
        details.append(f"n={n}: it={res.iterations} l1={res.lambda1:.1e}")
    ns = np.array(sorted(sups))
    slope = float(np.polyfit(np.log(ns), np.log([sups[n] for n in ns]), 1)[0])
    slope_ok = abs(slope - (-0.5)) <= 0.15 * 0.5
    elapsed = time.monotonic() - start
    report(
        7,
        ok and slope_ok and elapsed <= 120.0,
        f"{'; '.join(details)}; slope {slope:.3f} (within 15% of -0.5); "
        f"{elapsed:.0f}s (<=120s)",
    )


def test_criterion_08_linear_solver_exactness():
    rng = np.random.default_rng(13)
    t = 2 * np.pi * np.arange(128) / 128
    worst = 0.0
    for _ in range(50):
        f = np.zeros_like(t)
        for k in range(12):
            f += rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
        f /= np.abs(f).max()
        worst = max(
            worst,
            float(np.abs(linf_apply(linf_invert_perp(f)) - project_perp(f)).max()),
        )

    # quadrature oracle for the convolution form of the inverse
    from scipy.integrate import cumulative_simpson, simpson

    t512 = 2 * np.pi * np.arange(512) / 512
    f = 0.7 * np.cos(2 * t512) - 0.4 * np.sin(3 * t512) + 0.2 * np.cos(5 * t512) + 0.9
    dense = np.linspace(0, 2 * np.pi, 16385)
    fd = 0.7 * np.cos(2 * dense) - 0.4 * np.sin(3 * dense) + 0.2 * np.cos(5 * dense) + 0.9
    big_f = cumulative_simpson(fd, x=dense, initial=0.0)
    eta = np.empty_like(t512)
    for i, ti in enumerate(t512):
        mask = dense <= ti + 1e-14
        xs = dense[mask]
        eta[i] = simpson(big_f[mask] * np.cos(ti - xs), x=xs) if len(xs) > 2 else 0.0
    proj = eta.copy()
    for w in (np.cos(t512), np.sin(t512)):
        proj -= (eta * w).sum() * (2 * np.pi / 512) / np.pi * w
    eta_err = float(np.abs(proj - linf_invert_perp(f)).max())
    report(
        8,
        worst <= 1e-12 and eta_err <= 1e-8,
        f"composition defect {worst:.2e} (<=1e-12), convolution oracle "
        f"{eta_err:.2e} (<=1e-8)",
    )


def test_criterion_09_ode_variational_consistency(sine_field_half):
    ctx = sine_field_half
    worst_rep = 0.0
    worst_closure = 0.0
    for tau in (0.8, 1.3):
        res = minimize_area_constrained(ctx, tau)
        assert res.converged
        rep = verify_solution(res.curve, ctx.field, res.lam)
        worst_rep = max(worst_rep, rep.max_residual())
        du = derivative(res.curve, 1)
        v0 = du[0] / np.hypot(*du[0])
        ode = integrate_curvature_ode(
            ctx.field.at, res.lam, res.curve.samples[0], v0, length(res.curve), steps=4096
        )
        worst_closure = max(worst_closure, ode.closure_defect)
    report(
        9,
        worst_rep <= 1e-3 and worst_closure <= 1e-3,
        f"verify residuals {worst_rep:.2e} (<=1e-3), ODE closure "
        f"{worst_closure:.2e} (<=1e-3)",
    )


def test_criterion_10_magnetic_equivalence(sine_field_half):
    rng = np.random.default_rng(21)
    worst_gyro = 0.0
    for _ in range(10):
        e = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.5, 3.0)
        v = rng.uniform(0.3, 2.0)
        cfg = MagneticConfig(
            b=b, charge=e, mass=1.0, speed=v,
            t_final=2 * math.pi / abs(e * b), steps=2048,
        )
        sim = simulate_magnetic(cfg)
        center = sim.trajectory[:-1, :2].mean(axis=0)
        measured = float(np.hypot(*(sim.trajectory[:, :2] - center).T).mean())
        worst_gyro = max(worst_gyro, abs(measured - gyroradius(cfg)) / gyroradius(cfg))

    ctx = sine_field_half
    res = minimize_area_constrained(ctx, 1.0)
    du = derivative(res.curve, 1)
    v0 = du[0] / np.hypot(*du[0])

    def b_loop(x, y):
        return -(ctx.field.at(x, y) - res.lam)

    orbit = simulate_magnetic(
        MagneticConfig(
            b=b_loop, charge=1.0, mass=1.0, speed=1.0, v_parallel=0.3,
            position=tuple(res.curve.samples[0]), direction=tuple(v0),
            t_final=length(res.curve), steps=8192,
        )
    )
    report(
        10,
        worst_gyro <= 1e-6 and orbit.closure_defect <= 1e-3,
        f"gyroradius rel dev {worst_gyro:.2e} (<=1e-6), loop-field closure "
        f"{orbit.closure_defect:.2e} (<=1e-3)",
    )


def test_criterion_11_frame_identities_and_estimates(model_radial):
    worst_identity = 0.0
    for n in (32, 128):
        R = (1.0 * n) ** 0.25
        fr = _Frame(AnsatzParams(n=n, R=R), 2 * np.pi * np.arange(512) / 512)
        u, du, d2u = fr.u, fr.du, fr.d2u
        nu, dnu, d2nu = fr.nu, fr.dnu, fr.d2nu
        s = fr.speed

        def dot(a, b):
            return (np.conj(a) * b).real

        def idot(a, b):
            return (np.conj(1j * a) * b).real

        identities = [
            idot(du, nu) - s,
            dot(du, nu),
            idot(du, dnu),
            idot(nu, d2u) + dot(du, d2u) / s,
            dot(du, dnu) + idot(du, d2u) / s,
            dot(nu, dnu),
            idot(nu, dnu) - idot(du, d2u) / s**2,
            idot(du, d2nu) - (dot(du, d2u) ** 2 / s**3 - np.abs(d2u) ** 2 / s),
        ]
        worst_identity = max(worst_identity, max(np.abs(v).max() for v in identities))

    speed_ratios, coeff_ratios = [], []
    for n in (32, 64, 128, 256):
        R = (1.0 * n) ** 0.25
        params = AnsatzParams(n=n, R=R)
        fr = _Frame(params, 2 * np.pi * np.arange(256) / 256)
        speed_ratios.append(np.abs(fr.speed - n / (n - 1)).max() * n / R)
        a, b, c = linearized_coeffs(params)
        total = np.abs(a - 1).max() + np.abs(b).max() + np.abs(c - 1).max()
        coeff_ratios.append(total * n / R)
    stable = True
    for ratios in (np.array(speed_ratios), np.array(coeff_ratios)):
        stable &= bool(np.all(np.abs(ratios - ratios.mean()) <= 0.2 * ratios.mean()))
    report(
        11,
        worst_identity <= 1e-10 and stable,
        f"frame identities {worst_identity:.2e} (<=1e-10), estimate ratios "
        f"{'stable' if stable else 'UNSTABLE'} within 20%",
    )


def test_criterion_12_simplicity_of_weak_field_minimizers():
    grid = periodic_from_callable(
        lambda x, y: 0.1 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    ctx = build_context(CurvatureField.from_parts(periodic=grid))
    all_simple = True
    for tau in (0.5, 0.875, 1.25, 1.625, 2.0):
        res = minimize_area_constrained(ctx, tau)
        assert res.converged
        all_simple &= is_simple(res.curve)[0]
        res_neg = minimize_area_constrained(ctx, -tau)
        assert res_neg.converged
        all_simple &= is_simple(res_neg.curve)[0]
    report(
        12,
        all_simple,
        "minimizers for the 0.1-amplitude field are Jordan curves on the tau grid",
    )
