import math

import numpy as np
import pytest

from prescurve.curves import ClosedCurve, circle, derivative, length
from prescurve.energy import build_context
from prescurve.errors import StepTooLarge
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve.minimize import minimize_area_constrained
from prescurve.physics import (
    MagneticConfig,
    gyroradius,
    integrate_curvature_ode,
    lift_to_cylinder,
    simulate_magnetic,
    verify_solution,
)


def reference_rk4(rhs, y0, t_final, steps):
    """Array-state RK4: the reference the four-float stepper is held to."""
    dt = t_final / steps
    out = np.empty((steps + 1, len(y0)))
    out[0] = y0
    y = y0
    for i in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def point_value(field_like, pos) -> float:
    """The oracles' one-point read: a field through its array path
    ``value`` on a (1, 2) array, a callable at (x, y), else a constant."""
    if hasattr(field_like, "value"):
        return float(field_like.value(pos[None, :])[0])
    if callable(field_like):
        return float(field_like(*pos))
    return float(field_like)


def reference_ode_path(field_like, lam, u0, v0, lg, steps, refine_length=False):
    """(steps + 1, 4) states of ``integrate_curvature_ode`` by the oracle,
    the curvature read through ``point_value``."""
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)

    def make_rhs(lg):
        def rhs(y):
            h = point_value(field_like, y[:2])
            return np.concatenate([y[2:], lg * (h - lam) * np.array([-y[3], y[2]])])

        return rhs

    if refine_length:
        probe = int(1.6 * steps)
        path = reference_rk4(make_rhs(lg), np.concatenate([u0, lg * v0]), 1.6, probe)
        dist = np.hypot(path[:, 0] - u0[0], path[:, 1] - u0[1])
        k = probe // 4 + int(np.argmin(dist[probe // 4 :]))
        lg = lg * 1.6 * k / probe
    return reference_rk4(make_rhs(lg), np.concatenate([u0, lg * v0]), 1.0, steps)


def reference_magnetic_path(cfg, b):
    """(steps + 1, 4) transverse states of ``simulate_magnetic`` by the
    oracle, the field strength ``b`` read through ``point_value``."""
    direction = np.asarray(cfg.direction, dtype=float)
    direction = direction / np.hypot(*direction)
    em = cfg.charge / cfg.mass

    def rhs(y):
        return np.concatenate([y[2:], -em * point_value(b, y[:2]) * np.array([-y[3], y[2]])])

    y0 = np.concatenate([np.asarray(cfg.position, dtype=float), cfg.speed * direction])
    return reference_rk4(rhs, y0, cfg.t_final, cfg.steps)


def reference_faces(nt, nr):
    """Triangle list built by loops: the reference for ``CylinderLift.faces``."""
    quads = []
    for i in range(nt):
        i2 = (i + 1) % nt
        for j in range(nr - 1):
            a, b, c, d = i * nr + j, i2 * nr + j, i2 * nr + j + 1, i * nr + j + 1
            quads += [(a, b, c), (a, c, d)]
    return np.asarray(quads, dtype=int)


def assert_matches_oracle(states, path):
    assert states.shape == path.shape
    assert np.abs(states - path).max() <= 1e-12 * max(1.0, np.abs(path).max())


@pytest.fixture(scope="module")
def periodic_setup():
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    ctx = build_context(CurvatureField.from_parts(periodic=grid))
    res = minimize_area_constrained(ctx, 1.0)
    assert res.converged
    return ctx, res


class TestCurvatureOde:
    def test_exact_circle_closure(self):
        res = integrate_curvature_ode(1.0, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        assert res.closure_defect < 1e-8
        assert res.speed_drift < 1e-10

    def test_speed_conserved_structurally(self, periodic_setup):
        ctx, _ = periodic_setup
        res = integrate_curvature_ode(
            ctx.field.at, 0.3, (0.2, 0.1), (1.0, 0.0), 5.0, steps=4096
        )
        assert res.speed_drift < 1e-10

    def test_minimizer_initial_data_closes(self, periodic_setup):
        ctx, mres = periodic_setup
        du = derivative(mres.curve, 1)
        v0 = du[0] / np.hypot(*du[0])
        out = integrate_curvature_ode(
            ctx.field.at, mres.lam, mres.curve.samples[0], v0, length(mres.curve),
            steps=4096,
        )
        assert out.closure_defect <= 1e-3

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            integrate_curvature_ode(1.0, 0.0, (0, 0), (2.0, 0.0), 1.0)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_curvature_ode(1.0, 0.0, (0, 0), (1.0, 0.0), 1.0, steps=0)

    def test_coarse_steps_raise(self):
        with pytest.raises(StepTooLarge):
            integrate_curvature_ode(2.0, 0.0, (1.0, 0.0), (0.0, 1.0), 4 * math.pi, steps=8)

    @pytest.mark.parametrize("factor", [1.3, 0.75])
    def test_length_refinement_recovers_circle(self, factor):
        # wrong guess either way, one refinement round: the closest-return
        # rescale brings the closure defect down
        bad = integrate_curvature_ode(
            1.0, 0.0, (1.0, 0.0), (0.0, 1.0), factor * 2 * math.pi, steps=4096
        )
        fixed = integrate_curvature_ode(
            1.0, 0.0, (1.0, 0.0), (0.0, 1.0), factor * 2 * math.pi, steps=4096,
            refine_length=True,
        )
        assert fixed.closure_defect < 1e-2 * bad.closure_defect


class TestAgainstArrayOracle:
    def test_curvature_ode_on_field(self, periodic_setup):
        ctx, _ = periodic_setup
        res = integrate_curvature_ode(ctx.field.at, 0.3, (0.2, 0.1), (0.6, 0.8), 5.0, steps=512)
        path = reference_ode_path(ctx.field, 0.3, (0.2, 0.1), (0.6, 0.8), 5.0, 512)
        assert_matches_oracle(np.hstack([res.trajectory, res.velocities]), path)

    def test_curvature_ode_with_refinement(self, periodic_setup):
        ctx, mres = periodic_setup
        du = derivative(mres.curve, 1)
        v0 = du[0] / np.hypot(*du[0])
        lg = 1.3 * length(mres.curve)
        u0 = mres.curve.samples[0]
        res = integrate_curvature_ode(
            ctx.field.at, mres.lam, u0, v0, lg, steps=512, refine_length=True
        )
        path = reference_ode_path(ctx.field, mres.lam, u0, v0, lg, 512, refine_length=True)
        assert_matches_oracle(np.hstack([res.trajectory, res.velocities]), path)

    @pytest.mark.parametrize(
        "field_like",
        [1.5, lambda x, y: 1.0 + 0.2 * math.sin(x) * math.cos(y)],
        ids=["constant", "callable"],
    )
    def test_curvature_ode_constant_and_callable(self, field_like):
        res = integrate_curvature_ode(field_like, 0.1, (1.0, -0.5), (0.0, 1.0), 4.0, steps=256)
        path = reference_ode_path(field_like, 0.1, (1.0, -0.5), (0.0, 1.0), 4.0, 256)
        assert_matches_oracle(np.hstack([res.trajectory, res.velocities]), path)

    @pytest.mark.parametrize("kind", ["constant", "callable", "field"])
    def test_magnetic(self, periodic_setup, kind):
        ctx, _ = periodic_setup
        b = {
            "constant": 1.7,
            "callable": lambda x, y: 1.0 + 0.3 * math.sin(x + 2.0 * y),
            "field": ctx.field,
        }[kind]
        cfg = MagneticConfig(
            b=getattr(b, "at", b), charge=-0.8, mass=1.3, speed=0.9,
            position=(0.3, -0.2), direction=(1.0, 2.0), t_final=6.0, steps=512,
        )
        sim = simulate_magnetic(cfg)
        path = reference_magnetic_path(cfg, b)
        assert_matches_oracle(np.hstack([sim.trajectory[:, :2], sim.velocities]), path)

    def test_field_integration_skips_value(self, periodic_setup, value_calls):
        # one-point reads go through CurvatureField.at, never the array path
        ctx, _ = periodic_setup
        integrate_curvature_ode(
            ctx.field.at, 0.3, (0.2, 0.1), (1.0, 0.0), 5.0, steps=128, refine_length=True
        )
        simulate_magnetic(MagneticConfig(b=ctx.field.at, t_final=2.0, steps=128))
        assert value_calls == []
        ctx.field.value(np.zeros((3, 2)))
        assert value_calls == [(3, 2)]


class TestMagnetic:
    def test_gyroradius_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            e = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(0.5, 3.0)
            v = rng.uniform(0.3, 2.0)
            period = 2 * math.pi / abs(e * b)
            cfg = MagneticConfig(
                b=b, charge=e, mass=1.0, speed=v, t_final=period, steps=2048
            )
            sim = simulate_magnetic(cfg)
            center = sim.trajectory[:-1, :2].mean(axis=0)
            measured = np.hypot(*(sim.trajectory[:, :2] - center).T).mean()
            assert measured == pytest.approx(gyroradius(cfg), rel=1e-6)

    def test_zero_field_straight_line(self):
        cfg = MagneticConfig(b=0.0, speed=1.0, v_parallel=0.0, t_final=2.0, steps=64)
        sim = simulate_magnetic(cfg)
        assert np.abs(sim.trajectory[:, 1]).max() < 1e-12
        assert sim.trajectory[-1, 0] == pytest.approx(2.0)

    def test_axial_motion_linear(self):
        cfg = MagneticConfig(b=1.0, v_parallel=0.7, t_final=3.0, steps=512)
        sim = simulate_magnetic(cfg)
        assert np.abs(sim.trajectory[:, 2] - 0.7 * sim.times).max() < 1e-12

    def test_field_from_loop_closes(self, periodic_setup):
        ctx, mres = periodic_setup
        du = derivative(mres.curve, 1)
        v0 = du[0] / np.hypot(*du[0])

        def b(x, y):
            return -(ctx.field.at(x, y) - mres.lam)

        cfg = MagneticConfig(
            b=b, charge=1.0, mass=1.0, speed=1.0, v_parallel=0.2,
            position=tuple(mres.curve.samples[0]), direction=tuple(v0),
            t_final=length(mres.curve), steps=8192,
        )
        sim = simulate_magnetic(cfg)
        assert sim.closure_defect <= 1e-3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MagneticConfig(b=1.0, mass=-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"steps": 0}, {"direction": (0.0, 0.0)}], ids=["steps", "direction"]
    )
    def test_degenerate_config(self, kwargs):
        with pytest.raises(ValueError):
            MagneticConfig(b=1.0, **kwargs)


class TestCylinderLift:
    def test_unit_circle_cylinder(self):
        lift = lift_to_cylinder(circle(1.0, n=256), (0.5, 2.0), (64, 17))
        v = lift.vertices
        radii = np.hypot(v[:, :, 0], v[:, :, 1])
        assert np.abs(radii - 1.0).max() < 1e-9
        assert v[:, :, 2].min() == pytest.approx(math.log(0.5))
        assert v[:, :, 2].max() == pytest.approx(math.log(2.0))

    def test_conformality(self, periodic_setup):
        _, mres = periodic_setup
        lift = lift_to_cylinder(mres.curve, (0.5, 2.0), (128, 17))
        assert lift.conformality_residual() <= 1e-8

    def test_mean_curvature_half(self):
        # finite-difference fundamental forms on the lifted unit cylinder
        lift = lift_to_cylinder(circle(1.0, n=256), (0.8, 1.25), (256, 65))
        v = lift.vertices
        dth = lift.theta[1] - lift.theta[0]
        ut = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * dth)
        utt = (np.roll(v, -1, axis=0) - 2 * v + np.roll(v, 1, axis=0)) / dth**2
        dr = np.gradient(lift.r)
        ur = np.gradient(v, axis=1) / dr[None, :, None]
        urr = np.gradient(ur, axis=1) / dr[None, :, None]
        utr = (np.roll(ur, -1, axis=0) - np.roll(ur, 1, axis=0)) / (2 * dth)
        e = np.einsum("ijk,ijk->ij", ut, ut)
        f = np.einsum("ijk,ijk->ij", ut, ur)
        g = np.einsum("ijk,ijk->ij", ur, ur)
        nrm = np.cross(ur, ut)
        nrm /= np.linalg.norm(nrm, axis=2, keepdims=True)
        ll = np.einsum("ijk,ijk->ij", utt, nrm)
        mm = np.einsum("ijk,ijk->ij", utr, nrm)
        nn = np.einsum("ijk,ijk->ij", urr, nrm)
        mean_curv = (g * ll - 2 * f * mm + e * nn) / (e * g - f**2) / 2
        interior = mean_curv[:, 5:-5]
        assert np.abs(interior - 0.5).max() < 1e-3

    def test_faces_and_off_export(self, tmp_path):
        lift = lift_to_cylinder(circle(1.0, n=256), (0.5, 2.0), (16, 5))
        faces = lift.faces()
        assert faces.shape == (16 * 4 * 2, 3)
        path = tmp_path / "mesh.off"
        lift.write_off(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == f"{16 * 5} {len(faces)} 0"
        assert len(lines) == 2 + 16 * 5 + len(faces)
        verts = np.array([[float(tok) for tok in line.split()] for line in lines[2:82]])
        np.testing.assert_array_equal(verts, lift.vertices.reshape(-1, 3))
        tris = np.array([[int(tok) for tok in line.split()] for line in lines[82:]])
        assert (tris[:, 0] == 3).all()
        np.testing.assert_array_equal(tris[:, 1:], faces)
        assert faces.min() >= 0 and faces.max() < 16 * 5
        np.testing.assert_array_equal(faces, reference_faces(16, 5))

    @pytest.mark.parametrize("grid", [(3, 2), (1, 4), (64, 33)])
    def test_faces_match_loop(self, grid):
        lift = lift_to_cylinder(circle(1.0, n=64), (0.5, 2.0), grid)
        np.testing.assert_array_equal(lift.faces(), reference_faces(*grid))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            lift_to_cylinder(circle(1.0, n=64), (2.0, 0.5))


class TestVerifySolution:
    def test_exact_circle(self):
        ctx = build_context(CurvatureField.from_parts(constant=1.0))
        rep = verify_solution(circle(1.0, n=256), ctx, 0.0)
        assert rep.max_residual() < 1e-8
        assert rep.ok()

    def test_perturbation_monotone(self):
        ctx = build_context(CurvatureField.from_parts(constant=1.0))
        base = circle(1.0, n=256)
        t = 2 * np.pi * np.arange(256) / 256
        bump = np.stack([np.cos(3 * t), np.sin(5 * t)], axis=1)
        resids = []
        for eps in (1e-4, 1e-3, 1e-2):
            pert = base.samples + eps * bump
            rep = verify_solution(ClosedCurve(1.0, pert), ctx, 0.0)
            resids.append(rep.curvature_residual)
        assert resids[0] < resids[1] < resids[2]

    def test_converged_minimizer(self, periodic_setup):
        ctx, mres = periodic_setup
        rep = verify_solution(mres.curve, ctx, mres.lam)
        assert rep.ok(1e-3)
