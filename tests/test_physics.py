import math

import numpy as np
import pytest

from prescurve.curves import (
    ClosedCurve,
    circle,
    derivative,
    length,
    reparametrize_constant_speed,
)
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

from conftest import (
    area_gradient,
    energy_gradient,
    fourier_sum,
    pair,
    random_loop,
    tabulated,
    write_off_fstrings,
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


def reference_ode_path(field_like, lam, u0, v0, lg, steps):
    """(steps + 1, 4) states of ``integrate_curvature_ode`` by the oracle,
    the curvature read through ``point_value``."""
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)

    def rhs(y):
        h = point_value(field_like, y[:2])
        return np.concatenate([y[2:], lg * (h - lam) * np.array([-y[3], y[2]])])

    return reference_rk4(rhs, np.concatenate([u0, lg * v0]), 1.0, steps)


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


def reference_off(lift) -> bytes:
    """OFF file written vertex by vertex from the (ntheta, nr, 3) grid: the
    reference for ``CylinderLift.write_off``."""
    verts = lift.vertices.reshape(-1, 3).tolist()
    faces = lift.faces().tolist()
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_matches_oracle(states, path):
    assert states.shape == path.shape
    assert np.abs(states - path).max() <= 1e-12 * max(1.0, np.abs(path).max())


@pytest.fixture(scope="module")
def periodic_setup():
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=256
    )
    ctx = build_context(CurvatureField(periodic=grid))
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

    @pytest.mark.parametrize("strength", [math.nan, lambda x, y: math.nan])
    def test_nan_drift_raises(self, strength):
        # a NaN curvature makes every state and the drift NaN
        with pytest.raises(StepTooLarge):
            integrate_curvature_ode(strength, 0.0, (1.0, 0.0), (0.0, 1.0), 1.0, steps=8)

    def test_overflowing_orbit_raises(self):
        # the stages overflow to inf and then NaN: a NaN drift must not pass
        with pytest.raises(StepTooLarge):
            simulate_magnetic(MagneticConfig(b=1e308, speed=1e10, steps=8))

    def test_position_past_the_floats_raises(self):
        # a straight line at a conserved speed: the drift stays 0 while the
        # position overflows to inf, which is not an orbit either
        with pytest.raises(StepTooLarge, match="state not finite from step 1 of 8"):
            integrate_curvature_ode(0.0, 0.0, (1e308, 0.0), (1.0, 0.0), 1e308, steps=8)
        with pytest.raises(StepTooLarge, match="state not finite"):
            simulate_magnetic(MagneticConfig(b=1.0, mass=1e308, speed=1e308, steps=8))


class TestAgainstArrayOracle:
    def test_curvature_ode_on_field(self, periodic_setup):
        ctx, _ = periodic_setup
        res = integrate_curvature_ode(ctx.field.at, 0.3, (0.2, 0.1), (0.6, 0.8), 5.0, steps=512)
        path = reference_ode_path(ctx.field, 0.3, (0.2, 0.1), (0.6, 0.8), 5.0, 512)
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

    @pytest.mark.parametrize("kind", ["constant", "callable"])
    def test_magnetic_is_the_curvature_ode(self, kind):
        # with H = -e b / (m v) and length_guess = v t_final the transverse
        # orbit is the curvature ODE's path in the time t / t_final
        cfg = MagneticConfig(
            b=1.7 if kind == "constant" else lambda x, y: 1.0 + 0.3 * math.sin(x + 2.0 * y),
            charge=-0.8, mass=1.3, speed=0.9, position=(0.3, -0.2),
            direction=(0.6, 0.8), t_final=6.0, steps=512,
        )
        ratio = -cfg.charge / (cfg.mass * cfg.speed)
        if kind == "constant":
            h = ratio * cfg.b
        else:
            def h(x, y):
                return ratio * cfg.b(x, y)

        sim = simulate_magnetic(cfg)
        ode = integrate_curvature_ode(
            h, 0.0, cfg.position, cfg.direction, cfg.speed * cfg.t_final, steps=cfg.steps
        )
        assert_matches_oracle(
            np.hstack([sim.trajectory[:, :2], cfg.t_final * sim.velocities]),
            np.hstack([ode.trajectory, ode.velocities]),
        )

    def test_field_integration_skips_value(self, periodic_setup, value_calls):
        # one-point reads go through CurvatureField.at, never the array path
        ctx, _ = periodic_setup
        integrate_curvature_ode(ctx.field.at, 0.3, (0.2, 0.1), (1.0, 0.0), 5.0, steps=128)
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

    def test_conformality_residual_of_an_ellipse(self):
        # the arclength resampling of a 3:1 ellipse is exact only to its
        # Newton tolerance, so theta's distance from arclength, 1.16e-8 here,
        # shows
        t = 2.0 * np.pi * np.arange(256) / 256
        ellipse = ClosedCurve(2.0 * np.pi, np.stack([3.0 * np.cos(t), np.sin(t)], axis=1))
        assert 1e-9 < lift_to_cylinder(ellipse).conformality_residual() < 1e-7

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

    @pytest.mark.parametrize("grid", [(5, 2), (16, 5)])
    def test_off_bytes_match_per_vertex_writer(self, tmp_path, grid):
        # a loop moved to negative coordinates, and radii on both sides of 1,
        # so that log r takes both signs
        samples = random_loop(np.random.default_rng(4), n=128) - np.array([2.0, 1.0])
        lift = lift_to_cylinder(ClosedCurve(1.0, samples), (0.3, 2.5), grid)
        z = lift.vertices[:, :, 2]
        assert (lift.points < 0).any() and (z < 0).any() and (z > 0).any()
        path = tmp_path / "mesh.off"
        lift.write_off(path)
        assert path.read_bytes() == reference_off(lift)

    @pytest.mark.parametrize("grid", [(2, 2), (256, 33), (1024, 101)])
    def test_off_bytes_match_fstring_writer(self, tmp_path, grid):
        # the faces through rows_text, in blocks of theta rows, against one
        # f-string per face; (1024, 101) has 6-digit indices
        lift = lift_to_cylinder(circle(1.3, n=128), (0.4, 3.0), grid)
        lift.write_off(tmp_path / "mesh.off")
        write_off_fstrings(lift, tmp_path / "reference.off")
        assert (tmp_path / "mesh.off").read_bytes() == (tmp_path / "reference.off").read_bytes()

    @pytest.mark.parametrize("grid", [(3, 2), (1, 4), (64, 33)])
    def test_faces_match_loop(self, grid):
        lift = lift_to_cylinder(circle(1.0, n=64), (0.5, 2.0), grid)
        np.testing.assert_array_equal(lift.faces(), reference_faces(*grid))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            lift_to_cylinder(circle(1.0, n=64), (2.0, 0.5))

    def test_circle_samples_are_the_vertices(self):
        # a constant-speed circle is its own reparametrization, and N angular
        # nodes are its sample parameters
        c = circle(1.0, n=256)
        lift = lift_to_cylinder(c, (0.5, 2.0), (256, 2))
        assert np.abs(lift.vertices[:, :, :2] - c.samples[:, None, :]).max() <= 1e-14

    def test_default_grid_matches_fourier_sum(self):
        # 256 samples folded onto the default 128 angular nodes, against the
        # explicit Fourier sum of the constant-speed samples
        curve = ClosedCurve(1.0, random_loop(np.random.default_rng(9), n=256))
        lift = lift_to_cylinder(curve)
        cs = reparametrize_constant_speed(curve)
        oracle = fourier_sum(cs.samples, cs.period, np.arange(128) / 128)
        err = np.abs(lift.vertices[:, :, :2] - oracle[:, None, :]).max()
        assert err <= 1e-12 * np.abs(cs.samples).max()


class TestVerifySolution:
    def test_exact_circle(self):
        field = CurvatureField(constant=1.0)
        rep = verify_solution(circle(1.0, n=256), field, 0.0)
        assert rep.max_residual() < 1e-8
        assert rep.ok()

    def test_perturbation_monotone(self):
        field = CurvatureField(constant=1.0)
        base = circle(1.0, n=256)
        t = 2 * np.pi * np.arange(256) / 256
        bump = np.stack([np.cos(3 * t), np.sin(5 * t)], axis=1)
        resids = []
        for eps in (1e-4, 1e-3, 1e-2):
            pert = base.samples + eps * bump
            rep = verify_solution(ClosedCurve(1.0, pert), field, 0.0)
            resids.append(rep.curvature_residual)
        assert resids[0] < resids[1] < resids[2]

    @pytest.mark.parametrize("lam", [-0.6, 0.0, 1.3])
    @pytest.mark.parametrize("period", [1.0, 2.0 * math.pi])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_gradient_norm_matches_oracle_bitwise(self, n, period, lam):
        # the report forms the constrained gradient from its one jet and
        # one lookup of H, with the oracle's operations in the oracle's order
        grid = periodic_from_callable(
            lambda x, y: 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), m=32
        )
        radial = tabulated(lambda r: 0.2 * np.exp(-(r**2)), num=257)
        field = CurvatureField(constant=0.8, periodic=grid, radial=radial)
        curve = ClosedCurve(period, random_loop(np.random.default_rng(n), n=n))
        grad = energy_gradient(curve, field) - lam * area_gradient(curve)
        want = math.sqrt(max(pair(curve, grad, grad), 0.0))
        assert verify_solution(curve, field, lam).gradient_norm == want

    def test_converged_minimizer(self, periodic_setup):
        ctx, mres = periodic_setup
        rep = verify_solution(mres.curve, ctx.field, mres.lam)
        assert rep.ok(1e-3)
