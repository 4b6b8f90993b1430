import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from prescurve import curves
from prescurve.curves import (
    ClosedCurve,
    _arcs_interleave,
    circle,
    curve_reverse,
    derivative,
    is_simple,
    length,
    read_curve,
    reparametrize_constant_speed,
    signed_area,
    trig_resample,
    write_curve,
)
from prescurve.errors import DegenerateSpeed
from prescurve.immersed import AnsatzParams

from conftest import (
    PointOnCurve,
    _Frame,
    curvature,
    dirichlet,
    fourier_sum,
    random_loop,
    reparametrize_rebuilt,
    winding_number,
)


def curve_translate(curve, offset):
    return ClosedCurve(
        period=curve.period, samples=curve.samples + np.asarray(offset, dtype=float)
    )


def unit_circle(n=256):
    return circle(1.0, n=n, period=1.0, orientation=1)


def figure_eight(n=256):
    t = np.arange(n) / n
    return ClosedCurve(1.0, np.stack([np.sin(4 * np.pi * t), np.sin(2 * np.pi * t)], axis=1))


class TestDerivative:
    def test_single_mode_exact(self):
        c = unit_circle()
        t = c.params
        exact = 2 * np.pi * np.stack([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
        assert np.abs(derivative(c, 1) - exact).max() < 1e-12

    def test_constant_curve_zero(self):
        samples = np.tile([0.3, -0.7], (64, 1))
        c = ClosedCurve(1.0, samples)
        for order in (1, 2, 3):
            assert np.abs(derivative(c, order)).max() == 0.0

    def test_two_mode_second_derivative(self):
        t = np.arange(256) / 256
        c = ClosedCurve(1.0, np.stack([np.cos(4 * np.pi * t), np.sin(2 * np.pi * t)], axis=1))
        exact = np.stack(
            [-16 * np.pi**2 * np.cos(4 * np.pi * t), -4 * np.pi**2 * np.sin(2 * np.pi * t)],
            axis=1,
        )
        assert np.abs(derivative(c, 2) - exact).max() < 1e-9

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(unit_circle(), 4)

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_symbol_table(self, n):
        # the shared derivative symbols are (2 pi i k)^o at period 1 and
        # (i k)^o at period 2 pi, exactly, one column per order, and every
        # table is read-only, since all callers share it
        k = np.arange(n // 2 + 1, dtype=float)
        for period, base in ((1.0, 2j * np.pi * k), (2 * np.pi, 1j * k)):
            for order in (1, 2, 3):
                symbol = curves._derivative_symbol(n, period, order)
                assert not symbol.flags.writeable
                assert np.array_equal(symbol, (base**order)[:, None])
            jet = curves._derivative_symbol(n, period, 1, 2)
            assert not jet.flags.writeable
            assert np.array_equal(jet, np.stack([base, base**2], axis=1))
            with pytest.raises(ValueError):
                jet[0, 0] = 1.0

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_nyquist_mode(self, n):
        # the Nyquist mode is a pure cosine on the nodes: odd derivatives
        # vanish, the second derivative scales it by -(pi N / T)^2
        period = 2.5
        mode = np.cos(np.pi * np.arange(n))
        c = ClosedCurve(period, np.stack([mode, -0.5 * mode], axis=1))
        for order in (1, 3):
            assert np.abs(derivative(c, order)).max() == 0.0
        exact = -((np.pi * n / period) ** 2) * c.samples
        assert np.abs(derivative(c, 2) - exact).max() <= 1e-12 * np.abs(exact).max()


class TestLength:
    def test_unit_circle(self):
        assert length(unit_circle()) == pytest.approx(2 * np.pi, abs=1e-10)

    def test_constant_curve(self):
        c = ClosedCurve(1.0, np.tile([1.0, 2.0], (64, 1)))
        assert length(c) == pytest.approx(0.0, abs=1e-14)

    def test_ellipse_against_adaptive_quadrature(self):
        # oracle: adaptive quadrature of the ellipse speed
        t = np.arange(512) / 512
        c = ClosedCurve(1.0, np.stack([2 * np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1))
        oracle, _ = quad(
            lambda s: math.hypot(2 * math.sin(s), math.cos(s)), 0.0, 2 * math.pi, limit=200
        )
        assert length(c) == pytest.approx(oracle, abs=1e-8)


class TestSignedArea:
    def test_circle_convention_recorded(self):
        # direct quadrature of (1/2) u . i u' fixes the sign pairing once:
        # the counterclockwise circle (curvature +1) has area -pi r^2.
        for r in (1.0, 2.5):
            ccw = circle(r, n=256, orientation=1)
            assert signed_area(ccw) == pytest.approx(-math.pi * r**2, rel=1e-12)
            assert curvature(ccw).mean() == pytest.approx(1.0 / r, rel=1e-10)
        cw = circle(1.5, n=256, orientation=-1)
        assert signed_area(cw) == pytest.approx(math.pi * 1.5**2, rel=1e-12)

    def test_constant_curve(self):
        c = ClosedCurve(1.0, np.tile([1.0, 2.0], (64, 1)))
        assert signed_area(c) == pytest.approx(0.0, abs=1e-14)

    def test_figure_eight_cancels(self):
        assert signed_area(figure_eight()) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(-5, 5))
    def test_translation_invariance(self, seed, cx, cy):
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        shifted = curve_translate(c, (cx, cy))
        assert abs(signed_area(shifted) - signed_area(c)) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    def test_scaling_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        doubled = ClosedCurve(1.0, 2.0 * c.samples)
        assert signed_area(doubled) == pytest.approx(4.0 * signed_area(c), rel=1e-12)


class TestCurvature:
    def test_ellipse_closed_form(self):
        # oracle: curvature a b / (a^2 sin^2 + b^2 cos^2)^(3/2)
        a, b = 2.0, 1.0
        t = np.arange(256) / 256
        c = ClosedCurve(1.0, np.stack([a * np.cos(2 * np.pi * t), b * np.sin(2 * np.pi * t)], axis=1))
        s = 2 * np.pi * t
        expected = a * b / (a**2 * np.sin(s) ** 2 + b**2 * np.cos(s) ** 2) ** 1.5
        assert np.abs(curvature(c) - expected).max() < 1e-9
        assert curvature(c)[0] == pytest.approx(2.0, rel=1e-10)

    def test_degenerate_raises(self):
        c = ClosedCurve(1.0, np.tile([1.0, 2.0], (64, 1)))
        with pytest.raises(DegenerateSpeed):
            curvature(c)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowed_speed_named(self):
        # u' of circle(1e306) overflows: the speed is reported as not
        # finite, not compared with an infinite threshold
        with pytest.raises(DegenerateSpeed, match=r"^speed is not finite at 64 of 64 samples"):
            curvature(circle(1e306, n=64))

    @pytest.mark.filterwarnings("error")
    def test_overflowed_speed_raises_without_warnings(self):
        # the speed of circle(1e306) overflows: reparametrizing it raises
        # DegenerateSpeed, and its length is infinite, with no numpy warning
        big = circle(1e306, n=64)
        with pytest.raises(DegenerateSpeed, match=r"^speed is not finite at 64 of 64"):
            reparametrize_constant_speed(big)
        assert not math.isfinite(length(big))

    def test_parametrization_invariance(self):
        # the same circle traversed over a different period has the same curvature
        fast = circle(1.0, n=256, period=0.5)
        slow = circle(1.0, n=256, period=3.0)
        assert np.abs(curvature(fast) - curvature(slow)).max() < 1e-8


class TestDirichlet:
    def test_constant_speed_circle(self):
        assert dirichlet(unit_circle()) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_constant_curve(self):
        assert dirichlet(ClosedCurve(1.0, np.tile([0.0, 0.0], (64, 1)))) == 0.0

    def test_warped_exceeds_length_and_matches_quadrature(self):
        t = np.arange(512) / 512
        warp = t + 0.1 * np.sin(2 * np.pi * t) / (2 * np.pi)
        c = ClosedCurve(1.0, np.stack([np.cos(2 * np.pi * warp), np.sin(2 * np.pi * warp)], axis=1))
        oracle, _ = quad(
            lambda s: (2 * np.pi * (1 + 0.1 * np.cos(2 * np.pi * s))) ** 2, 0.0, 1.0, limit=200
        )
        assert dirichlet(c) == pytest.approx(math.sqrt(oracle), rel=1e-10)
        assert dirichlet(c) > length(c)

    @given(st.integers(0, 2**32 - 1))
    @example(17621)
    @example(13493149)
    def test_dominates_length(self, seed):
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        assert dirichlet(c) >= length(c) * (1 - 1e-12)
        cs = reparametrize_constant_speed(c)
        assert dirichlet(cs) >= length(cs) * (1 - 1e-12)
        # 256 samples cannot carry the constant-speed curve of a loop whose
        # speed ratio is 5-7 (D/L - 1 up to 7e-8 at the seeds above); the
        # same loop refined exactly to 1024 samples can
        fine = ClosedCurve(1.0, trig_resample(c.samples, 1.0, nodes=1024))
        cs = reparametrize_constant_speed(fine)
        assert dirichlet(cs) == pytest.approx(length(cs), rel=1e-8)


class TestWindingNumber:
    def test_circle_inside_outside(self):
        c = unit_circle()
        assert winding_number(c, (0.0, 0.0)) == 1
        assert winding_number(circle(1.0, n=256, orientation=-1), (0.0, 0.0)) == -1
        assert winding_number(c, (3.0, 0.0)) == 0

    def test_double_circle(self):
        t = np.arange(256) / 256
        c = ClosedCurve(1.0, np.stack([np.cos(4 * np.pi * t), np.sin(4 * np.pi * t)], axis=1))
        assert winding_number(c, (0.0, 0.0)) == 2

    def test_point_on_curve(self):
        with pytest.raises(PointOnCurve):
            winding_number(unit_circle(), (1.0, 0.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_against_angle_accumulation(self, seed):
        # oracle: total turning of u - p by accumulated angle increments
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        p = rng.normal(scale=1.2, size=2)
        v = c.samples - p
        dist = np.hypot(v[:, 0], v[:, 1])
        if dist.min() < 1e-3:
            return
        ang = np.arctan2(v[:, 1], v[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + np.pi) % (2 * np.pi) - np.pi
        oracle = round(dang.sum() / (2 * np.pi))
        assert winding_number(c, p) == oracle


class TestReparametrize:
    def test_constant_speed_circle_unchanged(self):
        c = unit_circle()
        r = reparametrize_constant_speed(c)
        assert np.abs(r.samples - c.samples).max() < 1e-10

    def test_ellipse_speed_variation(self):
        t = np.arange(256) / 256
        c = ClosedCurve(1.0, np.stack([2 * np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1))
        r = reparametrize_constant_speed(c)
        du = derivative(r, 1)
        speed = np.hypot(du[:, 0], du[:, 1])
        assert (speed.max() - speed.min()) / speed.mean() < 1e-6
        assert length(r) == pytest.approx(length(c), rel=1e-8)
        assert signed_area(r) == pytest.approx(signed_area(c), rel=1e-8)

    def test_warped_circle_against_analytic_inverse(self):
        # oracle: the warp s -> s + eps sin(2 pi s) has arclength proportional
        # to the unwarped angle, so constant-speed sampling must land on the
        # uniform circle samples exactly.
        n = 256
        t = np.arange(n) / n
        eps = 0.08
        warp = t + eps * np.sin(2 * np.pi * t) / (2 * np.pi)
        c = ClosedCurve(1.0, np.stack([np.cos(2 * np.pi * warp), np.sin(2 * np.pi * warp)], axis=1))
        r = reparametrize_constant_speed(c)
        expected = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        assert np.abs(r.samples - expected).max() < 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpeed):
            reparametrize_constant_speed(ClosedCurve(1.0, np.tile([1.0, 0.0], (64, 1))))

    def test_memory_per_sample(self):
        # the one 16N table of arclength, speed and curve keeps the peak
        # O(N) with a small constant: about 1.3 KB per sample
        n = 4096
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(3), n=n))
        tracemalloc.start()
        try:
            reparametrize_constant_speed(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2000 * n

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @given(st.integers(0, 2**32 - 1))
    @example(17621)
    @example(13493149)
    @settings(max_examples=8)
    def test_matches_rebuilt_table_oracle(self, n, seed):
        # one table and a Newton loop that stops once converged give the
        # curve that six steps on tables rebuilt each step give
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(seed), n=n))
        got = reparametrize_constant_speed(c).samples
        want = reparametrize_rebuilt(c).samples
        assert np.abs(got - want).max() <= 1e-13 * c.diameter()

    @staticmethod
    def _read_offs(monkeypatch, curve) -> int:
        """Newton read-offs of one call: every table read-off but the last,
        which reads the new samples."""
        calls = []
        read_off = curves._read_off

        def counting(table, period, t):
            calls.append(len(t))
            return read_off(table, period, t)

        monkeypatch.setattr(curves, "_read_off", counting)
        reparametrize_constant_speed(curve)
        return len(calls) - 1

    def test_constant_speed_takes_one_newton_step(self, monkeypatch):
        assert self._read_offs(monkeypatch, circle(1.0, n=1024)) == 1

    def test_uneven_speed_newton_steps(self, monkeypatch):
        # speed ratio 6.8: the linear initial guess off the 16N table is
        # close enough that two steps meet NEWTON_TOL
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(13493149)))
        du = derivative(c, 1)
        speed = np.hypot(du[:, 0], du[:, 1])
        assert speed.max() / speed.min() > 6.5
        assert self._read_offs(monkeypatch, c) <= 3

    def test_newton_cap(self, monkeypatch):
        monkeypatch.setattr(curves, "NEWTON_TOL", 0.0)
        c = ClosedCurve(1.0, random_loop(np.random.default_rng(13493149)))
        assert self._read_offs(monkeypatch, c) == 6


class TestIsSimple:
    def test_circle_simple(self):
        ok, pairs = is_simple(unit_circle())
        assert ok and pairs == []

    def test_figure_eight_crossing(self):
        ok, pairs = is_simple(figure_eight())
        assert not ok
        assert len(pairs) == 1
        t1, t2 = pairs[0]
        assert t1 == pytest.approx(0.0, abs=0.02)
        assert t2 == pytest.approx(0.5, abs=0.02)

    def test_ansatz_loop_not_simple(self):
        # oracle: independent quadratic-loop segment-pair test
        t = 2 * np.pi * 5 * np.arange(320) / 320
        fr = _Frame(AnsatzParams(n=5, R=2.0), t, rescaled=False)
        c = ClosedCurve(2 * np.pi * 5, np.stack([fr.u.real, fr.u.imag], axis=1))
        ok, pairs = is_simple(c)
        assert not ok and len(pairs) > 0

        def det(p, q):
            return p[0] * q[1] - p[1] * q[0]

        def brute_crossings(pts):
            n = len(pts)
            count = 0
            for i in range(n):
                a1, a2 = pts[i], pts[(i + 1) % n]
                for j in range(i + 2, n):
                    if i == 0 and j == n - 1:
                        continue
                    b1, b2 = pts[j], pts[(j + 1) % n]
                    d1 = det(a2 - a1, b1 - a1)
                    d2 = det(a2 - a1, b2 - a1)
                    d3 = det(b2 - b1, a1 - b1)
                    d4 = det(b2 - b1, a2 - b1)
                    if d1 * d2 < 0 and d3 * d4 < 0:
                        count += 1
            return count

        assert brute_crossings(c.samples) == len(pairs)


def brute_is_simple(curve):
    """Reference ``is_simple``: both tests on every non-adjacent segment pair."""
    pts = curve.samples
    n = curve.n
    a = pts
    b = np.roll(pts, -1, axis=0)
    tol = 1e-10 * max(curve.diameter(), 1e-300)
    dt = curve.period / n
    pairs = []

    idx_i, idx_j = np.triu_indices(n, k=2)
    keep = ~((idx_i == 0) & (idx_j == n - 1))
    idx_i, idx_j = idx_i[keep], idx_j[keep]

    p, r = a[idx_i], b[idx_i] - a[idx_i]
    q, s = a[idx_j], b[idx_j] - a[idx_j]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = q - p
    t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    u_num = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]

    scale_r = np.hypot(r[:, 0], r[:, 1])
    scale_s = np.hypot(s[:, 0], s[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        tpar = t_num / denom
        upar = u_num / denom
    eps_t = tol / np.where(scale_r > 0, scale_r, 1.0)
    eps_u = tol / np.where(scale_s > 0, scale_s, 1.0)
    transverse = (
        (np.abs(denom) > tol * np.maximum(scale_r, scale_s))
        & (tpar > eps_t)
        & (tpar < 1.0 - eps_t)
        & (upar > eps_u)
        & (upar < 1.0 - eps_u)
    )
    for h in np.nonzero(transverse)[0]:
        pairs.append(
            (float((idx_i[h] + tpar[h]) * dt), float((idx_j[h] + upar[h]) * dt))
        )

    d2 = np.sum((pts[idx_i] - pts[idx_j]) ** 2, axis=1)
    contact = (d2 <= tol**2) & (idx_j - idx_i > 1) & (idx_j - idx_i < n - 1)
    for h in np.nonzero(contact)[0]:
        i, j = int(idx_i[h]), int(idx_j[h])
        r1 = pts[(i - 1) % n] - pts[i]
        r2 = pts[(i + 1) % n] - pts[i]
        r3 = pts[(j - 1) % n] - pts[j]
        r4 = pts[(j + 1) % n] - pts[j]
        if min(map(np.linalg.norm, (r1, r2, r3, r4))) <= tol:
            continue
        if _arcs_interleave(r1, r2, r3, r4):
            pairs.append((float(i * dt), float(j * dt)))

    return len(pairs) == 0, pairs


@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 128),
    st.sampled_from(["random", "lattice", "jittered", "doubled"]),
)
@settings(max_examples=150)
def test_is_simple_matches_brute_force(seed, half_n, kind):
    # lattice rounding makes coincident nodes, collinear overlapping
    # segments and crossings through nodes; jitter far below the contact
    # tolerance makes those contacts near-coincident instead of exact
    rng = np.random.default_rng(seed)
    n = 2 * half_n
    if kind == "random":
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    elif kind in ("lattice", "jittered"):
        pts = np.round(rng.uniform(-1.0, 1.0, size=(n, 2)) * rng.integers(1, 5)) / 4
        if kind == "jittered":
            pts += rng.uniform(-1e-12, 1e-12, size=(n, 2))
    else:
        # a loop run twice, shifted by a quarter of itself: it winds twice,
        # and on the lattice some of its crossings fall on nodes
        loop = random_loop(rng, n=n, modes=6)
        pts = np.round((loop[2 * np.arange(n) % n] + 0.25 * loop) * 8) / 8
    c = ClosedCurve(rng.choice([1.0, 2 * np.pi]), pts)
    assert is_simple(c) == brute_is_simple(c)


class TestIsoperimetricInequality:
    @given(st.integers(0, 2**32 - 1))
    def test_sharp_constant(self, seed):
        rng = np.random.default_rng(seed)
        c = ClosedCurve(1.0, random_loop(rng))
        s = math.sqrt(4 * math.pi)
        assert s * math.sqrt(abs(signed_area(c))) <= length(c) * (1 + 1e-6)

    def test_equality_for_circles(self):
        c = circle(1.7, n=256)
        s = math.sqrt(4 * math.pi)
        assert s * math.sqrt(abs(signed_area(c))) == pytest.approx(length(c), rel=1e-6)


class TestCurveIO:
    def test_roundtrip(self, tmp_path):
        c = ClosedCurve(2.0, random_loop(np.random.default_rng(0)))
        path = tmp_path / "curve.json"
        write_curve(c, path)
        back = read_curve(path)
        assert back.period == c.period
        assert np.array_equal(back.samples, c.samples)

    def test_text_matches_json_dump(self, tmp_path):
        # the written text is exactly what json.dump of per-sample Python
        # floats gives, awkward decimals and signed zero included
        awkward = [0.1, 1.0 / 3.0, -0.0, 1e-300, 1e17, -2.5e-8, 7.0, -1.0 / 3.0]
        samples = np.array(awkward * 4).reshape(16, 2)
        c = ClosedCurve(2.0 * np.pi * 3, samples)
        path = tmp_path / "curve.json"
        write_curve(c, path)
        old = tmp_path / "old.json"
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "period": float(c.period),
                    "samples": [[float(x), float(y)] for x, y in c.samples],
                },
                fh,
            )
            fh.write("\n")
        assert path.read_bytes() == old.read_bytes()
        assert "-0.0" in path.read_text() and "1e-300" in path.read_text()
        # and what json.dumps gives with default settings (circular check on)
        doc = {"period": float(c.period), "samples": c.samples.tolist()}
        assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            read_curve(path)


class TestValidation:
    def test_odd_samples_rejected(self):
        with pytest.raises(ValueError):
            ClosedCurve(1.0, np.zeros((17, 2)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ClosedCurve(1.0, np.zeros((8, 2)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((16, 2))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            ClosedCurve(1.0, bad)

    def test_reverse_flips_area(self):
        c = circle(1.0, n=64)
        assert signed_area(curve_reverse(c)) == pytest.approx(-signed_area(c), rel=1e-12)


def test_trig_resample_reproduces_samples():
    rng = np.random.default_rng(5)
    samples = random_loop(rng, n=128)
    c = ClosedCurve(1.0, samples)
    vals = trig_resample(samples, 1.0, c.params)
    assert np.abs(vals - samples).max() < 1e-11


@pytest.mark.parametrize("n", [15, 16, 64, 256, 1024])
def test_trig_resample_full_spectrum_off_grid(n):
    # oracle: the explicit Fourier sum of the interpolant, modes -N/2+1..N/2-1
    # plus, for even N, the Nyquist mode as a cosine; tolerance 1e-12
    # relative to the data.  Besides random targets, uniform grids of M
    # points visited in the order t = T (m j mod M) / M, as loop assembly,
    # the cylinder lift and a change of N ask for them, with M below and
    # above N.  The exact uniform-grid form ``nodes=M`` is held to the same
    # oracle, and to the gridded form at the same points, on each branch:
    # aliased (M < N), a copy (M = N) and zero-padded (M > N).
    rng = np.random.default_rng(n)
    period = 2.5
    values = rng.normal(size=(n, 2))
    grids = [
        period * (5 * np.arange(size) % size) / size for size in (n // 2 + 1, 2 * n + 1)
    ]
    t = np.concatenate([rng.uniform(-period, 2 * period, size=40)] + grids)
    oracle = fourier_sum(values, period, t)
    tol = 1e-12 * np.abs(values).max()
    assert np.abs(trig_resample(values, period, t) - oracle).max() <= tol
    assert np.abs(trig_resample(values[:, 1], period, t) - oracle[:, 1]).max() <= tol
    for m in (n // 2 + 1, n - 2, n, n + 1, 2 * n + 1, 16 * n):
        grid = period * np.arange(m) / m
        exact = trig_resample(values, period, nodes=m)
        assert np.abs(exact - fourier_sum(values, period, grid)).max() <= tol
        assert np.abs(exact - trig_resample(values, period, grid)).max() <= tol
        column = trig_resample(values[:, 0], period, nodes=m)
        assert np.abs(column - exact[:, 0]).max() <= tol


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"t": np.zeros(3), "nodes": 3}, {"nodes": 0}, {"nodes": 2.5}],
)
def test_trig_resample_needs_t_or_node_count(kwargs):
    with pytest.raises(ValueError):
        trig_resample(np.ones(16), 1.0, **kwargs)


@given(
    st.integers(16, 512),
    st.sampled_from([2, 3, 8]),
    st.integers(0, 2**32 - 1),
)
def test_trig_resample_refinement_round_trip(n, k, seed):
    # refining to k N uniform nodes and folding back to N is the identity up
    # to rounding, for odd N and for even N with its Nyquist mode
    values = np.random.default_rng(seed).normal(size=(n, 2))
    fine = trig_resample(values, 1.7, nodes=k * n)
    back = trig_resample(fine, 1.7, nodes=n)
    assert np.abs(back - values).max() <= 1e-13 * np.abs(values).max()
    same = trig_resample(values, 1.7, nodes=n)
    np.testing.assert_array_equal(same, values)
    assert not np.shares_memory(same, values)
