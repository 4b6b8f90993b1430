import json
import math

import numpy as np
import pytest

from prescurve.cli import main
from prescurve.curves import read_curve
from prescurve.fields import CurvatureField, periodic_from_callable, write_field


@pytest.fixture
def field_zero(tmp_path):
    path = tmp_path / "field0.json"
    write_field(CurvatureField.from_parts(constant=0.0), path)
    return str(path)


@pytest.fixture
def field_periodic(tmp_path):
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=128
    )
    path = tmp_path / "fieldp.json"
    write_field(CurvatureField.from_parts(periodic=grid), path)
    return str(path)


@pytest.fixture
def field_radial(tmp_path):
    path = tmp_path / "fieldr.json"
    write_field(
        CurvatureField.from_parts(constant=0.0),
        path,
        radial_params={"A": 1.0, "gamma": 2.0},
    )
    return str(path)


class TestSolve:
    def test_flat_circle(self, tmp_path, field_zero):
        out = tmp_path / "out"
        code = main(
            ["solve", "--field", field_zero, "--tau", str(math.pi), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["converged"]
        assert report["lambda"] == pytest.approx(1.0, abs=1e-4)
        curve = read_curve(out / "minimizer_curve.json")
        radii = np.hypot(*(curve.samples - curve.samples.mean(axis=0)).T)
        assert radii.mean() == pytest.approx(1.0, abs=1e-6)

    def test_missing_field_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--field", str(tmp_path / "nope.json"), "--tau", "1"])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_zero_tau_exit_2(self, field_zero):
        code = main(["solve", "--field", field_zero, "--tau", "0"])
        assert code == 2

    def test_inadmissible_field_warns_but_runs(self, tmp_path, capsys):
        grid = periodic_from_callable(
            lambda x, y: 4.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=64
        )
        path = tmp_path / "loud.json"
        write_field(CurvatureField.from_parts(periodic=grid), path)
        out = tmp_path / "out"
        code = main(
            ["solve", "--field", str(path), "--tau", "-3.0", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert "warning" in err
        assert (out / "solve_report.json").exists()
        assert code in (0, 1)  # existence is not guaranteed out of hypothesis


@pytest.mark.parametrize(
    "text, key",
    [
        ('[{"constant": 1.0}]', "JSON object"),
        ('{"constant": NaN}', "'constant'"),
        ('{"constant": null}', "'constant'"),
        ('{"radial": [1, 2]}', "'radial'"),
        ('{"periodic_grid": [[0.0, NaN], [0.0, 0.0]]}', "periodic"),
    ],
)
def test_malformed_field_exit_2(tmp_path, capsys, text, key):
    path = tmp_path / "bad_field.json"
    path.write_text(text)
    code = main(["solve", "--field", str(path), "--tau", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("solve", '{"tau": [1]}', "'tau'"),
        ("solve", '{"tau": NaN}', "'tau'"),
        ("solve", '{"tau": 1, "n_samples": "x"}', "'n_samples'"),
        ("solve", '{"tau": 1, "max_iter": null}', "'max_iter'"),
        ("solve", '{"tau": 1, "recenter_every": 2.5}', "'recenter_every'"),
        ("solve", '{"tau": 1, "tol_area": Infinity}', "'tol_area'"),
        ("solve", '{"tau": 1, "recenter": "yes"}', "'recenter'"),
        ("sweep", '{"tau_grid": [0.5, "1"]}', "'tau_grid'"),
        ("sweep", '{"tau_grid": 1.0}', "'tau_grid'"),
        ("sweep", '{"tau_grid": [1.0], "n_samples": true}', "'n_samples'"),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, field_zero, command, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(
        [command, "--field", field_zero, "--config", str(cfg), "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


class TestSweep:
    def test_flat_scaling_column(self, tmp_path, field_zero):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        taus = [0.2, 0.5, 1.0, 2.0]
        cfg.write_text(json.dumps({"tau_grid": taus}))
        code = main(
            ["sweep", "--field", field_zero, "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,S_H,lambda,residual,area_error,simple,converged"
        s = math.sqrt(4 * math.pi)
        for line in lines[1:]:
            vals = line.split(",")
            tau, s_h = float(vals[0]), float(vals[1])
            assert s_h / math.sqrt(tau) == pytest.approx(s, abs=1e-3)
            assert vals[6] == "true"
        stilde = (out / "plot_sqrt_tau_vs_stilde.csv").read_text().splitlines()
        assert stilde[0] == "sqrt_tau,stilde"

    def test_empty_grid_exit_2(self, tmp_path, field_zero):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": []}))
        assert main(["sweep", "--field", field_zero, "--config", str(cfg)]) == 2

    def test_parallel_rows_match_sequential(self, tmp_path, field_periodic):
        base = {"tau_grid": [0.7, 1.0, 1.4], "warm_start": False}
        outs = []
        for name, jobs in (("seq", 1), ("par", 3)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, "jobs": jobs}))
            out = tmp_path / name
            assert (
                main(
                    [
                        "sweep",
                        "--field",
                        field_periodic,
                        "--config",
                        str(cfg),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_deterministic_outputs(self, tmp_path, field_periodic):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": [0.8, 1.2], "seed": 7}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "sweep",
                        "--field",
                        field_periodic,
                        "--config",
                        str(cfg),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]


class TestImmersed:
    def test_two_loop_counts(self, tmp_path, field_radial):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [32, 64]}))
        code = main(
            [
                "immersed",
                "--field",
                field_radial,
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        docs = json.loads((out / "immersed_results.json").read_text())
        assert [d["n"] for d in docs] == [32, 64]
        for d in docs:
            assert d["residual"] <= 1e-6
            assert (out / d["curve_file"]).exists()

    def test_gamma_validation_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"radial_params": {"A": 1.0, "gamma": 0.8}, "n_list": [32]})
        )
        assert main(["immersed", "--config", str(cfg)]) == 2

    def test_missing_gamma_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radial_params": {"A": 1.0}, "n_list": [32]}))
        assert main(["immersed", "--config", str(cfg)]) == 2
        assert "'gamma'" in capsys.readouterr().err

    def test_zero_amplitude_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"radial_params": {"A": 0.0, "gamma": 2.0}, "n_list": [32]})
        )
        assert main(["immersed", "--config", str(cfg)]) == 2

    def test_parallel_jobs_match_serial(self, tmp_path, field_radial):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [32, 64]}))
        outs = []
        for name, jobs in (("ser", "1"), ("par", "2")):
            out = tmp_path / name
            code = main(
                [
                    "immersed",
                    "--field",
                    field_radial,
                    "--config",
                    str(cfg),
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append((out / "immersed_results.json").read_bytes())
        assert outs[0] == outs[1]


class TestMagneticCylinderCheck:
    def test_magnetic_trajectory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"b": 2.0, "speed": 1.0, "v_parallel": 0.5, "t_final": math.pi, "steps": 2048}
            )
        )
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 2048 + 2
        report = json.loads((out / "magnetic_report.json").read_text())
        assert report["gyroradius_measured"] == pytest.approx(
            report["gyroradius_expected"], rel=1e-6
        )

    def test_magnetic_from_field_file(self, tmp_path, field_periodic):
        # b derived from a curvature field and a multiplier shift
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "b_field": field_periodic,
                    "lam": 1.8,
                    "t_final": 2.0,
                    "steps": 2048,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "magnetic_report.json").read_text())
        assert report["speed_drift"] < 1e-8

    def test_cylinder_and_check_pipeline(self, tmp_path, field_zero):
        solve_out = tmp_path / "solve"
        assert (
            main(
                [
                    "solve",
                    "--field",
                    field_zero,
                    "--tau",
                    str(math.pi),
                    "--out",
                    str(solve_out),
                ]
            )
            == 0
        )
        curve_file = str(solve_out / "minimizer_curve.json")
        cyl_out = tmp_path / "cyl"
        assert main(["cylinder", "--curve", curve_file, "--out", str(cyl_out)]) == 0
        off = (cyl_out / "cylinder.off").read_text().splitlines()
        assert off[0] == "OFF"
        report = json.loads((cyl_out / "cylinder_report.json").read_text())
        assert report["conformality_residual"] <= 1e-8

        chk_out = tmp_path / "chk"
        code = main(
            [
                "check",
                "--curve",
                curve_file,
                "--field",
                field_zero,
                "--lam",
                "1.0",
                "--out",
                str(chk_out),
            ]
        )
        assert code == 0
        assert json.loads((chk_out / "check_report.json").read_text())["ok"]

    def test_check_corrupted_curve_exit_2(self, tmp_path, field_zero):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--curve", str(bad), "--field", field_zero]) == 2

    def test_check_wrong_multiplier_exit_1(self, tmp_path, field_zero):
        solve_out = tmp_path / "solve"
        main(["solve", "--field", field_zero, "--tau", str(math.pi), "--out", str(solve_out)])
        code = main(
            [
                "check",
                "--curve",
                str(solve_out / "minimizer_curve.json"),
                "--field",
                field_zero,
                "--lam",
                "0.0",
                "--out",
                str(tmp_path / "chk"),
            ]
        )
        assert code == 1
