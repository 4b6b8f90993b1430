import importlib
import inspect
import json
import math

import numpy as np
import pytest

import prescurve
from prescurve import cli
from prescurve.cli import main
from prescurve.curves import circle, read_curve, write_curve
from prescurve.fields import CurvatureField, periodic_from_callable, write_field


SWEEP_FILES = (
    "sweep.csv",
    "plot_tau_vs_SH.csv",
    "plot_tau_vs_lambda.csv",
    "plot_sqrt_tau_vs_stilde.csv",
)


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
        ("solve", '{"tau": 1, "tol_area": Infinity}', "'tol_area'"),
        ("solve", '{"tau": 1, "n_samples": 15}', "'n_samples'"),
        ("solve", '{"tau": 1, "n_samples": 8}', "'n_samples'"),
        ("solve", '{"tau": 1, "max_iter": 0}', "'max_iter'"),
        ("solve", '{"tau": 1, "tol_grad": 0}', "'tol_grad'"),
        ("solve", '{"tau": 1, "tol_residual": -1e-3}', "'tol_residual'"),
        ("sweep", '{"tau_grid": [1.0], "tol_area": 0.0}', "'tol_area'"),
        ("solve", '{"field": 5, "tau": 1}', "'field'"),
        ("sweep", '{"tau_grid": [0.5, "1"]}', "'tau_grid'"),
        ("sweep", '{"tau_grid": 1.0}', "'tau_grid'"),
        ("sweep", '{"tau_grid": [1.0], "n_samples": true}', "'n_samples'"),
        ("sweep", '{"tau_grid": [1.0], "jobs": null}', "'jobs'"),
        ("solve", '{"tau": 1, "initial_curve": "missing.json"}', "'initial_curve'"),
        ("solve", '{"tau": 1, "initial_curve": 5}', "'initial_curve'"),
        ("sweep", '{"tau_grid": [1.0], "initial_curve": ""}', "'initial_curve'"),
        ("sweep", '{"tau_grid": [1.0, 0.5], "warm_start": false, "jobs": 2}', "'tau_grid'"),
        ("sweep", '{"tau_grid": [1.0], "warm_start": "no"}', "'warm_start'"),
        ("sweep", '{"tau_grid": [1.0], "jobs": 0}', "'jobs'"),
        ("sweep", '{"tau_grid": [1.0], "jobs": -1}', "'jobs'"),
        ("solve", "[1, 2]", "cfg.json"),
        ("sweep", '"x"', "cfg.json"),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, field_zero, command, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
    if '"field"' not in text:  # a --field flag would override the config key
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, key",
    [
        ('"tol_fp": "x"', "'tol_fp'"),
        ('"tol_root": NaN', "'tol_root'"),
        ('"max_iter": 2.5', "'max_iter'"),
        ('"num_samples": null', "'num_samples'"),
        ('"samples_per_loop": true', "'samples_per_loop'"),
        ('"n_list": [32, "64"]', "'n_list'"),
        ('"n_list": 32', "'n_list'"),
        ('"r_bracket": [0.1]', "'r_bracket'"),
        ('"r_bracket": [0.1, Infinity]', "'r_bracket'"),
        ('"r_bracket": "0.1, 2"', "'r_bracket'"),
        ('"jobs": null', "'jobs'"),
        ('"jobs": 0', "'jobs'"),
        ('"jobs": -1', "'jobs'"),
        ('"n_list": [1]', "'n_list'"),
        ('"n_list": [-3]', "'n_list'"),
        ('"num_samples": 63', "'num_samples'"),
        ('"num_samples": 32', "'num_samples'"),
        ('"num_samples": 0', "'num_samples'"),
        ('"samples_per_loop": 0', "'samples_per_loop'"),
        ('"tol_fp": -1', "'tol_fp'"),
        ('"max_iter": 0', "'max_iter'"),
    ],
)
def test_malformed_immersed_config_exit_2(tmp_path, capsys, extra, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"radial_params": {"A": 1.0, "gamma": 2.0}, ' + extra + "}")
    code = main(["immersed", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("check", {"steps": None}, "'steps'"),
        ("check", {"steps": 2.5}, "'steps'"),
        ("check", {"tol": "x"}, "'tol'"),
        ("check", {"lam": None}, "'lam'"),
        ("check", {"lambda": math.nan}, "'lambda'"),
        ("cylinder", {"grid": 5}, "'grid'"),
        ("cylinder", {"grid": [64, 2.5]}, "'grid'"),
        ("cylinder", {"r_range": [2, "a"]}, "'r_range'"),
        ("cylinder", {"r_range": [0.5]}, "'r_range'"),
        ("magnetic", {"b": 1.0, "steps": "x"}, "'steps'"),
        ("magnetic", {"b": 1.0, "position": 3}, "'position'"),
        ("magnetic", {"b": 1.0, "direction": [1.0, None]}, "'direction'"),
        ("magnetic", {"b": "strong"}, "'b'"),
        ("magnetic", {"b": 1.0, "t_final": math.inf}, "'t_final'"),
        ("magnetic", {"b": 1.0, "mass": None}, "'mass'"),
        ("magnetic", {"b": 1.0, "speed": [1.0]}, "'speed'"),
        ("magnetic", {"b": 1.0, "charge": True}, "'charge'"),
        ("magnetic", {"b": 1.0, "v_parallel": math.nan}, "'v_parallel'"),
        ("magnetic", {"b_field": "FIELD", "lam": "x"}, "'lam'"),
        ("magnetic", {"b_field": "FIELD", "charge": 0}, "'charge'"),
        ("magnetic", {"b_field": "no_such_field.json"}, "'b_field'"),
        ("magnetic", {"b_field": 5}, "'b_field'"),
        ("cylinder", {"curve": 5}, "'curve'"),
        ("check", {"curve": 5}, "'curve'"),
        ("check", {"curve": "no_such_curve.json"}, "'curve'"),
    ],
)
def test_malformed_physics_config_exit_2(tmp_path, capsys, field_zero, command, doc, key):
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    doc = {k: field_zero if v == "FIELD" else v for k, v in doc.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command in ("check", "cylinder") and "curve" not in doc:
        argv += ["--curve", str(curve)]
    if command == "check":
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cylinder", "check"])
@pytest.mark.parametrize("period", [None, "x", math.inf])
def test_malformed_curve_file_exit_2(tmp_path, capsys, field_zero, command, period):
    path = tmp_path / "curve.json"
    samples = circle(1.0, n=64).samples.tolist()
    path.write_text(json.dumps({"period": period, "samples": samples}))
    argv = [command, "--curve", str(path), "--out", str(tmp_path / "out")]
    if command == "check":
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "'period'" in err
    assert "Traceback" not in err


def test_radial_params_beta_exit_2(tmp_path, capsys):
    params = {"A": 1.0, "gamma": 2.0, "beta": 0.5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radial_params": params, "n_list": [8]}))
    field = tmp_path / "field.json"
    write_field(CurvatureField.from_parts(constant=0.0), field, radial_params=params)
    for argv in (["--config", str(cfg)], ["--field", str(field)]):
        code = main(["immersed", *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "'beta'" in err
        assert "Traceback" not in err


def test_immersed_missing_field_file_exit_2(tmp_path, capsys):
    code = main(["immersed", "--field", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'field'" in err
    assert "Traceback" not in err


def test_package_namespace():
    public = {
        name
        for name, value in vars(prescurve).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {
        "RadialCurvature",
        "build_context",
        "build_immersed_loop",
        "minimize_area_constrained",
        "simulate_magnetic",
        "sweep_isoperimetric",
        "write_curve",
    }
    assert importlib.import_module("prescurve.energy") is prescurve.energy
    assert callable(prescurve.build_context)


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

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_parallel_rows_match_sequential(
        self, tmp_path, monkeypatch, field_periodic, warm_start
    ):
        pools = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        base = {"tau_grid": [0.7, 1.0, 1.4], "warm_start": warm_start}
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
            assert len(pools) == (jobs > 1)
            outs.append([(out / f).read_bytes() for f in SWEEP_FILES])
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

    def test_field_orbit_evaluates_points_with_at(self, tmp_path, field_periodic, value_calls):
        # the b_field orbit reads H one point at a time, never via value()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"b_field": field_periodic, "lam": 1.8, "t_final": 2.0, "steps": 64})
        )
        assert main(["magnetic", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert value_calls == []

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
