import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import prescurve
from prescurve.cli import _build_parser, _config_args, main
from prescurve.curves import ClosedCurve, circle, curve_reverse, read_curve, write_curve
from prescurve.fields import CurvatureField, periodic_from_callable
from prescurve.immersed import LSConfig
from prescurve.minimize import MinimizeOptions
from prescurve.physics import MagneticConfig, lift_to_cylinder

from conftest import TwoFramePoint, write_field


@pytest.fixture
def field_zero(tmp_path):
    path = tmp_path / "field0.json"
    write_field(CurvatureField(constant=0.0), path)
    return str(path)


@pytest.fixture
def field_periodic(tmp_path):
    grid = periodic_from_callable(
        lambda x, y: 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=128
    )
    path = tmp_path / "fieldp.json"
    write_field(CurvatureField(periodic=grid), path)
    return str(path)


@pytest.fixture
def field_radial(tmp_path):
    path = tmp_path / "fieldr.json"
    write_field(
        CurvatureField(constant=0.0),
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
        assert report["stop_reason"] == "tol_grad"
        assert report["lambda"] == pytest.approx(1.0, abs=1e-4)
        curve = read_curve(out / "minimizer_curve.json")
        radii = np.hypot(*(curve.samples - curve.samples.mean(axis=0)).T)
        assert radii.mean() == pytest.approx(1.0, abs=1e-6)

    def test_capped_solve_reports_stop_reason(self, tmp_path, field_periodic):
        config = tmp_path / "solve.json"
        config.write_text('{"tau": 1.0, "max_iter": 2}')
        out = tmp_path / "out"
        argv = ["solve", "--field", field_periodic, "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        report = json.loads((out / "solve_report.json").read_text())
        assert report["stop_reason"] == "max_iter"
        assert report["iterations"] == 2 and not report["converged"]

    def test_counterclockwise_start(self, tmp_path, field_zero):
        # a start that runs the other way is reversed at the start of the
        # solve: from the counterclockwise unit circle (area -pi) the solve
        # at tau = 1 is the solve from that circle reversed, bit for bit
        ccw = circle(1.0, n=128, orientation=1)
        outs = []
        for name, start in (("ccw", ccw), ("reversed", curve_reverse(ccw))):
            path = tmp_path / f"{name}.json"
            write_curve(start, path)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"tau": 1.0, "initial_curve": str(path)}))
            out = tmp_path / name
            argv = ["solve", "--field", field_zero, "--config", str(cfg), "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        report = json.loads((outs[0] / "solve_report.json").read_text())
        assert report["converged"]
        assert report["energy"] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-9)
        for name in ("minimizer_curve.json", "solve_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_field_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--field", str(tmp_path / "nope.json"), "--tau", "1"])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_zero_tau_exit_2(self, field_zero):
        code = main(["solve", "--field", field_zero, "--tau", "0"])
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "check", "magnetic"])
    def test_inadmissible_field_warns_but_runs(self, tmp_path, capsys, command):
        # oscillation 8 > 2 sqrt 2: every subcommand that reads H warns
        grid = periodic_from_callable(
            lambda x, y: 4.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), m=64
        )
        path = tmp_path / "loud.json"
        write_field(CurvatureField(periodic=grid), path)
        curve = tmp_path / "curve.json"
        write_curve(circle(1.0, n=64), curve)
        (tmp_path / "cfg.json").write_text(
            json.dumps({"b_field": str(path), "t_final": 1.0, "steps": 256})
        )
        args = {
            "solve": ["--field", str(path), "--tau", "-3.0"],
            "check": ["--field", str(path), "--curve", str(curve)],
            "magnetic": ["--config", str(tmp_path / "cfg.json")],
        }[command]
        out = tmp_path / "out"
        code = main([command, *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert "warning: periodic oscillation 8 exceeds" in err
        assert (out / f"{command}_report.json").exists()
        assert code in (0, 1)  # existence is not guaranteed out of hypothesis


@pytest.mark.parametrize(
    "text, key",
    [
        ('[{"constant": 1.0}]', "JSON object"),
        ('{"constant": NaN}', "'constant'"),
        ('{"constant": null}', "'constant'"),
        ('{"radial": [1, 2]}', "'radial'"),
        ('{"periodic_grid": [[0.0, NaN], [0.0, 0.0]]}', "periodic"),
        ('{"constant": 1.0,', "bad_field.json"),
        ('{"radial": {"r": [0, 1, 2, 3]}}', "'radial'"),
        ('{"periodic_grid": [[0.0, 1.0], [0.0]]}', "'periodic_grid'"),
        ('{"periodic_grid": [["a", 0.0], [0.0, 0.0]]}', "'periodic_grid'"),
        ('{"radial": {"r": [0, 1, 2, "x"], "h": [1, 0, 0, 0]}}', "'radial.r'"),
        ('{"radial": {"r": [0, 1, 2, 3], "h": [[1], 0, 0, 0]}}', "'radial.h'"),
        ('{"periodc_grid": [[0.0, 0.0], [0.0, 0.0]]}', "'periodc_grid'"),
        ('{"constant": 1.0, "Constant": 2.0}', "'Constant'"),
        ('{"radial": {"r": [0, 1, 2, 3], "h": [1, 0, 0, 0], "s": 1}}', "'s'"),
        ('{"constant": "1.5"}', "'constant'"),
        ('{"constant": true}', "'constant'"),
        pytest.param('{"constant": 1' + "0" * 400 + "}", "'constant'", id="huge-int"),
        ('{"radial": {"r": [-1, 0, 1, 2], "h": [1, 1, 0, 0]}}', "'radial'"),
        ('{"radial": {"r": [0, 2, 1, 3], "h": [1, 1, 0, 0]}}', "'radial'"),
        # array entries: only numbers, never a bool, a string or an int
        # beyond the floats
        ('{"periodic_grid": [[0.5, true], [-0.5, 0.0]]}', "'periodic_grid'"),
        ('{"periodic_grid": [[0.5, -0.5], ["0.5", 0.0]]}', "'periodic_grid'"),
        pytest.param(
            '{"periodic_grid": [[0.5, 1' + "0" * 400 + '], [-0.5, 0.0]]}',
            "'periodic_grid'",
            id="huge-int-grid-entry",
        ),
        ('{"radial": {"r": [0, 1, 2, "3"], "h": [1, 0, 0, 0]}}', "'radial.r'"),
        pytest.param(
            '{"radial": {"r": [0, 1, 2, 3], "h": [1, 0, 0, -1' + "0" * 400 + "]}}",
            "'radial.h'",
            id="huge-int-radial-entry",
        ),
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


# field documents that each break one key, and the key the error names;
# each carries valid "radial_params", so that a reader which skipped the
# other keys would run
_RADIAL_PARAMS = {"A": 1.0, "gamma": 2.0}
_BAD_FIELD_DOCS = {
    "typo": ({"periodc_grid": [[0.0]], "radial_params": _RADIAL_PARAMS}, "'periodc_grid'"),
    "grid": ({"periodic_grid": "garbage", "radial_params": _RADIAL_PARAMS}, "'periodic_grid'"),
    "radial_params": ({"radial_params": {"A": "x", "gamma": True, "bogus": 3}}, "'bogus'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELD_DOCS))
@pytest.mark.parametrize(
    "reader", ["solve", "sweep", "check", "magnetic", "immersed", "inline"]
)
def test_every_reader_checks_every_field_key(tmp_path, capsys, reader, case):
    # each subcommand that reads a field document, from a file or inline,
    # rejects the same documents before it writes anything
    doc, key = _BAD_FIELD_DOCS[case]
    field = tmp_path / "field.json"
    field.write_text(json.dumps(doc))
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    cfg = {
        "solve": {"tau": 1.0},
        "sweep": {"tau_grid": [1.0]},
        "check": {"curve": str(curve)},
        "magnetic": {"b_field": str(field)},
        "immersed": {"n_list": [8]},
        "inline": {"tau": 1.0, "field": doc},
    }[reader]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = [
        "solve" if reader == "inline" else reader,
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(out),
    ]
    if reader not in ("magnetic", "inline"):
        argv += ["--field", str(field)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


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
        ("solve", '{"tau": 1, "initial_curve": "missing.json"}', "'initial_curve'"),
        ("solve", '{"tau": 1, "initial_curve": 5}', "'initial_curve'"),
        ("sweep", '{"tau_grid": [1.0], "initial_curve": ""}', "'initial_curve'"),
        ("sweep", '{"tau_grid": [1.0, 0.5], "warm_start": false}', "'tau_grid'"),
        ("solve", "[1, 2]", "cfg.json"),
        ("sweep", '"x"', "cfg.json"),
        ("solve", "{not json", "cfg.json"),
        ("solve", '{"field": {"periodc_grid": [[0.0]]}, "tau": 1}', "'periodc_grid'"),
        # finite entries whose spectrum overflows, rejected with no warning
        pytest.param(
            "solve", '{"field": {"periodic_grid": [[1e308, -1e308], [-1e308, 1e308]]}, "tau": 1}',
            "'periodic_grid'", id="overflowing-spectrum",
        ),
        pytest.param("solve", '{"tau": 1' + "0" * 400 + "}", "'tau'", id="huge-tau"),
        pytest.param(
            "sweep", '{"tau_grid": [1.0], "max_iter": 1' + "0" * 400 + "}", "'max_iter'",
            id="huge-max_iter",
        ),
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
        ('"n_list": [1]', "'n_list'"),
        ('"n_list": [-3]', "'n_list'"),
        ('"num_samples": 63', "'num_samples'"),
        ('"num_samples": 32', "'num_samples'"),
        ('"num_samples": 0', "'num_samples'"),
        ('"samples_per_loop": 0', "'samples_per_loop'"),
        ('"tol_fp": -1', "'tol_fp'"),
        ('"max_iter": 0', "'max_iter'"),
        ('"n_list": [32, 32]', "'n_list'"),
        # both ends of the default bracket give R = (r n)^(1/4) > n = 2
        ('"radial_params": {"A": 100.0, "gamma": 2.0}, "n_list": [2]', "'n_list'"),
        ('"n_list": [2], "r_bracket": [0.1, 10.0]', "'r_bracket'"),
        ('"r_bracket": [0.5, 2.0]', "'r_bracket'"),  # 2^2 r0 >= A gamma / 2
        # a repeated key: the last "radial_params" is the one read
        ('"radial_params": {"A": true, "gamma": 2.0}', "'A'"),
        ('"radial_params": {"A": 1.0, "gamma": "2.0"}', "'gamma'"),
        pytest.param(
            '"radial_params": {"A": 1.0, "gamma": 2.0, "s0": 1' + "0" * 400 + "}", "'s0'",
            id="huge-s0",
        ),
        # 2^((gamma+2)/2) in the root-existence inequalities overflows, and
        # at 1e308 so does h'' at s0; s0^(gamma+2) underflows to zero
        ('"radial_params": {"A": 1.0, "gamma": 1e308}, "n_list": [32]', "'gamma'"),
        ('"radial_params": {"A": 1.0, "gamma": 3000}, "n_list": [32]', "'gamma'"),
        ('"radial_params": {"A": 1.0, "gamma": 2.0, "s0": 1e-300}, "n_list": [32]', "'s0'"),
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
        ("cylinder", {"grid": [0, 33]}, "'grid'"),
        ("cylinder", {"grid": [64, 1]}, "'grid'"),
        ("cylinder", {"r_range": [2, 1]}, "'r_range'"),
        ("magnetic", {"b": 1.0, "mass": -1}, "'mass'"),
        ("magnetic", {"b": 1.0, "speed": 0}, "'speed'"),
        ("magnetic", {"b": 1.0, "steps": 0}, "'steps'"),
        ("magnetic", {"b": 0.0}, "'b'"),
        ("magnetic", {"b": 1.0, "charge": 0}, "'charge'"),
        ("magnetic", {"b": 1.0, "t_final": 0}, "'t_final'"),
        ("check", {"steps": 0}, "'steps'"),
        ("check", {"tol": 0}, "'tol'"),
        ("check", {"tol": -1e-3}, "'tol'"),
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cylinder", "check"])
@pytest.mark.parametrize(
    "period", [None, "x", math.inf, "1", True, pytest.param(10**400, id="huge-int")]
)
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


@pytest.mark.parametrize("command", ["cylinder", "check"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"period": 1.0, "samples": [[0.0, 1.0]', "curve.json"),
        ('{"period": 1.0, "samples": [[0.0, 1.0], [0.5]]}', "'samples'"),
        ('{"period": 1.0, "samples": [[0.0, "x"], [0.5, 1.0]]}', "'samples'"),
        pytest.param(
            json.dumps({"period": 1.0, "samples": [[0.0, True]] + [[0.5, 1.0]] * 15}),
            "'samples'",
            id="true-entry",
        ),
        pytest.param(
            json.dumps({"period": 1.0, "samples": [[0.0, 10**400]] + [[0.5, 1.0]] * 15}),
            "'samples'",
            id="huge-int-entry",
        ),
        pytest.param(
            json.dumps(
                {"period": 1.0, "perod": 2, "samples": circle(1.0, n=16).samples.tolist()}
            ),
            "'perod'",
            id="unknown-key-perod",
        ),
    ],
)
def test_malformed_curve_samples_exit_2(tmp_path, capsys, field_zero, command, text, key):
    path = tmp_path / "curve.json"
    path.write_text(text)
    argv = [command, "--curve", str(path), "--out", str(tmp_path / "out")]
    if command == "check":
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cylinder", "check", "solve"])
def test_curve_file_error_names_the_file(tmp_path, capsys, field_zero, command):
    # 15 samples: the file parses, but is not a curve
    path = tmp_path / "short_curve.json"
    path.write_text(json.dumps({"period": 1.0, "samples": [[float(i), 0.0] for i in range(15)]}))
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "solve":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 1.0, "initial_curve": str(path)}))
        argv += ["--config", str(cfg), "--field", field_zero]
    else:
        argv += ["--curve", str(path)]
    if command == "check":
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot parse curve file {path}: need an even number of samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "check", "magnetic", "immersed"])
def test_field_file_error_names_the_file(tmp_path, capsys, command):
    # a grid entry that is not a number: the message names the file and the key
    path = tmp_path / "bad_field.json"
    doc = {"periodic_grid": [[0.5, True], [-0.5, 0.0]], "radial_params": {"A": 1.0, "gamma": 2.0}}
    path.write_text(json.dumps(doc))
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b_field": str(path), "tau": 1.0, "curve": str(curve)}))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "magnetic":
        argv += ["--field", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    message = f"cannot parse field file {path}: key 'periodic_grid' must be a rectangular array"
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cylinder", "check"])
@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
def test_out_not_a_directory_exit_2(tmp_path, capsys, field_zero, command, beneath):
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    out = tmp_path / "afile"
    out.write_text("kept\n")
    argv = [command, "--curve", str(curve), "--out", str(out / "sub" if beneath else out)]
    if command == "check":
        argv += ["--field", field_zero]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "'out'" in err
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"


def test_out_checked_before_the_work(tmp_path, capsys, field_zero, monkeypatch):
    # an --out that cannot be a directory fails before any solve, and the
    # file it names is kept
    def solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr("prescurve.minimize.minimize_area_constrained", solve)
    monkeypatch.setattr("prescurve.cli.minimize_area_constrained", solve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_grid": [1.0, 2.0, 3.0, 4.0], "n_samples": 4096}))
    out = tmp_path / "afile"
    out.write_text("kept\n")
    code = main(["sweep", "--field", field_zero, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'out'" in err
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("value", [5, None, ["out"]])
def test_out_not_a_path_exit_2(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radial_params": {"A": 1.0, "gamma": 2.0}, "out": value}))
    code = main(["immersed", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'out'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--config", "--field", "--curve"])
def test_unreadable_file_exit_2(tmp_path, capsys, field_zero, flag):
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    argv = ["check", "--curve", str(curve), "--field", field_zero, "--out", str(tmp_path)]
    code = main(argv + [flag, str(bad)])  # the last flag wins
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err
    assert "Traceback" not in err
    if flag == "--config":
        # a directory and a missing file: neither opens, and the error names it
        for path in (tmp_path, tmp_path / "no_such_cfg.json"):
            code = main(argv + [flag, str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert str(path) in err
            assert "Traceback" not in err


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize(
    "flag, key", [("--config", "tau"), ("--field", "periodic_grid"), ("--curve", "samples")]
)
def test_deeply_nested_file_exit_2(tmp_path, capsys, field_zero, flag, key, closed):
    # 100000 nested arrays under a key the reader looks into: past json's
    # recursion limit, whether the array is closed (then the numeric reader
    # decodes it a slice at a time) or not
    depth = 100_000
    deep = tmp_path / "deep.json"
    deep.write_text(f'{{"{key}": ' + "[" * depth + ("]" * depth + "}" if closed else ""))
    curve = tmp_path / "curve.json"
    write_curve(circle(1.0, n=64), curve)
    argv = ["check", "--curve", str(curve), "--field", field_zero, "--out", str(tmp_path)]
    code = main(argv + [flag, str(deep)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{deep} nests its JSON too deeply" in err
    assert "Traceback" not in err


def _radial_params_exit_2(tmp_path, capsys, params, key):
    """``params`` as a config's and as a field file's "radial_params" both
    exit 2 naming ``key``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radial_params": params, "n_list": [8]}))
    field = tmp_path / "field.json"
    write_field(CurvatureField(constant=0.0), field, radial_params=params)
    for argv in (["--config", str(cfg)], ["--field", str(field)]):
        code = main(["immersed", *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["solve", "sweep", "immersed", "magnetic", "cylinder", "check"]
)
@pytest.mark.parametrize("jobs", ["2", "0"])
def test_one_process_commands_take_only_jobs_1(tmp_path, capsys, command, jobs):
    # every command runs in one process and rejects any other count
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", jobs, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--jobs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-2.5", "-1e-1", "-5.3e-05", "-1E5"])
@pytest.mark.parametrize("command, flag", [("solve", "--tau"), ("check", "--lam")])
def test_negative_number_flag_values(command, flag, value):
    # repr writes a small |lambda| in exponent form, and check --lam takes
    # it as printed: a negative number in any float form is a value
    args = _build_parser().parse_args([command, flag, value])
    assert getattr(args, flag[2:]) == float(value)


def test_radial_params_beta_exit_2(tmp_path, capsys):
    _radial_params_exit_2(tmp_path, capsys, {"A": 1.0, "gamma": 2.0, "beta": 0.5}, "'beta'")


def test_radial_params_unknown_key_exit_2(tmp_path, capsys):
    _radial_params_exit_2(tmp_path, capsys, {"A": 1.0, "gamma": 2.0, "foo": 1.0}, "'foo'")


def test_immersed_missing_field_file_exit_2(tmp_path, capsys):
    code = main(["immersed", "--field", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'field'" in err
    assert "Traceback" not in err


@dataclass(frozen=True)
class _Settings:
    """A solver config with one parameter of each kind; the bool is no
    config key."""

    target: object
    flag: bool = True
    count: int = 3
    tol: float = 1e-6
    pair: tuple = (0.5, 2.0)
    shape: tuple = (8, 4)
    bracket: tuple | None = None


def _solver(data, settings=None, warm=False, scale=1.0, label="x", map=map, grid=(2, 3)):
    """A solver function whose settings are keyword parameters."""


def test_config_args_defaults():
    # parameters with no default, a None default, or a default that is not
    # a number or a tuple of numbers (a bool among them) are no config keys
    assert _config_args({}, _Settings) == {
        "count": 3, "tol": 1e-6, "pair": (0.5, 2.0), "shape": (8, 4),
    }
    assert _config_args({}, _solver) == {"scale": 1.0, "grid": (2, 3)}


def test_config_args_given_values_override():
    cfg = {
        "flag": False, "count": 5, "tol": 1, "pair": [1, 3], "shape": [16, 2],
        "target": "t", "bracket": [0.1, 1.0], "data": 1, "label": 2, "unknown": None,
    }
    args = _config_args(cfg, _Settings)
    assert args == {"count": 5, "tol": 1.0, "pair": (1.0, 3.0), "shape": (16, 2)}
    assert type(args["tol"]) is float and {type(v) for v in args["pair"]} == {float}
    assert _Settings(target=0, **args).shape == (16, 2)
    assert _config_args(cfg | {"scale": 2, "grid": [4, 5]}, _solver) == {
        "scale": 2.0, "grid": (4, 5),
    }


@pytest.mark.parametrize(
    "fn, key, value",
    [
        (_Settings, "count", None),
        (_Settings, "tol", False),
        (_Settings, "count", 2.5),
        (_Settings, "count", True),
        (_Settings, "tol", "1e-6"),
        (_Settings, "tol", None),
        (_Settings, "tol", math.inf),
        (_Settings, "pair", 0.5),
        (_Settings, "pair", [1.0]),
        (_Settings, "pair", [1.0, 2.0, 3.0]),
        (_Settings, "pair", [1.0, "2"]),
        (_Settings, "shape", [8, 4.5]),
        (_Settings, "shape", []),
        (_solver, "scale", True),
        (_solver, "scale", [1.0]),
        (_solver, "grid", (4, 5)),  # a JSON document holds lists, never tuples
    ],
)
def test_config_args_wrong_kind_names_key(fn, key, value):
    with pytest.raises(ValueError, match=f"key '{key}'"):
        _config_args({key: value}, fn)


# the signature that declares the number keys of each subcommand
CONFIG_KEY_OWNERS = {
    "solve": MinimizeOptions,
    "immersed": LSConfig,
    "magnetic": MagneticConfig,
    "cylinder": lift_to_cylinder,
}


def test_readme_config_defaults_match_signatures():
    # each default that README lists in parentheses is the signature's own
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Config keys per subcommand")[1].split("\n## ")[0]
    bullets = dict(re.findall(r"^\* `(\w+)`:(.*?)(?=^\* |\n\n)", section, re.M | re.S))
    decoder = json.JSONDecoder()
    checked = 0
    for command, owner in CONFIG_KEY_OWNERS.items():
        for key, default in _config_args({}, owner).items():
            match = re.search(rf"`{key}` \(", bullets[command])
            assert match, f"README lists no default of {command}'s '{key}'"
            listed = decoder.raw_decode(bullets[command][match.end():])[0]
            if isinstance(default, tuple):
                assert listed == list(default), (command, key)
            else:
                assert (type(listed), listed) == (type(default), default), (command, key)
            checked += 1
    assert checked == 20


# Exports that only tests call: a paper claim that ROADMAP item 2 plans to
# put in the reports.
TEST_ONLY_EXPORTS = {
    ("minimize", "check_multiplier_bounds"): "the multiplier bounds; ROADMAP item 2",
}


def _names_read(tree, skip=()) -> set:
    """The names, attributes and imported names that ``tree`` reads outside
    the nodes ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_export_has_a_caller():
    # each name in a module's __all__ is read in src/ outside its own
    # definition (the package's re-exports do not count), or in scripts/
    src = Path(prescurve.__file__).resolve().parent
    files = [*src.glob("*.py"), *(src.parents[1] / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    unused = set()
    for path in sorted(src.glob("*.py")):
        tree = trees[path]
        exports = [
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
            for name in ast.literal_eval(node.value)
        ]
        for name in exports:
            definition = {node for node in tree.body if getattr(node, "name", None) == name}
            read = set().union(
                *(
                    _names_read(t, definition if p == path else ())
                    for p, t in trees.items()
                    if p != src / "__init__.py"
                )
            )
            if name not in read:
                unused.add((path.stem, name))
    assert unused == set(TEST_ONLY_EXPORTS)


def _takes_fft(node) -> bool:
    """Whether an AST node reads ``np.fft`` or imports numpy's FFT module."""
    if isinstance(node, ast.Attribute):
        return node.attr == "fft" and getattr(node.value, "id", None) in ("np", "numpy")
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.fft") or (
            module == "numpy" and any(alias.name == "fft" for alias in node.names)
        )
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    return False


def test_fft_only_in_the_spectral_kernels():
    # every 1-D Fourier multiplier goes through curves.apply_symbol and every
    # change of grid through curves._regrid; fields keeps the 2-D transforms
    # of the periodic spline and the torus Poisson solve
    src = Path(prescurve.__file__).resolve().parent
    sites = {
        (path.stem, getattr(top, "name", None))
        for path in sorted(src.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if any(_takes_fft(node) for node in ast.walk(top))
    }
    outside = {site for site in sites if site[0] != "fields"}
    assert outside == {("curves", "apply_symbol"), ("curves", "_regrid")}


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


_NO_SCIPY_RUN = """
import sys
import prescurve.cli
code = prescurve.cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """A whole ``sweep`` run in a fresh interpreter, through
    ``_NO_SCIPY_RUN``: its completed process and its working directory."""
    tmp_path = tmp_path_factory.mktemp("sweep_run")
    # a periodic grid and a radial table reach the B-spline, the radial
    # Poisson quadrature and both cubic splines
    r = np.linspace(0.0, 3.0, 32)
    grid = periodic_from_callable(
        lambda x, y: 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), m=16
    )
    field = {
        "constant": 0.0,
        "periodic_grid": grid.tolist(),
        "radial": {"r": r.tolist(), "h": (0.1 * np.exp(-(r**2))).tolist()},
    }
    (tmp_path / "field.json").write_text(json.dumps(field))
    (tmp_path / "cfg.json").write_text(json.dumps({"tau_grid": [0.5, 0.7], "n_samples": 64}))
    src = Path(prescurve.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["sweep", "--field", "field.json", "--config", "cfg.json", "--out", "out"]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, *argv],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    return proc, tmp_path


def test_sweep_runs_without_scipy(sweep_run):
    proc, cwd = sweep_run
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == ["0", "[]"]
    assert (cwd / "out" / "sweep.csv").is_file()


def test_import_starts_no_pool_machinery(sweep_run):
    # a whole sweep, warm start included, loads no process-pool modules
    proc, _ = sweep_run
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "[]"


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

    def test_grid_changing_sign(self, tmp_path, field_zero):
        # the warm start from tau = -1 runs the other way from tau = 1: it is
        # reversed at the start of its solve, and both rows converge
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": [-1.0, 1.0]}))
        argv = ["sweep", "--field", field_zero, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [-1.0, 1.0]
        for row in rows:
            assert float(row[1]) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-6)
            assert row[6] == "true"

    def test_empty_grid_exit_2(self, tmp_path, field_zero):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_grid": []}))
        assert main(["sweep", "--field", field_zero, "--config", str(cfg)]) == 2

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
            assert list(d)[-2:] == ["stop_reason", "rotation_identity"]
            assert d["stop_reason"] == "tol_root"
            # the paper's rotation identity: the integral of (H - K)(w . w')
            assert abs(d["rotation_identity"]) < 1e-8

    def test_failing_loop_count_exit_1(self, tmp_path, capsys):
        # the loops are searched together, but the run fails as a loop over
        # n_list would: at n = 16, which has no root in the bracket, with
        # the message of n = 16 alone
        cfg = tmp_path / "cfg.json"
        errors = []
        for n_list in ([16], [64, 16], [16, 64]):
            doc = {"radial_params": {"A": 1.0, "gamma": 2.0}, "n_list": n_list}
            cfg.write_text(json.dumps(doc))
            code = main(["immersed", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("numerical failure: lambda1(")
        assert errors == [errors[0]] * 3
        assert not (tmp_path / "out" / "immersed_results.json").exists()

    def test_endpoint_walk_names_its_end_and_cause(self, tmp_path, capsys):
        # with one iteration no fixed point converges: the walk from the
        # lower end r0 = 0.225 toward r1 = 2.2 fails at all 16 radii it
        # tries, and the message names r0, the last radius tried and the
        # last solve's error
        cfg = tmp_path / "cfg.json"
        doc = {"radial_params": {"A": 1.0, "gamma": 2.0}, "n_list": [32], "max_iter": 1}
        cfg.write_text(json.dumps(doc))
        assert main(["immersed", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        r = 0.225
        for _ in range(15):
            r += 0.25 * (2.2 - r)
        assert capsys.readouterr().err == (
            "numerical failure: fixed point fails at 16 radii walked from the "
            f"bracket end 0.225 toward 2.2; at the last, r = {r:g}: fixed-point "
            "defect not below 1e-10 after 1 iterations\n"
        )

    def test_loop_order_keeps_curve_bytes(self, tmp_path):
        # each curve file is the same whichever loops share its call, in
        # whatever order
        cfg = tmp_path / "cfg.json"
        texts = []
        for n_list in ([32, 64], [64, 32]):
            doc = {"radial_params": {"A": 1.0, "gamma": 2.0}, "n_list": n_list}
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "-".join(map(str, n_list))
            assert main(["immersed", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append({n: (out / f"immersed_n{n}_curve.json").read_bytes() for n in (32, 64)})
            results = (out / "immersed_results.json").read_text()
            assert results == json.dumps(json.loads(results), indent=1) + "\n"
        assert texts[0] == texts[1]

    def test_inline_field_matches_radial_params(self, tmp_path):
        # radial_params read from an inline field object, as from the key
        texts = []
        params = {"radial_params": _RADIAL_PARAMS}
        for doc in (params, {"field": params}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**doc, "n_list": [32]}))
            out = tmp_path / str(len(texts))
            assert main(["immersed", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append([(out / name).read_bytes() for name in sorted(os.listdir(out))])
        assert texts[0] == texts[1]

    def test_field_without_radial_params_exit_2(self, tmp_path, capsys, field_zero):
        code = main(["immersed", "--field", field_zero, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "'radial_params'" in err and field_zero in err
        assert not (tmp_path / "out").exists()

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


def _orbit_frames(argv) -> tuple:
    """``main(argv)``'s exit code and the codes of the Python frames entered
    while ``physics._orbit`` runs, in order, by ``sys.setprofile``."""
    orbit = prescurve.physics._orbit.__code__
    entered = []
    depth = 0  # of the frame running now below _orbit's, 0 outside it

    def profile(frame, event, arg):
        nonlocal depth
        if event == "call":
            if depth:
                entered.append(frame.f_code)
                depth += 1
            elif frame.f_code is orbit:
                depth = 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    return code, entered


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

    def test_magnetic_inline_b_field_matches_file(self, tmp_path, field_periodic):
        # the field file's object inline in the config: the same orbit
        texts = []
        for b_field in (field_periodic, json.loads(Path(field_periodic).read_text())):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"b_field": b_field, "lam": 1.8, "t_final": 2.0}))
            out = tmp_path / str(len(texts))
            assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append((out / "trajectory.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_magnetic_nan_drift_exit_1(self, tmp_path, capsys):
        # the orbit overflows to NaN, and a NaN speed drift fails the check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 1e308, "speed": 1e10, "steps": 8}))
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 1
        assert "speed drift nan" in capsys.readouterr().err
        assert not (out / "magnetic_report.json").exists()

    def test_magnetic_overflowed_position_exit_1(self, tmp_path, capsys):
        # m v overflows, so the positions reach inf while the speed drift
        # stays 0: no report of NaN and Infinity, which are not JSON
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 1.0, "mass": 1e308, "speed": 1e308}))
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "numerical failure: state not finite" in err
        assert "Traceback" not in err
        assert not (out / "magnetic_report.json").exists()

    def test_trajectory_text_matches_repr(self, tmp_path):
        # a gyroradius of 1e-5: times and coordinates below 1e-4, which repr
        # writes with an exponent, next to positional ones
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"b": 1e5, "v_parallel": 3e3, "t_final": 6.3e-5, "steps": 256})
        )
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "trajectory.csv").read_text(encoding="utf-8")
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
        assert text == "t,x,y,z\n" + "".join(f"{t!r},{x!r},{y!r},{z!r}\n" for t, x, y, z in rows)
        values = np.abs(rows)
        assert ((values > 0) & (values < 1e-4)).sum() > 256 and (values >= 1e-4).any()
        assert "e-05" in text and "0.0,0.0,0.0,0.0" in text

    @pytest.mark.parametrize(
        "config, key",
        [
            # the sum of the positions overflows in the mean
            ({"b": 1.0, "speed": 1e306}, "gyroradius_measured"),
            # m v overflows
            ({"b": 1.0, "mass": 1e200, "speed": 1e200, "t_final": 1e-100}, "gyroradius_expected"),
            # z = v_parallel t overflows
            ({"b": 1.0, "v_parallel": 1e308, "t_final": 10.0}, "v_parallel * t_final"),
        ],
    )
    def test_magnetic_overflowed_report_exit_1(self, tmp_path, capsys, config, key):
        # no report with Infinity in it, which is not JSON, and no warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and key in err and "overflows" in err
        assert not (out / "magnetic_report.json").exists()
        assert not (out / "trajectory.csv").exists()

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

    def test_check_builds_no_potential(self, tmp_path, monkeypatch, field_periodic):
        solve_out = tmp_path / "solve"
        argv = ["solve", "--field", field_periodic, "--tau", "1.0", "--out", str(solve_out)]
        assert main(argv) == 0
        lam = json.loads((solve_out / "solve_report.json").read_text())["lambda"]
        argv = [
            "check",
            "--curve",
            str(solve_out / "minimizer_curve.json"),
            "--field",
            field_periodic,
            "--lam",
            repr(lam),
        ]
        assert main([*argv, "--out", str(tmp_path / "ref")]) == 0

        def refuse(field):
            raise AssertionError("check built a vector potential")

        monkeypatch.setattr(prescurve.energy, "build_potential", refuse)
        monkeypatch.setattr(prescurve.fields, "build_potential", refuse)
        assert main([*argv, "--out", str(tmp_path / "chk")]) == 0
        report = (tmp_path / "chk" / "check_report.json").read_bytes()
        assert report == (tmp_path / "ref" / "check_report.json").read_bytes()
        assert json.loads(report)["ok"]

    def test_check_off_the_grid_exit_1(self, tmp_path, capsys):
        # x*M overflows at every sample on a 256 grid: H reads NaN there, and
        # the check fails with a message (warnings fail the tests)
        field = tmp_path / "field256.json"
        grid = periodic_from_callable(lambda x, y: 0.5 * np.sin(2 * np.pi * x), m=256)
        write_field(CurvatureField(periodic=grid), field)
        loop = circle(1e295, center=(1e306, 0.0), n=64)
        write_curve(ClosedCurve(2 * math.pi * 1e295, loop.samples), tmp_path / "far.json")
        argv = ["check", "--curve", str(tmp_path / "far.json"), "--field", str(field)]
        assert main([*argv, "--out", str(tmp_path / "chk")]) == 1
        assert "numerical failure" in capsys.readouterr().err

    # the derivative of circle(1e306) overflows: check names it before any
    # diagnostic reads it, and numpy warns of nothing
    @pytest.mark.filterwarnings("error")
    def test_check_overflowed_speed_exit_1(self, tmp_path, capsys):
        # an infinite speed is named as such, not as a degenerate one
        field = tmp_path / "field256.json"
        grid = periodic_from_callable(lambda x, y: 0.5 * np.sin(2 * np.pi * x), m=256)
        write_field(CurvatureField(periodic=grid), field)
        write_curve(circle(1e306, n=64), tmp_path / "big.json")
        argv = ["check", "--curve", str(tmp_path / "big.json"), "--field", str(field)]
        assert main([*argv, "--out", str(tmp_path / "chk")]) == 1
        err = capsys.readouterr().err
        assert "numerical failure: speed is not finite at 64 of 64 samples (e.g. inf)" in err
        assert "threshold" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("radius, cube", [(1e-300, "0.0"), (1e300, "inf")])
    def test_check_speed_cubed_out_of_range_exit_1(self, tmp_path, capsys, radius, cube):
        # the curvature divides by speed**3, which underflows to 0 or
        # overflows here though the speed itself is a fine float
        field = tmp_path / "field1.json"
        write_field(CurvatureField(constant=1.0), field)
        write_curve(circle(radius, n=64), tmp_path / "c.json")
        argv = ["check", "--curve", str(tmp_path / "c.json"), "--field", str(field), "--lam", "0"]
        assert main([*argv, "--out", str(tmp_path / "chk")]) == 1
        err = capsys.readouterr().err
        assert f"numerical failure: speed**3 leaves the positive floats: it spans [{cube}" in err
        assert not (tmp_path / "chk" / "check_report.json").exists()

    def _orbit_outputs(self, tmp_path, field, steps=2048) -> dict:
        """check and a b_field magnetic orbit (charge 3, mass 0.7, speed 1.3)
        on the loop that solve finds: output bytes by name, and the codes
        of the Python frames entered inside ``physics._orbit`` per call."""
        solve = tmp_path / "solve"
        if not solve.exists():
            assert main(["solve", "--field", field, "--tau", "1.0", "--out", str(solve)]) == 0
        curve = str(solve / "minimizer_curve.json")
        lam = json.loads((solve / "solve_report.json").read_text())["lambda"]
        samples = read_curve(curve).samples
        out = tmp_path / f"out{steps}"
        check_cfg = tmp_path / "check.json"
        check_cfg.write_text(json.dumps({"steps": steps}))
        magnetic_cfg = tmp_path / "magnetic.json"
        magnetic_cfg.write_text(
            json.dumps(
                {
                    "b_field": field, "lam": lam, "charge": 3.0, "mass": 0.7,
                    "speed": 1.3, "position": samples[0].tolist(),
                    "direction": (samples[1] - samples[0]).tolist(),
                    "t_final": 2.0, "steps": steps,
                }
            )
        )
        frames = {}
        for command, argv in (
            ("check", ["--curve", curve, "--field", field, "--lam", repr(lam),
                       "--config", str(check_cfg)]),
            ("magnetic", ["--config", str(magnetic_cfg)]),
        ):
            code, frames[command] = _orbit_frames([command, *argv, "--out", str(out)])
            assert code == 0
        outputs = {
            name: (out / name).read_bytes() for name in ("check_report.json", "trajectory.csv")
        }
        return outputs, frames

    def test_orbit_outputs_match_two_frame_oracle(self, tmp_path, monkeypatch, field_periodic):
        outputs, _ = self._orbit_outputs(tmp_path, field_periodic)
        monkeypatch.setattr(prescurve.fields, "_SplinePoint", TwoFramePoint)
        expected, frames = self._orbit_outputs(tmp_path, field_periodic)
        assert TwoFramePoint.at.__code__ in frames["check"]  # the oracle ran
        assert outputs == expected

    def test_one_frame_per_rk4_stage(self, tmp_path, field_periodic):
        # doubling the steps adds one Python frame per added stage, the
        # field's point evaluator, and nothing under it
        _, short = self._orbit_outputs(tmp_path, field_periodic, steps=64)
        _, long = self._orbit_outputs(tmp_path, field_periodic, steps=128)
        kernel = prescurve.fields._SplinePoint.at.__code__
        for command in ("check", "magnetic"):
            assert long[command].count(kernel) == 4 * 128
            assert len(long[command]) - len(short[command]) == 4 * 64

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
