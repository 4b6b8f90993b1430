import ast
import concurrent.futures
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prescurve
from prescurve.cli import main
from prescurve.curves import ClosedCurve, circle, read_curve, write_curve
from prescurve.fields import CurvatureField, periodic_from_callable

from conftest import TwoFramePoint, write_field


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
        ("solve", "{not json", "cfg.json"),
        ("solve", '{"field": {"periodc_grid": [[0.0]]}, "tau": 1}', "'periodc_grid'"),
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
        # a directory passes the config's existence check, then fails to open
        code = main(argv + [flag, str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path) in err
        assert "Traceback" not in err


def _radial_params_exit_2(tmp_path, capsys, params, key):
    """``params`` as a config's and as a field file's "radial_params" both
    exit 2 naming ``key``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radial_params": params, "n_list": [8]}))
    field = tmp_path / "field.json"
    write_field(CurvatureField.from_parts(constant=0.0), field, radial_params=params)
    for argv in (["--config", str(cfg)], ["--field", str(field)]):
        code = main(["immersed", *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert "Traceback" not in err


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


# Exports that only tests call: a paper claim that ROADMAP item 3 plans to
# put in the reports.
TEST_ONLY_EXPORTS = {
    ("minimize", "check_multiplier_bounds"): "the multiplier bounds; ROADMAP item 3",
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
"""


def test_sweep_runs_without_scipy(tmp_path):
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
    (tmp_path / "cfg.json").write_text(json.dumps({"tau_grid": [0.5], "n_samples": 64}))
    src = Path(prescurve.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["sweep", "--field", "field.json", "--config", "cfg.json", "--out", "out"]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, *argv],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    assert (tmp_path / "out" / "sweep.csv").is_file()


def test_import_starts_no_pool_machinery():
    # the process pool is imported only when a command runs with jobs > 1
    src = Path(prescurve.__file__).resolve().parents[1]
    code = (
        "import sys, prescurve.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


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

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
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
            assert list(d)[-2:] == ["stop_reason", "rotation_identity"]
            assert d["stop_reason"] == "tol_root"
            # the paper's rotation identity: the integral of (H - K)(w . w')
            assert abs(d["rotation_identity"]) < 1e-8

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

    def test_magnetic_nan_drift_exit_1(self, tmp_path, capsys):
        # the orbit overflows to NaN, and a NaN speed drift fails the check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 1e308, "speed": 1e10, "steps": 8}))
        out = tmp_path / "out"
        assert main(["magnetic", "--config", str(cfg), "--out", str(out)]) == 1
        assert "speed drift nan" in capsys.readouterr().err
        assert not (out / "magnetic_report.json").exists()

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
        write_field(CurvatureField.from_parts(periodic=grid), field)
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
        write_field(CurvatureField.from_parts(periodic=grid), field)
        write_curve(circle(1e306, n=64), tmp_path / "big.json")
        argv = ["check", "--curve", str(tmp_path / "big.json"), "--field", str(field)]
        assert main([*argv, "--out", str(tmp_path / "chk")]) == 1
        err = capsys.readouterr().err
        assert "numerical failure: speed is not finite at 64 of 64 samples (e.g. inf)" in err
        assert "threshold" not in err
        assert "Traceback" not in err

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
