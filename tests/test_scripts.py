"""Smoke runs of the demos in scripts/, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_immersed_family(tmp_path):
    out = run_script("run_immersed_family.py", "--n", 32, 64, "--out", tmp_path)
    for n in (32, 64):
        assert (tmp_path / f"immersed_n{n}.json").is_file()
    # the profile norm decays as n^(-gamma/(gamma+2)), -1/2 for gamma = 2
    slope = float(re.search(r"decay slope (\S+)", out).group(1))
    assert abs(slope - (-2.0 / (2.0 + 2.0))) <= 0.1


def test_isoperimetric_sweep(tmp_path):
    run_script("run_isoperimetric_sweep.py", "--points", 3, "--out", tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 3


def test_magnetic_helix(tmp_path):
    out = run_script("run_magnetic_helix.py", "--b", 1.5, "--out", tmp_path)
    assert (tmp_path / "helix.csv").is_file()
    measured = float(re.search(r"radius (\S+) vs", out).group(1))
    # m v / (|e| b) with unit mass, speed and charge
    assert abs(measured - 1.0 / 1.5) <= 1e-6
