"""Workload definitions: seeded inputs, the CLI calls of one pass, and gates.

A workload turns a seed into input files, then runs a fixed sequence of
``prescurve`` CLI calls on them.  Every tolerance and step count the
program reads is pinned here, so loosening a program default cannot pass
as a speed-up.  After a pass, ``gate`` reads the output files and returns
one ``(operation, ok)`` entry per operation: a sweep row, an immersed
loop, or a solve/check/magnetic/cylinder call.

The seed shifts the periodic field's phase and jitters tau and A by at
most 5%; the program only ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

GRID_M = 256
# pinned solver settings, shared by every minimization call
DESCENT = {
    "max_iter": 2000,
    "tol_grad": 1e-10,
    "tol_residual": 1e-3,
    "tol_area": 1e-8,
    "recenter": True,
    "recenter_every": 50,
    "seed": 0,
}
IMMERSED = {
    "num_samples": 512,
    "tol_fp": 1e-10,
    "tol_root": 1e-8,
    "max_iter": 200,
    "samples_per_loop": 64,
}
MAGNETIC_CLOSURE_MAX = 1e-3
MAGNETIC_DRIFT_MAX = 1e-6
JITTER = 0.05


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _periodic_grid(rng: random.Random, amplitude: float) -> list:
    """amplitude * sin 2 pi (x + a) * sin 2 pi (y + b) on the unit cell,
    with the phases a, b within 5% of a cell."""
    x = np.arange(GRID_M) / GRID_M
    a, b = _jitter(rng, 1.0) - 1.0, _jitter(rng, 1.0) - 1.0
    grid = amplitude * np.outer(
        np.sin(2.0 * np.pi * (x + a)), np.sin(2.0 * np.pi * (x + b))
    )
    return grid.tolist()


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


class Workload:
    """Base: ``prepare`` writes inputs, ``run`` makes the CLI calls."""

    name = ""
    # layers whose spans a traced pass must record
    layers: tuple = ()

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, cli, out: Path) -> None:
        raise NotImplementedError

    def gate(self, out: Path, codes: list) -> list:
        raise NotImplementedError


class SweepFine(Workload):
    """Few iterations at large N: dense reparametrization dominates."""

    name = "sweep_fine"
    layers = ("cli", "fields", "curves", "energy", "minimize")
    n_samples = 1024
    taus = (1.0, 4.0)

    def prepare(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        _write_json(
            self.inputs / "field.json",
            {"constant": 0.0, "periodic_grid": _periodic_grid(rng, 0.5)},
        )
        taus = sorted(_jitter(rng, t) for t in self.taus)
        _write_json(
            self.inputs / "sweep.json",
            {
                "tau_grid": taus,
                "n_samples": self.n_samples,
                "warm_start": True,
                **DESCENT,
            },
        )

    def run(self, cli, out: Path) -> None:
        cli(
            "sweep",
            "--field", str(self.inputs / "field.json"),
            "--config", str(self.inputs / "sweep.json"),
            "--jobs", "1",
            "--out", str(out),
        )

    def gate(self, out: Path, codes: list) -> list:
        cfg = json.loads((self.inputs / "sweep.json").read_text())
        expected = len(cfg["tau_grid"])
        path = out / "sweep.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        ops = []
        for line in rows:
            tau, _, _, residual, area_error, simple, converged = line.split(",")
            ok = (
                codes == [0]
                and converged == "true"
                and simple == "true"
                and float(residual) <= cfg["tol_residual"]
                and float(area_error) <= cfg["tol_area"]
            )
            ops.append((f"sweep tau={float(tau):.4g}", ok))
        ops += [("sweep row missing", False)] * (expected - len(ops))
        return ops


class ImmersedFamily(Workload):
    """Both mirror families; n below 32 is outside the asymptotic regime."""

    name = "immersed_family"
    layers = ("cli", "fields", "curves", "immersed")
    profiles = ((1.0, 2.0), (-1.0, 2.0), (0.5, 3.0), (-0.5, 1.5))
    n_list = (32, 64, 128)

    def prepare(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        for i, (amp, gamma) in enumerate(self.profiles):
            _write_json(
                self.inputs / f"immersed_{i}.json",
                {
                    "radial_params": {"A": _jitter(rng, amp), "gamma": gamma},
                    "n_list": list(self.n_list),
                    **IMMERSED,
                },
            )

    def run(self, cli, out: Path) -> None:
        for i in range(len(self.profiles)):
            cli(
                "immersed",
                "--config", str(self.inputs / f"immersed_{i}.json"),
                "--jobs", "1",
                "--out", str(out / f"profile_{i}"),
            )

    def gate(self, out: Path, codes: list) -> list:
        codes = codes + [None] * (len(self.profiles) - len(codes))
        ops = []
        for i in range(len(self.profiles)):
            cfg = json.loads((self.inputs / f"immersed_{i}.json").read_text())
            path = out / f"profile_{i}" / "immersed_results.json"
            docs = json.loads(path.read_text()) if path.exists() else []
            by_n = {d["n"]: d for d in docs}
            for n in cfg["n_list"]:
                d = by_n.get(n)
                ok = (
                    d is not None
                    and codes[i] == 0
                    and d["converged"]
                    and abs(d["lambda1"]) <= cfg["tol_root"]
                    and d["residual"] <= 10.0 * cfg["tol_root"]
                )
                ops.append((f"immersed profile {i} n={n}", ok))
        return ops


class Orbits(Workload):
    """One minimizer, then the ODE check, its magnetic orbit and its lift."""

    name = "orbits"
    layers = ("cli", "fields", "curves", "energy", "minimize", "physics")
    n_samples = 256
    tau = -2.0

    def prepare(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        _write_json(
            self.inputs / "field.json",
            {"constant": 0.0, "periodic_grid": _periodic_grid(rng, 0.5)},
        )
        _write_json(
            self.inputs / "solve.json",
            {"tau": _jitter(rng, self.tau), "n_samples": self.n_samples, **DESCENT},
        )
        _write_json(self.inputs / "check.json", {"tol": 1e-3, "steps": 4096})
        _write_json(
            self.inputs / "cylinder.json", {"r_range": [0.5, 2.0], "grid": [256, 33]}
        )

    def run(self, cli, out: Path) -> None:
        field = str(self.inputs / "field.json")
        curve = str(out / "minimizer_curve.json")
        if cli("solve", "--field", field, "--config", str(self.inputs / "solve.json"),
               "--jobs", "1", "--out", str(out)) != 0:
            return
        lam = json.loads((out / "solve_report.json").read_text())["lambda"]
        cli("check", "--curve", curve, "--field", field, "--lam", repr(lam),
            "--config", str(self.inputs / "check.json"), "--jobs", "1",
            "--out", str(out))
        _write_json(out.parent / "magnetic.json", _magnetic_config(curve, field, lam))
        cli("magnetic", "--config", str(out.parent / "magnetic.json"), "--jobs", "1",
            "--out", str(out))
        cli("cylinder", "--curve", curve, "--config", str(self.inputs / "cylinder.json"),
            "--jobs", "1", "--out", str(out))

    def gate(self, out: Path, codes: list) -> list:
        names = ("solve", "check", "magnetic", "cylinder")
        codes = codes + [None] * (len(names) - len(codes))
        ok = {name: code == 0 for name, code in zip(names, codes)}
        if ok["check"]:
            ok["check"] = json.loads((out / "check_report.json").read_text())["ok"]
        if ok["magnetic"]:
            rep = json.loads((out / "magnetic_report.json").read_text())
            ok["magnetic"] = (
                rep["closure_defect"] <= MAGNETIC_CLOSURE_MAX
                and rep["speed_drift"] <= MAGNETIC_DRIFT_MAX
            )
        if ok["cylinder"]:
            ok["cylinder"] = (out / "cylinder.off").stat().st_size > 0
        return [(name, ok[name]) for name in names]


def _magnetic_config(curve_path: str, field_path: str, lam: float) -> dict:
    """Field-driven orbit started on the minimizer, run for its length.

    With unit mass, charge and speed, b = -(H - lam) makes the transverse
    orbit trace the curve K = H - lam, so it closes after one length.
    """
    doc = json.loads(Path(curve_path).read_text())
    samples = np.asarray(doc["samples"], dtype=float)
    n, period = len(samples), float(doc["period"])
    k = np.fft.rfftfreq(n, d=1.0 / n)
    du = np.fft.irfft(
        np.fft.rfft(samples, axis=0) * (2j * np.pi * k / period)[:, None], n=n, axis=0
    )
    speed = np.hypot(du[:, 0], du[:, 1])
    return {
        "b_field": field_path,
        "lam": lam,
        "charge": 1.0,
        "mass": 1.0,
        "speed": 1.0,
        "v_parallel": 0.25,
        "position": samples[0].tolist(),
        "direction": (du[0] / speed[0]).tolist(),
        "t_final": float(speed.sum() * period / n),
        "steps": 4096,
    }


WORKLOADS = {w.name: w for w in (SweepFine, ImmersedFamily, Orbits)}
