"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root; takes a few minutes.  For every workload it
prints every end-to-end and per-layer metric with its unit and checks:

* every operation passes its accuracy gate on seeds 0, 1 and 2 (fail
  fraction 0);
* the traced run is correct: its output files hash identically to the
  untraced passes', per-layer counts repeat exactly across two traced
  passes, every target binding was patched and every layer the workload
  uses recorded calls (all checked inside ``run.measure``);
* the wrappers catch the hot paths: reparametrization plus ``is_simple``
  take at least 80% of the traced ``sweep_fine`` pass, and ``physics``
  most of the traced ``orbits`` pass (the share of the traced pass's wall
  time in every timed layer metric is printed).

It also checks that bindings made by ``from .curves import ...`` and the
package re-exports are wrapped, and that ``run.py`` exits non-zero without printing a result
in a directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SEEDS = (0, 1, 2)
PHYSICS = ("physics.magnetic_s", "physics.ode_s", "physics.verify_s", "physics.lift_s")
BINDINGS = (
    "prescurve.minimize.reparametrize_constant_speed",
    "prescurve.immersed.trig_resample",
    "prescurve.physics.trig_resample",
    "prescurve.cli.build_context",
    "prescurve.cli.build_immersed_loop",
    "prescurve.energy.q_eval",
    "prescurve.build_context",
)
SHARE_FLOORS = {
    "sweep_fine": (("curves.reparametrize_s", "curves.is_simple_s"), 0.8),
    "orbits": (PHYSICS, 0.5),
}


def _print(name: str, report: dict) -> None:
    for key, metric in report["metrics"].items():
        print(f"{name} {key} {metric['value']!r} {metric['unit']}")


def check_workload(name: str, spec: dict) -> list:
    errors = []
    for seed in SEEDS:
        report, details = run.measure(name, seed, 0.0, False, spec)
        if seed == SEEDS[0]:
            _print(name, report)
        if report["failed"] or details["problems"]:
            errors.append(f"{name} seed {seed}: {details['problems']}")
    report, details = run.measure(name, SEEDS[0], 0.0, True, spec)
    _print(name, report)
    errors += [f"{name} traced: {problem}" for problem in details["problems"]]
    m = {key: metric["value"] for key, metric in report["metrics"].items()}
    for key, value in m.items():
        if key.endswith("_s") and value:
            print(f"{name} share {key} {value / details['traced_wall_s']:.3f}")
    if name in SHARE_FLOORS:
        keys, floor = SHARE_FLOORS[name]
        share = sum(m[key] for key in keys) / details["traced_wall_s"]
        print(f"{name} share of traced wall in {'+'.join(keys)}: {share:.3f}")
        if share < floor:
            errors.append(f"{name}: share {share:.3f} below {floor}")
    return errors


def check_bindings() -> list:
    """Bindings made by ``from .x import y`` must be wrapped too."""
    code = (
        "import importlib, sys; sys.path.insert(0, 'bench'); import tracer; "
        "tracer.Tracer().install(); "
        f"names = {BINDINGS!r}; "
        "print([n for n in names if not hasattr(getattr(importlib.import_module("
        "n.rpartition('.')[0]), n.rpartition('.')[2]), '__wrapped__')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=run.pass_env(), cwd=run.ROOT,
        capture_output=True, text=True,
    )
    if proc.returncode != 0 or proc.stdout.strip() != "[]":
        return [f"unwrapped bindings: {proc.stdout.strip()} {proc.stderr.strip()}"]
    return []


def check_bare_directory() -> list:
    """Only BENCHMARK.json and the benchmark files: must fail, print nothing."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbits", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    print(f"# {run.environment()}")
    errors = check_bindings()
    for name in WORKLOADS:
        errors += check_workload(name, spec)
    errors += check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
