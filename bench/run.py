"""Benchmark of the prescurve CLI over three seeded workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Inputs are generated from the seed, then
passes of the workload run one after another, each in a fresh interpreter
with one BLAS thread and ``--jobs 1``, until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are reported: the median wall
time of a pass's CLI calls, the median time a pass's fresh interpreter
takes to import ``prescurve.cli`` (with numpy and scipy), the median peak
RSS of a pass, and the share of operations that passed their accuracy
gates.  Both times are taken at the reference CPU speed of ``speed.py``:
each pass's time is scaled by ``speed.REFERENCE_S`` over that pass's own
probe time, which divides out the host's slow spells.
With ``--trace 1`` untraced and traced passes alternate (at least two of
each) and the per-layer metrics of the traced passes are reported; the
per-layer counts must repeat exactly, or the run is not correct.  In both
modes the output files of every pass must hash identically.

Metric names and units come from ``BENCHMARK.json``.  Every metric is
printed as ``name value unit``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIME_UNITS = ("s", "us")
PASS_TIMEOUT_S = 120  # a run must end within 180 s


def pass_env() -> dict:
    """Environment of every child interpreter: the sources on PYTHONPATH
    and one BLAS/OpenMP thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(workload, work: Path, index: int, traced: bool) -> dict:
    """One pass in a fresh interpreter; a crashed pass fails every operation."""
    out = work / f"pass_{index}" / "out"
    out.mkdir(parents=True)
    result_path = work / f"pass_{index}" / "result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), workload.name,
             str(workload.inputs), str(out), str(result_path), "1" if traced else "0"],
            env=pass_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        returncode = proc.returncode
        sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired:
        returncode = "timeout"
    if returncode != 0 or not result_path.exists():
        print(f"pass {index} ended with {returncode}", file=sys.stderr)
        result = {"crashed": True, "ops": workload.gate(out, []), "hashes": {}}
    else:
        result = json.loads(result_path.read_text())
    result["traced"] = traced
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _at_reference(passes, time_key: str, probe_key: str) -> float:
    """Median over passes of a time scaled to the reference CPU speed."""
    return _median([p[time_key] * REFERENCE_S / p[probe_key] for p in passes])


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one measurement; returns the result object and run details."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = WORKLOADS[name](work / "inputs")
    workload.prepare(seed)

    passes = []
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    rounds = 0
    while rounds < (2 if trace else 1) or time.perf_counter() - start < seconds:
        for traced in kinds:
            passes.append(run_pass(workload, work, len(passes), traced))
        rounds += 1

    problems = []
    traced_wall = 0.0
    ops = [op for p in passes for op in p["ops"]]
    failed = [op_name for op_name, ok in ops if not ok]
    if failed:
        problems.append(f"{len(failed)} operations failed gates: {sorted(set(failed))}")
    if any(p.get("crashed") for p in passes):
        problems.append("a pass crashed")
    plain = [p for p in passes if not p["traced"] and not p.get("crashed")]
    traced = [p for p in passes if p["traced"] and not p.get("crashed")]
    wall = _at_reference(plain, "wall_s", "probe_s")
    if len({json.dumps(p["hashes"], sort_keys=True) for p in passes}) != 1:
        problems.append("output files differ between passes")

    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": _at_reference(plain, "import_s", "import_probe_s"),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "ok_frac": 1.0 - len(failed) / len(ops),
        }
        declared = spec["end_to_end"]
    else:
        for p in traced:
            missing = set(workload.layers) - set(p["layers_called"])
            if missing:
                problems.append(f"layers with no calls: {sorted(missing)}")
        declared = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        # with no traced pass left, a crash has already made the run incorrect
        values = {} if traced else dict.fromkeys(units, 0.0)
        for key in traced[0]["layers"] if traced else ():
            series = [p["layers"][key] for p in traced]
            if units.get(key) in TIME_UNITS:
                values[key] = _median(series)
            else:
                if len(set(series)) != 1:
                    problems.append(f"count {key} differs between traced passes")
                values[key] = series[0]
        traced_wall = _median([p["wall_s"] for p in traced])
        traced_ref = _at_reference(traced, "wall_s", "probe_s")
        values["trace.overhead_frac"] = traced_ref / wall - 1.0 if wall else 0.0

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    details = {
        "problems": problems,
        "passes": len(passes),
        "traced_wall_s": traced_wall,
        "untraced_walls_s": [round(p["wall_s"], 4) for p in plain],
        "untraced_imports_s": [round(p["import_s"], 4) for p in plain],
        "untraced_probes_ms": [round(p["probe_s"] * 1e3, 3) for p in plain],
        "untraced_import_probes_ms": [round(p["import_probe_s"] * 1e3, 3) for p in plain],
    }
    return result, details


def environment() -> str:
    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"blas_threads={pass_env()['OPENBLAS_NUM_THREADS']} "
        f"python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prescurve" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/prescurve or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    print(f"# {args.workload} seed={args.seed} {environment()}")
    result, details = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    for problem in details.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    for key, value in details.items():
        print(f"# {key}: {value}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
