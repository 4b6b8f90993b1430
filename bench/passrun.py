"""One pass of a workload in a fresh interpreter.

    python3 bench/passrun.py WORKLOAD INPUTS OUT RESULT TRACE

Times the import of ``prescurve.cli`` (numpy and scipy included), runs
every CLI call of the workload in-process through ``prescurve.cli.main``,
timing each call, then applies the workload's gates, hashes the output
files and writes a JSON result to RESULT.  With TRACE=1 the tracer is
installed first and its per-layer numbers are added.  The CPU is probed
(``speed.py``) before the import, and before, during and after each call;
the time spent probing is not counted.  Traced passes do not probe during
calls, so that probes do not fall inside the tracer's spans.
``run.py`` starts this with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed


def _hashes(out: Path) -> dict:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main(argv) -> int:
    name, inputs, out, result_path, trace = argv
    import_probe_s = speed.pin_fastest()
    start = time.perf_counter()
    importlib.import_module("prescurve.cli")  # outside the timed phase
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = importlib.import_module("prescurve.cli")
    codes, walls, probes = [], [], []
    sampler = speed.Sampler(0.0 if tracer is not None else speed.INTERVAL_S)

    def call(*args):
        probes.append(speed.pin_fastest())
        start = time.perf_counter()
        with sampler:
            try:
                code = cli.main(list(args))
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc()
                code = None
        walls.append(time.perf_counter() - start - sampler.spent)
        probes.append(speed.probe())
        codes.append(code)
        return code

    workload = WORKLOADS[name](Path(inputs))
    out = Path(out)
    workload.run(call, out)
    result = {
        "wall_s": sum(walls),
        "import_s": import_s,
        "probe_s": statistics.median([import_probe_s] + probes + sampler.probes),
        "import_probe_s": import_probe_s,
        "ops": workload.gate(out, codes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "hashes": _hashes(out),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers_called"] = sorted(tracer.layers_called())
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
