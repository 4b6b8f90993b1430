"""In-memory spans around the public functions of each prescurve module.

The tracer replaces every binding of a target function with a wrapper
that records a span: name, start, end, parent span and the id of the CLI
call it belongs to, plus counts taken from argument and return shapes so
that they repeat exactly.  Bindings are found by identity in every loaded
``prescurve`` module, because modules import names with ``from .curves
import ...`` and the package ``__init__`` re-exports them (so
``import prescurve.energy as E`` yields the *function* ``energy``, and
module lookups here go through ``importlib.import_module``).

Nothing under ``src/`` is changed; wrappers pass arguments, return values
and exceptions through untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from math import prod

import numpy as np
from prescurve.errors import MaxIterationsExceeded, NotContracting


def _points(args, result):
    pts = args["points"]
    shape = getattr(pts, "shape", None) or (len(pts), 2)
    return {"points": prod(shape[:-1])}


def _dense(args, result):
    return {"dense_evals": int(np.size(args["t"])) * len(args["values"])}


def _pairs(args, result):
    n = args["curve"].n
    return {"pairs": n * (n - 3) // 2}


def _solve(args, result):
    opts = args["opts"]
    return {
        "tau": args["tau"],
        "warm": opts is not None and opts.initial is not None,
        "iterations": result.iterations,
        "converged": result.converged,
        "energy": result.energy_value,
    }


def _fp_iterations(args, result):
    return {"iterations": len(result[3])}


def _magnetic_steps(args, result):
    return {"steps": args["cfg"].steps}


def _ode_steps(args, result):
    return {"steps": args["steps"]}


# (span name, module, attribute path, counts from bound args and result)
TARGETS = (
    ("cli.main", "prescurve.cli", "main", None),
    ("fields.value", "prescurve.fields", "CurvatureField.value", _points),
    ("fields.q_eval", "prescurve.fields", "q_eval", None),
    ("fields.read_field", "prescurve.fields", "read_field", None),
    ("fields.build_potential", "prescurve.fields", "build_potential", None),
    ("fields.radial_curvature", "prescurve.fields", "RadialCurvature.__call__", None),
    ("curves.trig_resample", "prescurve.curves", "trig_resample", _dense),
    ("curves.reparametrize", "prescurve.curves", "reparametrize_constant_speed", None),
    ("curves.is_simple", "prescurve.curves", "is_simple", _pairs),
    ("curves.derivative", "prescurve.curves", "derivative", None),
    ("energy.anisotropic_area", "prescurve.energy", "anisotropic_area", None),
    ("energy.build_context", "prescurve.energy", "build_context", None),
    ("minimize.solve", "prescurve.minimize", "minimize_area_constrained", _solve),
    ("immersed.build", "prescurve.immersed", "build_immersed_loop", None),
    ("immersed.find_radius", "prescurve.immersed", "find_radius", None),
    ("immersed.fixed_point", "prescurve.immersed", "fixed_point_solve", _fp_iterations),
    ("physics.magnetic", "prescurve.physics", "simulate_magnetic", _magnetic_steps),
    ("physics.ode", "prescurve.physics", "integrate_curvature_ode", _ode_steps),
    ("physics.verify", "prescurve.physics", "verify_solution", None),
    ("physics.lift", "prescurve.physics", "lift_to_cylinder", None),
)

FP_ERRORS = (NotContracting.__name__, MaxIterationsExceeded.__name__)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    call: int = -1
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Records spans in memory; ``install`` patches, ``metrics`` reduces."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls = 0

    def _wrap(self, name, fn, measure):
        # targets take no *args/**kwargs, so a dict of names binds them
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                call = self._calls
                self._calls += 1
            else:
                call = spans[stack[-1]].call if stack else -1
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, call=call)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                bound = {**defaults, **dict(zip(names, args)), **kwargs}
                span.counts = measure(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target; raise if one has none."""
        patched = {}
        for name, module_name, attr, measure in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, leaf = attr.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(name, original, measure))
                patched[name] = 1
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(name, original, measure)
            count = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "prescurve" or mod_name.startswith("prescurve.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        count += 1
            patched[name] = count
        missing = [name for name, count in patched.items() if count == 0]
        if missing:
            raise RuntimeError(f"no binding patched for {missing}")

    def layers_called(self) -> set:
        return {span.name.split(".")[0] for span in self.spans}

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far; ``run.py`` adds
        ``trace.overhead_frac``, which needs an untraced pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span.name, []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def total(name):
            return sum(spans[i].end - spans[i].start for i in idx(name))

        def self_time(name):
            return sum(spans[i].end - spans[i].start - child_time[i] for i in idx(name))

        def count_sum(name, key):
            return sum(spans[i].counts.get(key, 0) for i in idx(name))

        def within(i, names):
            p = spans[i].parent
            while p >= 0:
                if spans[p].name in names:
                    return True
                p = spans[p].parent
            return False

        def ratio(num, den):
            return num / den if den else 0.0

        solves = [spans[i] for i in idx("minimize.solve") if spans[i].error is None]
        iterations = sum(s.counts["iterations"] for s in solves)
        evals = sum(1 for i in idx("energy.anisotropic_area") if within(i, {"minimize.solve"}))
        warm_rows = wins = 0
        # a sweep row with a warm candidate solves cold, then warm, at one tau
        for prev, cur in zip(solves, solves[1:]):
            cold, warm = prev.counts, cur.counts
            if (
                warm["warm"] and not cold["warm"]
                and prev.call == cur.call and cold["tau"] == warm["tau"]
            ):
                warm_rows += 1
                wins += warm["converged"] and (
                    not cold["converged"] or warm["energy"] < cold["energy"]
                )
        steps = count_sum("physics.magnetic", "steps") + count_sum("physics.ode", "steps")
        orbit_field_calls = sum(
            1 for i in idx("fields.value") if within(i, {"physics.magnetic", "physics.ode"})
        )
        loops = len(idx("immersed.build"))
        fp = idx("immersed.fixed_point")
        dense = [spans[i].counts["dense_evals"] for i in idx("curves.trig_resample")]
        return {
            "cli.calls": len(idx("cli.main")),
            "cli.self_s": self_time("cli.main"),
            "fields.value.calls": len(idx("fields.value")),
            "fields.value.points": count_sum("fields.value", "points"),
            "fields.value_s": total("fields.value"),
            "fields.q_eval.calls": len(idx("fields.q_eval")),
            "fields.q_eval_s": total("fields.q_eval"),
            "fields.read_field.calls": len(idx("fields.read_field")),
            "fields.read_field_s": total("fields.read_field"),
            "fields.build_potential_s": total("fields.build_potential"),
            "fields.radial_curvature.calls": len(idx("fields.radial_curvature")),
            "fields.radial_curvature_s": total("fields.radial_curvature"),
            "curves.trig_resample.calls": len(dense),
            "curves.trig_resample_s": total("curves.trig_resample"),
            "curves.trig_resample.dense_evals": sum(dense),
            # complex128 phase matrix of the largest call
            "curves.trig_resample.dense_mb": 16 * max(dense, default=0) / 1e6,
            "curves.reparametrize.calls": len(idx("curves.reparametrize")),
            "curves.reparametrize_s": total("curves.reparametrize"),
            "curves.is_simple.calls": len(idx("curves.is_simple")),
            "curves.is_simple_s": total("curves.is_simple"),
            "curves.is_simple.pairs": count_sum("curves.is_simple", "pairs"),
            "curves.derivative.calls": len(idx("curves.derivative")),
            "curves.derivative_s": total("curves.derivative"),
            "energy.anisotropic_area.calls": len(idx("energy.anisotropic_area")),
            "energy.anisotropic_area_s": total("energy.anisotropic_area"),
            "energy.build_context_s": total("energy.build_context"),
            "minimize.solves": len(idx("minimize.solve")),
            "minimize.solve_s": total("minimize.solve"),
            "minimize.self_s": self_time("minimize.solve"),
            "minimize.iterations": iterations,
            "minimize.evals_per_iter": ratio(evals, iterations),
            "minimize.warm_win_frac": ratio(wins, warm_rows),
            "immersed.loops": loops,
            "immersed.build_s": total("immersed.build"),
            "immersed.assembly_self_s": self_time("immersed.build"),
            "immersed.radius_evals": len(fp),
            "immersed.evals_per_loop": ratio(len(fp), loops),
            "immersed.fixed_point_s": total("immersed.fixed_point"),
            "immersed.fp_iterations": count_sum("immersed.fixed_point", "iterations"),
            "immersed.fp_errors": sum(1 for i in fp if spans[i].error in FP_ERRORS),
            "physics.magnetic_s": total("physics.magnetic"),
            "physics.ode_s": total("physics.ode"),
            "physics.verify_s": total("physics.verify"),
            "physics.lift_s": total("physics.lift"),
            "physics.rk4_steps": steps,
            "physics.step_us": ratio(
                total("physics.magnetic") + total("physics.ode"), steps
            ) * 1e6,
            "physics.field_calls_per_step": ratio(orbit_field_calls, steps),
        }
