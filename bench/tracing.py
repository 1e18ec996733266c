"""Span tracing around fraclap's public functions, from outside the package.

``Tracer.install`` wraps every public function defined in the traced
modules and rebinds each name that refers to one of them in any loaded
``fraclap`` module. Rebinding every name matters: ``fraclap.solver`` binds
``total_energy`` and ``gradient`` at import, ``fraclap.cli`` binds most of
the package, and a patch on the defining module alone would miss them.
``cho_factor`` and ``cho_solve`` are wrapped as bound in ``fraclap.solver``.

A span is (id, name, start, end, parent, thread). Spans stay in memory and
are written once, by ``write``, when the run ends. ``layer_metrics`` turns
them into the per-layer numbers that ``bench/README.md`` lists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

TRACED_MODULES = (
    "domain_grid",
    "constants",
    "energy",
    "solver",
    "geometry",
    "certify",
    "experiments",
    "cli",
)
_SOLVER_FACTOR = ("cho_factor", "cho_solve")
_ENERGY_PAIR_CALLS = ("total_energy", "gradient", "seminorm_power")
_OUTPUT_CALLS = ("write_json", "write_csv", "csv_text", "gnuplot_script")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_arg(args):
    for arg in args:
        if hasattr(arg, "w") and hasattr(arg, "t") and hasattr(arg, "m"):
            return arg
    return None


def _observe(name: str, args, result) -> Dict[str, float]:
    """Work counts read from a call's arguments and result."""
    module, func = name.split(".", 1)
    if module == "energy" and func in _ENERGY_PAIR_CALLS:
        kern = _kernel_arg(args)
        return {"pair_bytes": float(kern.w.nbytes)} if kern is not None else {}
    if name == "solver.solve_p":
        kern, f, cfg = args[1], args[2], args[3]
        fm = np.asarray(f.values) * kern.m
        eps_g = cfg.eps_g if cfg.eps_g is not None else 1e-8 * float(np.max(np.abs(fm)))
        return {
            "iterations": float(result.iterations),
            "converged": float(result.status == "converged"),
            "floored": float(result.status == "floored"),
            "grad_ratio": result.grad_norm / eps_g if eps_g > 0 else 0.0,
        }
    if name == "domain_grid.build_kernel":
        return {"bytes": float(result.w.nbytes + result.t.nbytes + result.m.nbytes)}
    if name == "geometry.brute_force_cheeger":
        return {"subsets": float(2 ** args[0].ncells - 1)}
    if name == "geometry.threshold_cheeger":
        return {"levels": float(len(result.table or ()))}
    if name == "certify.build_certificate":
        return {"pg_iterations": float(result.iterations)}
    if name == "certify.verify_certificate":
        return {"certified": float(result.passed)}
    return {}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.get_ident()
        self._patched = []  # (module, attribute, original)

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span hangs under the span that is open
            # in the main thread, e.g. run_sweep under run_sweeps
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident())
                tracer.spans.append(span)
            span.info = _observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module("fraclap." + short)
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (short, attr), obj))
        solver = importlib.import_module("fraclap.solver")
        for attr in _SOLVER_FACTOR:
            obj = getattr(solver, attr)
            self._patched.append((solver, attr, obj))
            setattr(solver, attr, self._wrap("solver." + attr, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fraclap" or mod_name.startswith("fraclap.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, "thread": sp.thread,
                    "info": sp.info,
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur = sp.start
        for ch in sorted(children.get(sp.sid, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cur), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cur = hi
        out[sp.sid] = sp.duration - covered
    return out


def nesting_problems(spans: List[Span], selfs: Dict[int, float]) -> List[str]:
    """Spans whose children's self times, per thread, exceed the span.

    Children on one thread run one after another, so their self times fit
    inside the parent; pool threads (run_sweeps) are compared per thread.
    """
    by_id = {sp.sid: sp for sp in spans}
    sums: Dict[tuple, float] = {}
    for sp in spans:
        if sp.parent is not None:
            key = (sp.parent, sp.thread)
            sums[key] = sums.get(key, 0.0) + selfs[sp.sid]
    bad = []
    for (pid, thread), total in sums.items():
        parent = by_id[pid]
        if total > parent.duration + 1e-9:
            bad.append("%s: children self %.6f s > duration %.6f s"
                       % (parent.name, total, parent.duration))
    return bad


# (metric name, unit, better); order is the print order
LAYER_METRICS = (
    ("energy.total_energy.calls", "count", "lower"),
    ("energy.total_energy.s", "s", "lower"),
    ("energy.gradient.calls", "count", "lower"),
    ("energy.gradient.s", "s", "lower"),
    ("energy.seminorm_power.calls", "count", "lower"),
    ("energy.seminorm_power.s", "s", "lower"),
    ("energy.pair_gb", "GB", "lower"),
    ("solver.solve_p.calls", "count", "lower"),
    ("solver.solve_p.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.energy_evals_per_iter", "1/iter", "lower"),
    ("solver.factor.calls", "count", "lower"),
    ("solver.factor.s", "s", "lower"),
    ("solver.snap_ties.calls", "count", "lower"),
    ("solver.snap_ties.s", "s", "lower"),
    ("solver.converged", "count", "higher"),
    ("solver.floored", "count", "lower"),
    ("solver.grad_ratio_max", "ratio", "lower"),
    ("domain_grid.build_kernel.calls", "count", "lower"),
    ("domain_grid.build_kernel.s", "s", "lower"),
    ("domain_grid.kernel_mb", "MB", "lower"),
    ("geometry.brute_force_cheeger.s", "s", "lower"),
    ("geometry.subsets", "count", "lower"),
    ("geometry.threshold_cheeger.s", "s", "lower"),
    ("geometry.levels", "count", "lower"),
    ("geometry.perimeter.calls", "count", "lower"),
    ("geometry.perimeter.s", "s", "lower"),
    ("certify.build_certificate.s", "s", "lower"),
    ("certify.pg_iterations", "count", "lower"),
    ("certify.verify_certificate.s", "s", "lower"),
    ("certify.certified", "count", "higher"),
    ("experiments.run_sweeps.s", "s", "lower"),
    ("experiments.pool_efficiency", "ratio", "higher"),
    ("experiments.output.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("constants.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(spans: List[Span], threads: int):
    """Per-layer metrics of one traced round (see README for each), except
    trace.overhead_s, which compares two rounds and is set by run.py."""
    selfs = self_times(spans)
    by_id = {sp.sid: sp for sp in spans}

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name):
        return sum(sp.duration for sp in named(name))

    def info_sum(name, key):
        return sum(sp.info.get(key, 0.0) for sp in named(name))

    def under(sp, ancestor):
        pid = sp.parent
        while pid is not None:
            anc = by_id[pid]
            if anc.name == ancestor:
                return True
            pid = anc.parent
        return False

    def outermost(prefix):
        # spans of a module not nested in another span of the same module
        out = []
        for sp in spans:
            if not sp.name.startswith(prefix):
                continue
            pid, nested = sp.parent, False
            while pid is not None:
                if by_id[pid].name.startswith(prefix):
                    nested = True
                    break
                pid = by_id[pid].parent
            if not nested:
                out.append(sp)
        return out

    iterations = info_sum("solver.solve_p", "iterations")
    solve_evals = sum(1 for sp in named("energy.total_energy") if under(sp, "solver.solve_p"))
    factor = named("solver.cho_factor") + named("solver.cho_solve")
    sweeps_s = total("experiments.run_sweeps")
    pool = 0.0
    if sweeps_s > 0:
        pool = total("experiments.run_sweep") / (threads * sweeps_s)
    kernel_bytes = [sp.info.get("bytes", 0.0) for sp in named("domain_grid.build_kernel")]
    grad_ratios = [sp.info.get("grad_ratio", 0.0) for sp in named("solver.solve_p")]
    pair_bytes = sum(
        sp.info.get("pair_bytes", 0.0)
        for name in _ENERGY_PAIR_CALLS
        for sp in named("energy." + name)
    )
    values = {
        "energy.total_energy.calls": len(named("energy.total_energy")),
        "energy.total_energy.s": total("energy.total_energy"),
        "energy.gradient.calls": len(named("energy.gradient")),
        "energy.gradient.s": total("energy.gradient"),
        "energy.seminorm_power.calls": len(named("energy.seminorm_power")),
        "energy.seminorm_power.s": total("energy.seminorm_power"),
        "energy.pair_gb": pair_bytes / 1e9,
        "solver.solve_p.calls": len(named("solver.solve_p")),
        "solver.solve_p.self_s": sum(selfs[sp.sid] for sp in named("solver.solve_p")),
        "solver.iterations": iterations,
        "solver.energy_evals_per_iter": solve_evals / iterations if iterations else 0.0,
        "solver.factor.calls": len(factor),
        "solver.factor.s": sum(sp.duration for sp in factor),
        "solver.snap_ties.calls": len(named("solver.snap_ties")),
        "solver.snap_ties.s": total("solver.snap_ties"),
        "solver.converged": info_sum("solver.solve_p", "converged"),
        "solver.floored": info_sum("solver.solve_p", "floored"),
        "solver.grad_ratio_max": max(grad_ratios, default=0.0),
        "domain_grid.build_kernel.calls": len(kernel_bytes),
        "domain_grid.build_kernel.s": total("domain_grid.build_kernel"),
        "domain_grid.kernel_mb": max(kernel_bytes, default=0.0) / 1e6,
        "geometry.brute_force_cheeger.s": total("geometry.brute_force_cheeger"),
        "geometry.subsets": info_sum("geometry.brute_force_cheeger", "subsets"),
        "geometry.threshold_cheeger.s": total("geometry.threshold_cheeger"),
        "geometry.levels": info_sum("geometry.threshold_cheeger", "levels"),
        "geometry.perimeter.calls": len(named("geometry.perimeter")),
        "geometry.perimeter.s": total("geometry.perimeter"),
        "certify.build_certificate.s": total("certify.build_certificate"),
        "certify.pg_iterations": info_sum("certify.build_certificate", "pg_iterations"),
        "certify.verify_certificate.s": total("certify.verify_certificate"),
        "certify.certified": info_sum("certify.verify_certificate", "certified"),
        "experiments.run_sweeps.s": sweeps_s,
        "experiments.pool_efficiency": pool,
        "experiments.output.s": sum(total("experiments." + n) for n in _OUTPUT_CALLS),
        "cli.self_s": sum(selfs[sp.sid] for sp in spans if sp.name.startswith("cli.")),
        "constants.s": sum(sp.duration for sp in outermost("constants.")),
        "trace.spans": len(spans),
    }
    return values, nesting_problems(spans, selfs)
