"""Span tracer for the ``mlmc_sdde`` package, installed from outside it.

:meth:`Tracer.install` replaces each span point below by a wrapper that
records a span (name, parent, start, end, and a few counts read off the
call's result).  It rebinds every name in every loaded ``mlmc_sdde``
module that refers to the original, because modules import each other's
functions by name: patching only the definition would miss, for example,
``mlmc.simulate_coupled``.  The package source is not changed.

Span points, one layer per package module:

==========  ==========================================================
rng         ``NoiseStream.gaussian_increment``
model       drift and diffusion of each problem ``builtin_problem``
            returns (wrapped through ``dataclasses.replace``)
scheme      ``theta_em_path``, ``implicit_step_solve``
coupling    ``simulate_coupled``
mlmc        ``estimate_level``, ``single_level_estimate``,
            ``LevelStats.merge``, ``mlmc_estimate``
analysis    ``strong_error_rate``
cli         ``run``
==========  ==========================================================

The span stack is per thread.  A task submitted to a package thread pool
takes the span that submitted it as its parent.  Spans stay in memory;
:meth:`Tracer.metrics` reduces them when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

LAYERS = ("rng", "model", "scheme", "coupling", "mlmc", "analysis", "cli")

_LEVEL_CALLS = ("mlmc.estimate_level", "mlmc.single_level_estimate")


def _paths(values) -> int:
    return values.shape[1] if values.ndim == 3 else 1


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str  # "<layer>.<function>"
    start: float
    end: float
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span ``name``; ``attrs(args, kwargs, result)``
        returns the counts stored with it."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            spans.append(Span(sid, parent, name, t0, t1,
                              attrs(args, kwargs, out) if attrs else None))
            return out

        return traced

    def _executor(self):
        stack_of = self._stack

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitter = stack_of()
                parent = submitter[-1] if submitter else 0

                def adopted():
                    stack = stack_of()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(adopted)

        return TracedExecutor

    def install(self) -> None:
        """Wrap every span point in the loaded package."""
        from mlmc_sdde import analysis, cli, coupling, mlmc, model, rng, scheme

        modules = [mod for key, mod in sys.modules.items()
                   if key == "mlmc_sdde" or key.startswith("mlmc_sdde.")]

        def rebind(original, replacement):
            hits = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        hits += 1
            if not hits:
                raise RuntimeError(f"no binding of {original!r} found")

        wrap = self.wrap
        rng.NoiseStream.gaussian_increment = wrap(
            "rng.gaussian_increment", rng.NoiseStream.gaussian_increment,
            lambda a, k, out: {"draws": out.size})

        original_problem = model.builtin_problem

        def rows(a, k, out):
            return {"rows": out.size // out.shape[-1]}

        @functools.wraps(original_problem)
        def builtin_problem(name, **overrides):
            problem = original_problem(name, **overrides)
            return dataclasses.replace(
                problem,
                drift=wrap("model.drift", problem.drift, rows),
                diffusion=wrap("model.diffusion", problem.diffusion))

        rebind(original_problem, builtin_problem)

        rebind(scheme.theta_em_path, wrap(
            "scheme.theta_em_path", scheme.theta_em_path,
            lambda a, k, out: {"steps": out.total_steps,
                               "paths": _paths(out.values)}))
        rebind(scheme.implicit_step_solve, wrap(
            "scheme.implicit_step_solve", scheme.implicit_step_solve))
        rebind(coupling.simulate_coupled, wrap(
            "coupling.simulate_coupled", coupling.simulate_coupled,
            lambda a, k, out: {
                "fine": out.fine.total_steps * _paths(out.fine.values),
                "coarse": out.coarse.total_steps * _paths(out.coarse.values)}))

        def level_attrs(a, k, out):
            return {"level": out.level, "cost": out.cost_units}

        for name in ("estimate_level", "single_level_estimate"):
            fn = getattr(mlmc, name)
            rebind(fn, wrap(f"mlmc.{name}", fn, level_attrs))
        mlmc.LevelStats.merge = wrap("mlmc.merge", mlmc.LevelStats.merge)
        rebind(mlmc.mlmc_estimate, wrap(
            "mlmc.mlmc_estimate", mlmc.mlmc_estimate))
        rebind(analysis.strong_error_rate, wrap(
            "analysis.strong_error_rate", analysis.strong_error_rate))
        rebind(cli.run, wrap(
            "cli.run", cli.run,
            lambda a, k, out: {"csv_bytes": os.path.getsize(a[0].out)}))
        rebind(ThreadPoolExecutor, self._executor())

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the recorded spans.

        A span's self time is its duration minus the part of it that its
        child spans cover; the child spans of a parallel section may
        overlap one another.  ``rng.share`` is the rng self time over the
        self time of all layers, which with a thread pool can exceed the
        wall time.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)

        def self_time(span: Span) -> float:
            covered, reach = 0.0, span.start
            for child in sorted(children[span.id], key=lambda c: c.start):
                start, end = max(child.start, reach), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            return span.duration - covered

        by_name = defaultdict(list)
        self_s = defaultdict(float)
        for span in self.spans:
            by_name[span.name].append(span)
            self_s[span.name] += self_time(span)

        def layer_self(layer):
            return sum(v for k, v in self_s.items()
                       if k.startswith(layer + "."))

        def total(name, key):
            return sum(s.attrs[key] for s in by_name[name])

        out = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}

        draws = total("rng.gaussian_increment", "draws")
        out["rng.calls"] = len(by_name["rng.gaussian_increment"])
        out["rng.draws"] = draws
        out["rng.ns_per_draw"] = (1e9 * out["rng.self_s"] / draws
                                  if draws else 0.0)
        busy = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["rng.share"] = out["rng.self_s"] / busy if busy else 0.0

        out["model.drift_calls"] = len(by_name["model.drift"])
        out["model.drift_rows"] = total("model.drift", "rows")
        out["model.diffusion_calls"] = len(by_name["model.diffusion"])

        solves = by_name["scheme.implicit_step_solve"]
        solve_ids = {s.id for s in solves}
        solve_drifts = sum(1 for s in by_name["model.drift"]
                           if s.parent in solve_ids)
        out["scheme.path_calls"] = len(by_name["scheme.theta_em_path"])
        out["scheme.path_steps"] = sum(
            s.attrs["steps"] * s.attrs["paths"]
            for s in by_name["scheme.theta_em_path"])
        out["scheme.solve_calls"] = len(solves)
        out["scheme.solve.self_s"] = self_s["scheme.implicit_step_solve"]
        out["scheme.drift_calls_per_solve"] = (solve_drifts / len(solves)
                                               if solves else 0.0)

        fine = total("coupling.simulate_coupled", "fine")
        out["coupling.calls"] = len(by_name["coupling.simulate_coupled"])
        out["coupling.fine_path_steps"] = fine
        out["coupling.coarse_path_steps"] = total("coupling.simulate_coupled",
                                                  "coarse")
        out["coupling.ns_per_fine_step"] = (1e9 * out["coupling.self_s"] / fine
                                            if fine else 0.0)

        out.update(self._mlmc_metrics(by_name, children))
        out["analysis.ref_path_steps"] = sum(
            self._ref_steps(span, children)
            for span in by_name["analysis.strong_error_rate"])
        out["cli.csv_bytes"] = total("cli.run", "csv_bytes")
        return out

    @staticmethod
    def _mlmc_metrics(by_name, children) -> dict[str, float]:
        levels = [s for name in _LEVEL_CALLS for s in by_name[name]]
        estimates = by_name["mlmc.mlmc_estimate"]
        out = {
            "mlmc.level_calls": len(levels),
            "mlmc.merges": len(by_name["mlmc.merge"]),
            "mlmc.cost_units": sum(s.attrs["cost"] for s in levels),
        }
        for span in levels:
            key = f"mlmc.L{span.attrs['level']}.wall_s"
            out[key] = out.get(key, 0.0) + span.duration
        mlmc_ids = {s.id for name, group in by_name.items()
                    if name.startswith("mlmc.") for s in group}
        child_s = sum(c.duration for sid in mlmc_ids for c in children[sid]
                      if not c.name.startswith("mlmc."))
        wall = sum(s.duration for s in estimates)
        out["mlmc.overlap"] = child_s / wall if wall else 0.0
        return out

    @staticmethod
    def _ref_steps(span, children) -> int:
        """Path steps of the finest grid run under one strong-error span."""
        paths, todo = [], [span]
        while todo:
            node = todo.pop()
            for child in children[node.id]:
                todo.append(child)
                if child.name == "scheme.theta_em_path":
                    paths.append(child.attrs)
        if not paths:
            return 0
        finest = max(p["steps"] for p in paths)
        return sum(p["steps"] * p["paths"] for p in paths
                   if p["steps"] == finest)
