"""Per-layer tracing for the benchmark's traced run.

The tracer wraps, from outside the program, every public function of each
``pufr`` layer module plus the method the per-layer metrics name. A
module that did ``from .core import rank_by_score`` holds its own binding
of the function, so each binding site is patched: the globals of every
loaded ``pufr`` module and the values of module-level dicts. Each wrapped
call records a span; a span's self time is its duration minus the time of
the wrapped calls made inside it. A few wrappers also count work where it
happens (bytes read and written, candidate constructions, solver steps,
Monte Carlo flops).

Names that a later refactor removes are reported as missing; they never
make the run fail.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("cli", "fileio", "core", "rerank", "baselines", "metrics", "uncertainty", "sweep", "synth")

# Methods traced besides module-level functions: traced name -> (layer, class, method).
METHODS = {
    "metrics.grades_for_query": ("metrics", "RelevanceJudgments", "grades_for_query"),
}
CANDIDATE_INIT = ("core", "ScoredCandidate", "__post_init__")


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the inclusive call durations."""
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[index] * 1e6


def _path_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


class Tracer:
    """Collects call statistics and counters while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._restore: list[Callable[[], None]] = []

    # -- collection -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = CallStats()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children
                stats.durations.append(duration)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, expected: tuple[str, ...] = ()) -> None:
        """Patch every binding site of the traced functions.

        ``expected`` lists traced names (``layer.function``) that the caller
        will report on; those not found are recorded in ``self.missing``.
        """
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"pufr.{layer}")
            except ImportError:
                continue
        wrappers: dict[Callable, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(name, obj, _HOOKS.get(name))
        found = {f"{layer}.{attr}" for layer, m in modules.items() for attr in vars(m)}

        for name, (layer, cls_name, method) in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            fn = inspect.getattr_static(cls, method, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._set(cls, method, fn, self._wrap(name, fn, None))
                found.add(name)
        layer, cls_name, method = CANDIDATE_INIT
        cls = getattr(modules.get(layer), cls_name, None)
        init = inspect.getattr_static(cls, method, None) if cls is not None else None
        if inspect.isfunction(init):
            self._set(cls, method, init, self._counting(init, "core.candidates_built"))

        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "pufr" or module_name.startswith("pufr.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, obj, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._set_item(obj, key, wrappers[value])
        self.missing = sorted(name for name in expected if name not in found)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _set(self, owner: Any, attr: str, original: Any, value: Any) -> None:
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _set_item(self, mapping: dict, key: Any, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def _counting(self, fn: Callable, counter: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        return counted


# -- hooks: counts taken where the work happens ---------------------------


def _bytes_read(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("fileio.bytes_read", _path_size(args[0] if args else kwargs.get("path")))


def _bytes_written(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("fileio.bytes_written", _path_size(args[0] if args else kwargs.get("path")))


def _constrained(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("baselines.constrained.bisection_steps", len(getattr(result, "steps", ())))
    tracer.count("baselines.constrained.infeasible", int(not getattr(result, "feasible", True)))


def _mc_flops(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # 2*N*d flops per scored document, from the sizes score_query was given
    try:
        posterior, query, _, cfg = args[:4]
        flops = 2 * cfg.n_samples * posterior.dim * len(query)
    except (ValueError, TypeError, AttributeError):
        return
    tracer.count("uncertainty.mc_flops", flops)


_HOOKS: dict[str, Callable] = {
    "fileio.parse_run_file": _bytes_read,
    "fileio.parse_sigma_file": _bytes_read,
    "fileio.parse_neutrality_file": _bytes_read,
    "fileio.parse_qrels": _bytes_read,
    "fileio.parse_features_file": _bytes_read,
    "fileio.parse_posterior_file": _bytes_read,
    "fileio.write_run_file": _bytes_written,
    "fileio.write_sigma_file": _bytes_written,
    "fileio.write_neutrality_file": _bytes_written,
    "fileio.write_qrels": _bytes_written,
    "baselines.constrained_rerank": _constrained,
    "uncertainty.score_query": _mc_flops,
}
