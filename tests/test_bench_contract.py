"""The functions the benchmark traces exist in the program.

``bench/workloads.py::EXPECTED_CALLS`` names each function a traced
benchmark run must call, as ``layer.function``; ``bench/tracer.py`` wraps
them from outside the program, and its ``_HOOKS`` attach per-layer counters
to some of them by the same names. This test reads both files, without
running the benchmark, and checks that every name resolves to a function of
its ``pufr.<layer>`` module, so a refactor that renames or removes one fails
here instead of only in the slower ``bench/smoke.py``, or, for a hook
target, instead of silently dropping its counter. The byte-counting hooks
size the file named by a call's first positional argument, so every
function they wrap must take ``path`` first.

It also runs each workload's ``tiny`` fixture build and commands in-process
under the benchmark's tracer, as a traced run does, and checks that every
name expected on that workload is called, so a refactor that stops calling
one fails in tier-1 too. The tracer keeps one stack of open spans, so every
traced call must run on the main thread: ``pufr laplace`` draws on a second
thread, and a traced call there would garble every self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
import threading
from pathlib import Path

import pytest

import pufr.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


WORKLOADS = bench_module("workloads")
EXPECTED_CALLS = tuple(WORKLOADS.EXPECTED_CALLS)
TRACER = bench_module("tracer")


def resolve(layer: str, attr: str, cls_name: str | None = None):
    owner = importlib.import_module(f"pufr.{layer}")
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    return inspect.getattr_static(owner, attr, None)


def assert_defined_in_its_layer(name: str) -> None:
    layer, attr = name.split(".")
    fn = resolve(layer, attr)
    assert inspect.isfunction(fn), f"pufr.{layer} has no function {attr!r}"
    assert fn.__module__ == f"pufr.{layer}", f"{name} is imported, not defined, there"


@pytest.mark.parametrize("name", EXPECTED_CALLS)
def test_every_expected_call_is_a_function_of_its_layer(name):
    if name in TRACER.METHODS:
        layer, cls_name, method = TRACER.METHODS[name]
        assert inspect.isfunction(resolve(layer, method, cls_name))
        return
    assert_defined_in_its_layer(name)


@pytest.mark.parametrize("name", tuple(TRACER._HOOKS))
def test_every_hook_target_is_a_function_of_its_layer(name):
    assert_defined_in_its_layer(name)


@pytest.mark.parametrize("name", sorted(
    name for name, hook in TRACER._HOOKS.items()
    if hook in (TRACER._bytes_read, TRACER._bytes_written)
))
def test_every_byte_counted_function_takes_the_path_first(name):
    layer, attr = name.split(".")
    first = next(iter(inspect.signature(resolve(layer, attr)).parameters.values()))
    assert first.name == "path", f"{name} takes {first.name!r} first, not 'path'"
    assert first.kind in (first.POSITIONAL_ONLY, first.POSITIONAL_OR_KEYWORD), (
        f"{name} takes its path by keyword, so the tracer would count 0 bytes"
    )


def test_the_candidate_counter_has_its_hook():
    layer, cls_name, method = TRACER.CANDIDATE_INIT
    assert inspect.isfunction(resolve(layer, method, cls_name))


def run_cli(argv) -> tuple[int, str, str]:
    """``pufr.cli.main`` looked up at call time, so the traced binding runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pufr.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", tuple(WORKLOADS.WORKLOADS))
def test_a_traced_tiny_run_calls_every_name_expected_on_its_workload(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name]
    seed = 3  # any seed; bench/smoke.py runs this one
    expected = tuple(n for n, where in WORKLOADS.EXPECTED_CALLS.items() if name in where)
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    out.mkdir()
    tracer = TRACER.Tracer()
    tracer.install(expected)
    try:
        workload.build_fixture(run_cli, fixture, seed, "tiny")
        for command in workload.commands(fixture, out, seed, "tiny"):
            code, _, err = run_cli(command.argv)
            assert code == command.expected_exit, err
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [n for n in expected if n not in tracer.stats] == []
    if name == "laplace-768":  # 2*N*d flops for each of 24 docs, d = 32, N = 1,000 samples
        assert tracer.counters["uncertainty.mc_flops"] == 2 * 1000 * 32 * 24
        # one blocked pass per query (3 queries), not one call per document (24)
        assert tracer.stats["uncertainty.predictive_moments"].calls == 3


class ThreadRecordingTracer(TRACER.Tracer):
    """The benchmark's tracer, also noting the thread of every traced call."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: dict[str, set[int]] = {}

    def _wrap(self, name, fn, hook):
        traced = super()._wrap(name, fn, hook)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            self.threads.setdefault(name, set()).add(threading.get_ident())
            return traced(*args, **kwargs)

        return recorded


def test_every_traced_laplace_call_runs_on_the_main_thread(tmp_path):
    workload = WORKLOADS.WORKLOADS["laplace-768"]
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    out.mkdir()
    tracer = ThreadRecordingTracer()
    tracer.install()
    try:
        workload.build_fixture(run_cli, fixture, 3, "tiny")
        for command in workload.commands(fixture, out, 3, "tiny"):
            code, _, err = run_cli(command.argv)
            assert code == command.expected_exit, err
    finally:
        tracer.uninstall()
    assert tracer.stats["uncertainty.predictive_moments"].calls == 3
    main = threading.main_thread().ident
    assert {name: idents for name, idents in tracer.threads.items() if idents != {main}} == {}


class CommandRecordingTracer(TRACER.Tracer):
    """The benchmark's tracer, also counting each traced call under the
    label of the command that made it."""

    def __init__(self) -> None:
        super().__init__()
        self.command = ""
        self.calls_by_command: dict[str, dict[str, int]] = {}

    def _wrap(self, name, fn, hook):
        traced = super()._wrap(name, fn, hook)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls = self.calls_by_command.setdefault(name, {})
            calls[self.command] = calls.get(self.command, 0) + 1
            return traced(*args, **kwargs)

        return recorded


def test_each_sweep_reranks_the_whole_stack_once_per_alpha(tmp_path):
    # the pufr rows re-rank with PUFR, and the uniform and fastar rows
    # t-test against PUFR at the same alpha: each call ranks every query;
    # the interval report counts every query's overlaps in one call per alpha
    workload = WORKLOADS.WORKLOADS["shallow-sweep"]
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    out.mkdir()
    tracer = CommandRecordingTracer()
    tracer.install()
    try:
        workload.build_fixture(run_cli, fixture, 3, "tiny")
        for command in workload.commands(fixture, out, 3, "tiny"):
            tracer.command = command.label
            code, _, err = run_cli(command.argv)
            assert code == command.expected_exit, err
    finally:
        tracer.uninstall()
    sweep_grid, quota_grid = len(WORKLOADS.SWEEP_GRID), len(WORKLOADS.QUOTA_GRID)
    assert tracer.calls_by_command["rerank.pufr_rerank"] == {
        "sweep-pufr": sweep_grid, "sweep-uniform": sweep_grid, "sweep-fastar": quota_grid,
    }
    assert tracer.calls_by_command["rerank.uniform_rerank"] == {"sweep-uniform": sweep_grid}
    assert tracer.calls_by_command["baselines.fastar_rerank"] == {"sweep-fastar": quota_grid}
    assert tracer.calls_by_command["metrics.intersection_counts"] == {
        "intervals": len(WORKLOADS.INTERVAL_ALPHAS),
    }
