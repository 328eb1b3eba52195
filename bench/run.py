"""Benchmark of the ``pufr`` command-line tool, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload shallow-sweep --seed 1 --seconds 40 --trace 0

The run builds the workload's fixture from ``--seed``, then repeats passes
over the workload's ``pufr`` commands for about ``--seconds`` seconds. Each
pass runs in a child process forked after set-up and calls each command
through ``pufr.cli.main``. Set-up (importing the program in a fresh
interpreter, building the fixture, a tiny warm-up pass) is repeated a few
times over the same seconds. Every output is checked. With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics are reported.

On a shared cloud host the machine's speed shifts by half or more for
seconds to minutes at a time. So the gated times, ``queries_per_s`` and
``setup_s``, are reference times: each command's and each set-up's wall
time, scaled by the host's speed measured on a fixed kernel while it ran
(see speed.py). ``wall_queries_per_s`` and ``wall_setup_s`` are the same
figures from plain wall time; they are printed and saved, not gated. A
command's time is the median over the run's untraced passes, and set-up
time the median of its repetitions, which are spread over the run.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, and the full result, with the host record,
is saved under ``.bench_work/results/``. The exit code is 0 when every
output is correct, 1 when one is not, and 2 when the program cannot be
imported from ``src/``.

``--size tiny`` runs the same commands, checks and tracer on small inputs;
``python3 -m pytest bench/smoke.py`` runs it for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One thread of work: numpy's BLAS would otherwise use every core. Set
# before numpy is first imported, because its BLAS reads these only then.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import host  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
RECORDED_SEED = 1
SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}
COMMAND_METRICS = (
    "sweep_pufr_s", "sweep_uniform_s", "sweep_fastar_s", "sweep_constrained_s",
    "rerank_s", "intervals_s", "laplace_s",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_work")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program():
    """Import ``pufr.cli`` from this checkout's ``src/``; None if absent."""
    src = ROOT / "src"
    if not (src / "pufr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import pufr.cli

    if src.resolve() not in Path(pufr.cli.__file__).resolve().parents:
        return None
    return pufr.cli


def time_import() -> tuple[float, float]:
    """Wall and reference seconds a fresh interpreter takes to import
    ``pufr.cli`` from ``src/``, numpy and scipy included."""
    src = ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "speed.py")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    if (
        proc.returncode != 0
        or len(lines) != 3
        or src.resolve() not in Path(lines[2]).resolve().parents
    ):
        raise RuntimeError(f"a fresh interpreter could not import pufr.cli: {proc.stderr[-500:]}")
    return float(lines[0]), float(lines[1])


def in_child(fn):
    """Call ``fn()`` in a forked child, so that it starts from this process's
    state and leaves none behind. Returns its result and the child's peak
    resident memory in MB."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:  # the child never returns into the caller's code
            os.close(read_fd)
            try:
                payload, status = pickle.dumps((True, fn())), 0
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    ok, value = pickle.loads(payload) if payload else (False, f"child ended with status {status}")
    if not ok:
        raise RuntimeError(f"benchmark pass failed in its child process:\n{value}")
    return value, usage.ru_maxrss / 1024.0


@dataclass
class PassResult:
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)  # command label -> seconds
    reference_s: dict[str, float] = field(default_factory=dict)  # at the reference speed
    codes: dict[str, int] = field(default_factory=dict)
    stderr: dict[str, str] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Bench:
    def __init__(self, args: argparse.Namespace, cli) -> None:
        self.args = args
        self.cli = cli
        self.workload = workloads.WORKLOADS[args.workload]
        base = args.work_dir / f"{args.workload}-{args.size}"
        self.fixture = base / "fixture"
        self.out = base / "out"
        self.tiny_fixture = args.work_dir / f"{args.workload}-warmup" / "fixture"
        self.tiny_out = args.work_dir / f"{args.workload}-warmup" / "out"
        for path in (self.fixture, self.out, self.tiny_fixture, self.tiny_out):
            path.mkdir(parents=True, exist_ok=True)
        self.errors: list[str] = []
        self.sampler = speed.SpeedSampler()
        self.setup_times: list[float] = []  # at the reference speed
        self.setup_walls: list[float] = []
        self.fixture_digests: list[dict[str, str]] = []

    # -- running commands -------------------------------------------------

    def run_cli(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except Exception:  # a crash of the program counts as a failed command
            return -1, out.getvalue(), err.getvalue() + traceback.format_exc()
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, commands, out_dir: Path, spans=None) -> PassResult:
        """Run each command once; ``spans``, a Tracer, traces the pass.
        An untraced pass samples the host's speed while its commands run
        (see speed.py); a traced one only before and after each command."""
        result = PassResult(traced=spans is not None)
        if spans is not None:
            spans.install(tuple(workloads.EXPECTED_CALLS))
        sampling = self.sampler.running() if spans is None else contextlib.nullcontext()
        try:
            with sampling:
                for cmd in commands:
                    for name in cmd.outputs:
                        (out_dir / name).unlink(missing_ok=True)
                    gc.collect()
                    (code, _, err), wall, reference = self.sampler.timed(
                        lambda: self.run_cli(cmd.argv))
                    result.walls[cmd.label] = wall
                    result.reference_s[cmd.label] = reference
                    result.codes[cmd.label] = code
                    result.stderr[cmd.label] = err
                    result.digests[cmd.label] = {
                        name: checks.digest(out_dir / name)
                        for name in cmd.outputs
                        if (out_dir / name).is_file()
                    }
        finally:
            if spans is not None:
                spans.uninstall()
                result.stats, result.counters = spans.stats, spans.counters
                result.missing = spans.missing
        return result

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """One set-up repetition: import the program in a fresh interpreter,
        build the fixture and warm up on tiny inputs."""
        import_wall, import_reference = time_import()
        gc.collect()

        def build() -> list[str]:
            names = self.workload.build_fixture(
                self.run_cli, self.fixture, self.args.seed, self.args.size
            )
            self.warm_up()
            return names

        with self.sampler.running():
            names, wall, reference = self.sampler.timed(build)
        self.setup_walls.append(import_wall + wall)
        self.setup_times.append(import_reference + reference)
        self.fixture_digests.append({n: checks.digest(self.fixture / n) for n in names})

    def warm_up(self) -> None:
        """One tiny pass, so lazy imports and first-call costs are paid in set-up."""
        seed = self.args.seed
        self.workload.build_fixture(self.run_cli, self.tiny_fixture, seed, "tiny")
        commands = self.workload.commands(self.tiny_fixture, self.tiny_out, seed, "tiny")
        warm = self.run_pass(commands, self.tiny_out)
        for cmd in commands:
            if warm.codes[cmd.label] != cmd.expected_exit:
                self.errors.append(
                    f"warm-up {cmd.label} exited {warm.codes[cmd.label]}: "
                    f"{warm.stderr[cmd.label].strip()[-500:]}"
                )

    def traced_setup(self) -> dict:
        """Call statistics of one traced fixture build."""
        spans = tracer.Tracer()
        spans.install(tuple(workloads.EXPECTED_CALLS))
        try:
            self.workload.build_fixture(self.run_cli, self.fixture, self.args.seed, self.args.size)
        finally:
            spans.uninstall()
        return spans.stats

    # -- measuring --------------------------------------------------------

    def measure(self, commands, start: float) -> tuple[list[PassResult], float]:
        """Repeat passes until about --seconds after ``start``; with tracing,
        alternate untraced and traced passes, at least one of each.

        Each pass runs in a child forked after set-up, as each ``pufr`` call
        is a process of its own: no pass inherits what an earlier one left.
        The set-up repetitions after the first are spread over the same
        seconds, so that they sample the host's speed at different times
        as the passes do. Also returns the peak resident memory in MB of
        this process and its children.
        """
        passes: list[PassResult] = []
        peak_rss_mb = 0.0
        while True:
            traced = bool(self.args.trace and len(passes) % 2 == 1)
            result, child_rss_mb = in_child(
                lambda: self.run_pass(commands, self.out, tracer.Tracer() if traced else None)
            )
            passes.append(result)
            peak_rss_mb = max(peak_rss_mb, child_rss_mb)
            elapsed = time.perf_counter() - start
            due = len(self.setup_times) * self.args.seconds / SETUP_REPS
            if len(self.setup_times) < SETUP_REPS and elapsed >= due:
                self.setup()
                elapsed = time.perf_counter() - start
            estimate = statistics.median(p.wall for p in passes)
            if self.args.trace and len(passes) < 2:
                continue
            if elapsed + estimate / 2 >= self.args.seconds:
                break
        while len(self.setup_times) < SETUP_REPS:
            self.setup()
        self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return passes, max(peak_rss_mb, self_rss_mb)

    # -- checking ---------------------------------------------------------

    def check(self, commands, passes: list[PassResult]) -> dict[str, int]:
        """Failed invocations per command label; errors go to self.errors."""
        fixture_digests = self.fixture_digests[0]
        if any(d != fixture_digests for d in self.fixture_digests):
            self.errors.append("fixture generation is not deterministic")
        failed = {cmd.label: 0 for cmd in commands}
        reference = passes[0].digests
        for i, p in enumerate(passes):
            for cmd in commands:
                bad = []
                if p.codes[cmd.label] != cmd.expected_exit:
                    bad.append(
                        f"exited {p.codes[cmd.label]}, expected {cmd.expected_exit}: "
                        f"{p.stderr[cmd.label].strip()[-500:]}"
                    )
                if set(p.digests[cmd.label]) != set(cmd.outputs):
                    bad.append("did not write all of its outputs")
                elif p.digests[cmd.label] != reference[cmd.label]:
                    kind = "traced" if p.traced else "untraced"
                    bad.append(f"{kind} pass {i + 1} output differs from pass 1")
                if bad:
                    failed[cmd.label] += 1
                    self.errors.extend(f"{cmd.label}: {b}" for b in bad)

        try:
            invariant_errors = self.workload.check(
                self.fixture, self.out, self.args.seed, self.args.size, passes[0].stderr
            )
        except Exception:
            invariant_errors = {cmd.label: [traceback.format_exc()] for cmd in commands}
        recorded = self.recorded_digests()
        if recorded is not None:
            for name, want in recorded.get("fixture", {}).items():
                if fixture_digests.get(name) != want:
                    self.errors.append(
                        f"fixture {name}: digest {fixture_digests.get(name)} differs from "
                        f"the recorded {want}"
                    )
        for cmd in commands:
            errors = list(invariant_errors.get(cmd.label, []))
            if recorded is not None and reference[cmd.label] != recorded.get(cmd.label):
                errors.append(
                    f"output digests {reference[cmd.label]} differ from the recorded "
                    f"{recorded.get(cmd.label)}"
                )
            if errors:
                failed[cmd.label] = len(passes)
                self.errors.extend(f"{cmd.label}: {e}" for e in errors)
        return failed

    def recorded_digests(self) -> dict | None:
        if self.args.seed != RECORDED_SEED or not DIGESTS_PATH.is_file():
            return None
        table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        return table.get(self.args.workload, {}).get(self.args.size)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_pass_s(commands, passes: list[PassResult]) -> float:
    """Sum over commands of each command's median wall time in these passes."""
    return sum(_median(p.walls[c.label] for p in passes) for c in commands)


def median_reference_pass_s(commands, passes: list[PassResult]) -> float:
    """Sum over commands of each command's median time at the reference
    host speed in these passes."""
    return sum(_median(p.reference_s[c.label] for p in passes) for c in commands)


def command_metrics(commands, passes: list[PassResult]) -> dict[str, float]:
    """Median wall time per command figure over the given passes; 0 for a
    command the workload does not run."""
    out = {name: 0.0 for name in COMMAND_METRICS}
    for name in COMMAND_METRICS:
        group = [c for c in commands if c.metric == name]
        if group and passes:
            out[name] = median_pass_s(group, passes)
    return out


def layer_metrics(commands, passes, setup_stats) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes (times the median over
    them, counts from the first), plus untraced command wall times."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0]

    def self_s(name: str) -> float:
        return _median(p.stats[name].self_s if name in p.stats else 0.0 for p in traced)

    def calls(name: str) -> float:
        return first.stats[name].calls if name in first.stats else 0

    def pct(name: str, q: float) -> float:
        merged = tracer.CallStats()
        for p in traced:
            if name in p.stats:
                merged.durations.extend(p.stats[name].durations)
        return merged.percentile_us(q)

    def counter(name: str) -> float:
        return first.counters.get(name, 0)

    candidates_in = sum(c.candidates for c in commands)
    mc_gflop = counter("uncertainty.mc_flops") / 1e9
    score_s = _median(
        p.stats["uncertainty.score_query"].total_s
        for p in traced if "uncertainty.score_query" in p.stats
    )
    m: dict[str, tuple[float, str]] = {}
    for name in (
        "fileio.parse_run_file", "fileio.parse_sigma_file", "fileio.parse_neutrality_file",
        "fileio.parse_qrels", "fileio.attach_sigmas", "fileio.attach_neutrality",
        "core.build_query", "core.assign_groups",
        "fileio.parse_features_file", "fileio.parse_posterior_file",
        "fileio.write_run_file", "fileio.write_sigma_file",
        "rerank.adjust_scores", "rerank.uniform_rerank", "rerank.compute_sigma_mean",
        "core.rank_by_score", "sweep.records_to_csv",
        "metrics.grades_for_query", "metrics.ndcg_at_k", "metrics.nfairr_at_k",
        "metrics.ideal_fairr_at_k", "metrics.paired_t_test", "metrics.intersection_counts",
        "baselines.compute_m_table", "baselines.fastar_rerank", "baselines.unfair_rank",
        "baselines.constrained_rerank", "baselines.hungarian_assign",
        "uncertainty.sample_last_layers", "uncertainty.predictive_moments",
    ):
        m[f"{name}.s"] = (self_s(name), "s")
    for name in ("sweep.run_sweep", "sweep.report_interval_analysis",
                 "uncertainty.score_query", "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    synth = setup_stats.get("synth.generate_synthetic")
    m["synth.generate_synthetic.s"] = (synth.self_s if synth else 0.0, "s")
    for name in ("rerank.pufr_rerank", "core.rank_by_score", "metrics.grades_for_query",
                 "metrics.ndcg_at_k", "baselines.hungarian_assign",
                 "uncertainty.predictive_moments"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name, quantiles in (("rerank.pufr_rerank", (0.5, 0.99)),
                            ("metrics.intersection_counts", (0.5,)),
                            ("baselines.constrained_rerank", (0.5, 0.99))):
        for q in quantiles:
            m[f"{name}.p{round(q * 100)}_us"] = (pct(name, q), "us")
    built = counter("core.candidates_built")
    m["core.candidates_built"] = (built, "count")
    m["core.candidates_built_per_candidate"] = (built / candidates_in, "ratio")
    m["fileio.bytes_read"] = (counter("fileio.bytes_read"), "B")
    m["fileio.bytes_written"] = (counter("fileio.bytes_written"), "B")
    m["baselines.constrained.bisection_steps"] = (
        counter("baselines.constrained.bisection_steps"), "count")
    m["baselines.constrained.infeasible"] = (counter("baselines.constrained.infeasible"), "count")
    m["uncertainty.mc_gflop"] = (mc_gflop, "GFLOP")
    m["uncertainty.mc_gflop_per_s"] = (mc_gflop / score_s if score_s else 0.0, "GFLOP/s")
    for name, value in command_metrics(commands, untraced).items():
        m[f"cli.{name[:-2]}.wall_s"] = (value, "s")
    m["trace_overhead_frac"] = (
        median_pass_s(commands, traced) / median_pass_s(commands, untraced) - 1.0, "frac")
    return m


def trace_notes(workload: str, passes: list[PassResult], setup_stats: dict) -> dict:
    """What the traced run could not cover: traced names the program no
    longer has, functions this workload should call but did not, and call
    counts that changed between traced passes."""
    traced = [p for p in passes if p.traced]
    called = {name for p in traced for name in p.stats} | set(setup_stats)
    counts = [{name: s.calls for name, s in p.stats.items()} for p in traced]
    return {
        "missing": traced[0].missing,
        "uncalled": sorted(
            name for name, where in workloads.EXPECTED_CALLS.items()
            if workload in where and name not in called
        ),
        "counts_differ_between_traced_passes": sorted(
            {name for c in counts for name in c if any(o.get(name) != c[name] for o in counts)}
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print(f"error: cannot import pufr from {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args, cli)

    started = time.perf_counter()
    bench.setup()
    setup_stats = bench.traced_setup() if args.trace else {}
    commands = bench.workload.commands(bench.fixture, bench.out, args.seed, args.size)
    passes, peak_rss_mb = bench.measure(commands, started)
    failed_by_command = bench.check(commands, passes)

    attempted = len(passes) * len(commands)
    failed = sum(failed_by_command.values())
    untraced = [p for p in passes if not p.traced]
    per_command = command_metrics(commands, untraced)
    results_per_pass = sum(c.results for c in commands)
    end_to_end = {
        "setup_s": statistics.median(bench.setup_times),
        "queries_per_s": results_per_pass / median_reference_pass_s(commands, untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    wall_queries_per_s = results_per_pass / median_pass_s(commands, untraced)
    notes: dict = {}
    if args.trace:
        metrics = layer_metrics(commands, passes, setup_stats)
        notes = trace_notes(args.workload, passes, setup_stats)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}
    correct = failed == 0 and not bench.errors

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.host_record(ROOT, args.seed),
        "passes": [
            {"traced": p.traced, "walls": p.walls, "reference_s": p.reference_s,
             "codes": p.codes}
            for p in passes
        ],
        "end_to_end": end_to_end,
        "wall_queries_per_s": wall_queries_per_s,
        "wall_setup_s": statistics.median(bench.setup_walls),
        "commands": per_command,
        "failed_frac": failed / attempted,
        "errors": bench.errors,
        "trace_notes": notes,
        "result": result,
    }
    results_dir = args.work_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(passes)} passes, trace {args.trace}")
    print("host " + json.dumps(record["host"]))
    shown = dict(metrics)
    if not args.trace:
        shown["wall_queries_per_s"] = (wall_queries_per_s, "1/s")
        shown["wall_setup_s"] = (record["wall_setup_s"], "s")
        shown.update({name: (value, "s") for name, value in per_command.items() if value})
    shown["failed_frac"] = (failed / attempted, "frac")
    for name, (value, unit) in shown.items():
        print(f"  {name:<44} {value!r} {unit}")
    for key, names in notes.items():
        if names:
            print(f"trace {key}: {', '.join(names)}")
    for error in bench.errors:
        print(f"error: {error}")
    print(f"saved {result_path}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
