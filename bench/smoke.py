"""The benchmark's own tests: every workload at tiny size, through the
same commands, output checks and tracer as a full run.

    python3 -m pytest -q bench/smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

WORKLOAD_NAMES = tuple(WORKLOADS)
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def two_setup_reps(monkeypatch):
    # two repetitions still check that set-up is deterministic; each costs
    # a fresh interpreter's import of numpy and scipy
    monkeypatch.setattr(run, "SETUP_REPS", 2)


def bench(capsys, tmp_path: Path, workload: str, trace: int, seed: int = 3) -> tuple[int, dict, dict]:
    """Run one tiny benchmark in-process; returns exit code, result line and saved record."""
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny", "--work-dir", str(tmp_path),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = tmp_path / "results" / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return code, result, json.loads(saved.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_tiny_run_is_correct_and_reports_end_to_end_metrics(capsys, tmp_path, workload):
    code, result, record = bench(capsys, tmp_path, workload, trace=0)
    assert record["errors"] == []
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    host = record["host"]
    for key in ("cpu_model", "nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "seed", "src_lines"):
        assert key in host
    assert host["blas_threads"] == 1 and host["src_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_tiny_run_covers_its_layers_and_matches_untraced_outputs(capsys, tmp_path, workload):
    # correct implies every traced pass wrote the same digests as untraced pass 1
    code, result, record = bench(capsys, tmp_path, workload, trace=1)
    assert record["errors"] == []
    assert code == 0 and result["correct"]
    assert record["trace_notes"] == {
        "missing": [], "uncalled": [], "counts_differ_between_traced_passes": [],
    }
    assert any(p["traced"] for p in record["passes"])
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_recorded_seed_matches_the_recorded_digests(capsys, tmp_path):
    code, result, record = bench(capsys, tmp_path, "deep-rerank", trace=0, seed=run.RECORDED_SEED)
    assert code == 0 and result["correct"], record["errors"]


def test_wrong_digest_fails_the_run(capsys, tmp_path, monkeypatch):
    table = json.loads(run.DIGESTS_PATH.read_text(encoding="utf-8"))
    table["shallow-sweep"]["tiny"]["intervals"]["intervals.csv"] = "0" * 64
    fake = tmp_path / "digests.json"
    fake.write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setattr(run, "DIGESTS_PATH", fake)
    code, result, record = bench(capsys, tmp_path, "shallow-sweep", trace=0, seed=run.RECORDED_SEED)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] // 4  # every intervals invocation
    assert any("recorded" in e for e in record["errors"])


def test_wrong_rerank_output_fails_the_run(capsys, tmp_path, monkeypatch):
    import pufr.rerank

    original = pufr.rerank.adjust_scores

    def doubled(query, cfg):
        return original(query, type(cfg).symmetric(2 * cfg.alpha_protected))

    monkeypatch.setattr(pufr.rerank, "adjust_scores", doubled)
    code, result, record = bench(capsys, tmp_path, "deep-rerank", trace=0)
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert any("rerank-pufr" in e and "oracle" in e for e in record["errors"])


def test_tracer_patches_every_binding_site_and_restores_them():
    run.import_program()
    import pufr.baselines
    import pufr.core
    import pufr.rerank
    from tracer import Tracer

    original = pufr.core.rank_by_score
    tracer = Tracer()
    tracer.install(("core.rank_by_score", "core.no_such_function"))
    try:
        assert pufr.rerank.rank_by_score is pufr.core.rank_by_score is not original
        assert pufr.baselines.rank_by_score is pufr.core.rank_by_score
        assert tracer.missing == ["core.no_such_function"]
        query = pufr.core.assign_groups(pufr.core.build_query("q", [
            pufr.core.ScoredCandidate(doc_id="a", mu=1.0, sigma=0.1, neutrality=1.0),
            pufr.core.ScoredCandidate(doc_id="b", mu=0.5, sigma=0.1, neutrality=0.0),
        ]))
        pufr.rerank.pufr_rerank(query, pufr.rerank.PufrConfig.symmetric(1.0))
    finally:
        tracer.uninstall()
    assert pufr.rerank.rank_by_score is original and pufr.core.rank_by_score is original
    outer = tracer.stats["rerank.pufr_rerank"]
    assert tracer.stats["core.rank_by_score"].calls == 1
    assert tracer.stats["rerank.adjust_scores"].calls == 1
    assert 0.0 <= outer.self_s <= outer.total_s
    assert tracer.counters["core.candidates_built"] > 0


def test_speed_sampler_leaves_its_own_time_out_and_stops_its_timer():
    import signal
    import time

    import speed

    def busy() -> int:
        spins, end = 0, time.perf_counter() + 0.3
        while time.perf_counter() < end:
            spins += 1
        return spins

    handler = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    start = time.perf_counter()
    with sampler.running(), sampler.running():  # nested, as warm-up inside set-up
        spins, wall, reference = sampler.timed(busy)
    elapsed = time.perf_counter() - start
    assert spins > 0 and reference > 0
    assert len(sampler.samples) > 2  # alarms fired between the two explicit samples
    in_alarms = sum(s for _, s in sampler.samples[1:-1])
    assert wall < elapsed - in_alarms
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    for path in spec()["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec()["command"][1:], "--workload", "shallow-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"][0] == "python3" and len(data["command"]) <= 32
    assert 1 <= data["run_seconds"] <= 60 and isinstance(data["run_seconds"], int)
    assert [w["name"] for w in data["workloads"]] == list(WORKLOAD_NAMES)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in data[group]]
    assert len(names) == len(set(names)) and all(NAME_RE.match(n) for n in names)
    for m in data["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in data["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in data["end_to_end"] + data["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
