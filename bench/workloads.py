"""The benchmark's workloads: fixtures built from a seed, the ``pufr``
commands each pass runs, and the checks on what those commands write.

Each workload stresses different layers, so that an optimisation of one
layer is seen on the workload that exercises it and predicted to leave
the others unchanged:

- ``shallow-sweep``: the paper's trade-off loop on top-100 lists, where
  re-ranking, metrics and the sweep harness dominate.
- ``deep-rerank``: top-1000 re-ranking, where parsing, joining and
  candidate validation dominate, plus the constrained solver.
- ``laplace-768``: Laplace last-layer scoring at BERT's hidden size, the
  only workload that runs ``uncertainty`` and reads the wide feature
  format; re-ranking, metrics and baselines are bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SWEEP_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
QUOTA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
INTERVAL_ALPHAS = (1.0, 2.0)  # the defaults of `pufr intervals`
CONSTRAINED_GRID = (0.5, 0.9)
CONSTRAINED_DEPTH = 50
RERANK_ALPHA = 1.0
RERANK_METHODS = ("pufr", "uniform", "unfair")
MC_SAMPLES = 1000
LAPLACE_DAMPING = 0.001

# Runs `pufr.cli.main` on an argument list; returns (exit code, stdout, stderr).
CliRunner = Callable[[list[str]], tuple[int, str, str]]


@dataclass(frozen=True)
class Command:
    label: str
    metric: str  # the per-command wall-time figure this command adds to
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    results: int  # (query, alpha) results written
    candidates: int  # candidates read from the input
    expected_exit: int = 0


def _grid(values: tuple[float, ...]) -> str:
    return ",".join(f"{v:g}" for v in values)


def _corpus_args(fixture: Path) -> list[str]:
    return [
        "--run", str(fixture / "fixture.run"),
        "--sigmas", str(fixture / "fixture.sigma"),
        "--neutrality", str(fixture / "fixture.neutrality"),
    ]


def _synth(cli: CliRunner, fixture: Path, seed: int, queries: int, candidates: int) -> list[str]:
    argv = [
        "synth", "--output", str(fixture), "--queries", str(queries),
        "--candidates", str(candidates), "--seed", str(seed),
    ]
    code, _, err = cli(argv)
    if code != 0:
        raise RuntimeError(f"pufr synth exited {code}: {err.strip()}")
    return ["fixture.run", "fixture.sigma", "fixture.neutrality", "fixture.qrels"]


class ShallowSweep:
    name = "shallow-sweep"
    sizes = {"full": (200, 100), "tiny": (12, 10)}  # queries, candidates

    def build_fixture(self, cli: CliRunner, fixture: Path, seed: int, size: str) -> list[str]:
        return _synth(cli, fixture, seed, *self.sizes[size])

    def commands(self, fixture: Path, out: Path, seed: int, size: str) -> list[Command]:
        queries, candidates = self.sizes[size]
        n = queries * candidates
        corpus = _corpus_args(fixture) + ["--qrels", str(fixture / "fixture.qrels")]
        sweeps = [
            Command(
                label=f"sweep-{method}",
                metric=f"sweep_{method}_s",
                argv=("sweep", *corpus, "--method", method, "--alpha-grid", _grid(grid),
                      "--output", str(out / f"sweep_{method}.csv")),
                outputs=(f"sweep_{method}.csv",),
                results=queries * len(grid),
                candidates=n,
            )
            for method, grid in (("pufr", SWEEP_GRID), ("uniform", SWEEP_GRID),
                                 ("fastar", QUOTA_GRID))
        ]
        intervals = Command(
            label="intervals",
            metric="intervals_s",
            argv=("intervals", "--run", str(fixture / "fixture.run"),
                  "--sigmas", str(fixture / "fixture.sigma"),
                  "--output", str(out / "intervals.csv")),
            outputs=("intervals.csv",),
            results=queries * len(INTERVAL_ALPHAS),
            candidates=n,
        )
        return sweeps + [intervals]

    def check(self, fixture: Path, out: Path, seed: int, size: str,
              stderr: dict[str, str]) -> dict[str, list[str]]:
        fx = checks.read_fixture(fixture)
        return {
            "sweep-pufr": checks.check_sweep(
                fx, out / "sweep_pufr.csv", "pufr", SWEEP_GRID, checks.pufr_oracle(fx, False)),
            "sweep-uniform": checks.check_sweep(
                fx, out / "sweep_uniform.csv", "uniform", SWEEP_GRID,
                checks.pufr_oracle(fx, True)),
            "sweep-fastar": checks.check_sweep(
                fx, out / "sweep_fastar.csv", "fastar", QUOTA_GRID, checks.fastar_oracle(fx)),
            "intervals": checks.check_intervals(fx, out / "intervals.csv", INTERVAL_ALPHAS),
        }


class DeepRerank:
    name = "deep-rerank"
    sizes = {"full": (50, 1000), "tiny": (6, 150)}

    def build_fixture(self, cli: CliRunner, fixture: Path, seed: int, size: str) -> list[str]:
        return _synth(cli, fixture, seed, *self.sizes[size])

    def commands(self, fixture: Path, out: Path, seed: int, size: str) -> list[Command]:
        queries, candidates = self.sizes[size]
        n = queries * candidates
        reranks = [
            Command(
                label=f"rerank-{method}",
                metric="rerank_s",
                argv=("rerank", *_corpus_args(fixture), "--method", method,
                      "--alpha", f"{RERANK_ALPHA:g}", "--tag", method,
                      "--output", str(out / f"rerank_{method}.run")),
                outputs=(f"rerank_{method}.run",),
                results=queries,
                candidates=n,
            )
            for method in RERANK_METHODS
        ]
        infeasible = checks.infeasible_count(
            checks.read_fixture(fixture), CONSTRAINED_GRID, CONSTRAINED_DEPTH
        )
        constrained = Command(
            label="sweep-constrained",
            metric="sweep_constrained_s",
            argv=("sweep", *_corpus_args(fixture), "--qrels", str(fixture / "fixture.qrels"),
                  "--method", "constrained", "--alpha-grid", _grid(CONSTRAINED_GRID),
                  "--depth", str(CONSTRAINED_DEPTH),
                  "--output", str(out / "sweep_constrained.csv")),
            outputs=("sweep_constrained.csv",),
            results=queries * len(CONSTRAINED_GRID),
            candidates=n,
            # an infeasible fairness floor is reported with exit code 2
            expected_exit=2 if infeasible else 0,
        )
        return reranks + [constrained]

    def check(self, fixture: Path, out: Path, seed: int, size: str,
              stderr: dict[str, str]) -> dict[str, list[str]]:
        fx = checks.read_fixture(fixture)
        infeasible = checks.infeasible_count(fx, CONSTRAINED_GRID, CONSTRAINED_DEPTH)
        return {
            "rerank-pufr": checks.check_pufr_run(
                fx, out / "rerank_pufr.run", RERANK_ALPHA, uniform=False),
            "rerank-uniform": checks.check_pufr_run(
                fx, out / "rerank_uniform.run", RERANK_ALPHA, uniform=True),
            "rerank-unfair": checks.check_unfair_run(fx, out / "rerank_unfair.run", "unfair"),
            "sweep-constrained": checks.check_sweep(
                fx, out / "sweep_constrained.csv", "constrained", CONSTRAINED_GRID,
                lambda alpha: None)
            + checks.check_infeasible_report(stderr.get("sweep-constrained", ""), infeasible),
        }


class Laplace768:
    name = "laplace-768"
    sizes = {"full": (20, 100, 768), "tiny": (3, 8, 32)}  # queries, docs, dimension

    def arrays(self, seed: int, size: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features (queries x docs x d), last-layer weights and raw Fisher
        diagonal, drawn so that scores are O(1) and sigmas a few tenths."""
        queries, docs, dim = self.sizes[size]
        rng = np.random.default_rng(seed)
        theta = rng.normal(0.0, 1.0 / np.sqrt(dim), dim)
        fisher = rng.uniform(1e3, 1e4, dim)
        features = rng.standard_normal((queries, docs, dim))
        return features, theta, fisher

    def doc_ids(self, size: str) -> dict[str, list[str]]:
        queries, docs, _ = self.sizes[size]
        return {f"q{q:03d}": [f"q{q:03d}-d{j:03d}" for j in range(docs)] for q in range(queries)}

    def build_fixture(self, cli: CliRunner, fixture: Path, seed: int, size: str) -> list[str]:
        features, theta, fisher = self.arrays(seed, size)
        fixture.mkdir(parents=True, exist_ok=True)
        # tolist() yields builtin floats, whose repr is plain digits; the repr
        # of an np.float64 is "np.float64(...)", which the parser rejects
        with open(fixture / "features", "w", encoding="utf-8") as fh:
            for block, (qid, docs) in zip(features, self.doc_ids(size).items()):
                for row, doc in zip(block, docs):
                    fh.write(f"{qid} {doc} " + " ".join(map(repr, row.tolist())) + "\n")
        dim = len(theta)
        (fixture / "posterior").write_text(
            f"theta {dim} " + " ".join(map(repr, theta.tolist())) + "\n"
            + f"fisher {dim} " + " ".join(map(repr, fisher.tolist())) + "\n"
            + f"damping {LAPLACE_DAMPING!r}\n",
            encoding="utf-8",
        )
        return ["features", "posterior"]

    def commands(self, fixture: Path, out: Path, seed: int, size: str) -> list[Command]:
        queries, docs, _ = self.sizes[size]
        return [
            Command(
                label="laplace",
                metric="laplace_s",
                argv=("laplace", "--features", str(fixture / "features"),
                      "--posterior", str(fixture / "posterior"),
                      "--mc-samples", str(MC_SAMPLES), "--seed", str(seed),
                      "--output", str(out / "laplace.run"),
                      "--sigma-output", str(out / "laplace.sigma")),
                outputs=("laplace.run", "laplace.sigma"),
                results=queries,
                candidates=queries * docs,
            )
        ]

    def check(self, fixture: Path, out: Path, seed: int, size: str,
              stderr: dict[str, str]) -> dict[str, list[str]]:
        features, theta, fisher = self.arrays(seed, size)
        return {
            "laplace": checks.check_laplace(
                out / "laplace.run", out / "laplace.sigma", self.doc_ids(size),
                features, theta, fisher + LAPLACE_DAMPING, MC_SAMPLES),
        }


WORKLOADS = {w.name: w for w in (ShallowSweep(), DeepRerank(), Laplace768())}

_SWEEPS = ("shallow-sweep", "deep-rerank")
_ALL = tuple(WORKLOADS)

# Traced functions and the workloads on which each must record calls.
EXPECTED_CALLS = {
    "cli.main": _ALL,
    "synth.generate_synthetic": _SWEEPS,
    "fileio.parse_run_file": _SWEEPS,
    "fileio.parse_sigma_file": _SWEEPS,
    "fileio.parse_neutrality_file": _SWEEPS,
    "fileio.parse_qrels": _SWEEPS,
    "fileio.attach_sigmas": _SWEEPS,
    "fileio.attach_neutrality": _SWEEPS,
    "fileio.parse_features_file": ("laplace-768",),
    "fileio.parse_posterior_file": ("laplace-768",),
    "fileio.write_run_file": ("deep-rerank", "laplace-768"),
    "fileio.write_sigma_file": ("laplace-768",),
    "core.build_query": _ALL,
    "core.assign_groups": _SWEEPS,
    "core.rank_by_score": _ALL,
    "rerank.adjust_scores": _SWEEPS,
    "rerank.pufr_rerank": _SWEEPS,
    "rerank.uniform_rerank": _SWEEPS,
    "rerank.compute_sigma_mean": _SWEEPS,
    "sweep.run_sweep": _SWEEPS,
    "sweep.records_to_csv": _SWEEPS,
    "sweep.report_interval_analysis": ("shallow-sweep",),
    "metrics.grades_for_query": _SWEEPS,
    "metrics.ndcg_at_k": _SWEEPS,
    "metrics.nfairr_at_k": _SWEEPS,
    "metrics.ideal_fairr_at_k": _SWEEPS,
    "metrics.paired_t_test": _SWEEPS,
    "metrics.intersection_counts": ("shallow-sweep",),
    "baselines.compute_m_table": ("shallow-sweep",),
    "baselines.fastar_rerank": ("shallow-sweep",),
    "baselines.unfair_rank": _ALL,
    "baselines.constrained_rerank": ("deep-rerank",),
    "baselines.hungarian_assign": ("deep-rerank",),
    "uncertainty.sample_last_layers": ("laplace-768",),
    "uncertainty.predictive_moments": ("laplace-768",),
    "uncertainty.score_query": ("laplace-768",),
}
