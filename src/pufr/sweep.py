"""Experiment harness: re-rank a corpus across a hyperparameter grid,
evaluate utility and fairness at the configured cutoffs, time the
re-ranking, and emit one CSV row per (method, alpha)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .baselines import (
    DEFAULT_DEPTH,
    DEFAULT_SIGNIFICANCE,
    ConstraintConfig,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    unfair_rank,
)
from .core import QueryCandidates, Ranking
from .metrics import (
    MetricReport,
    RelevanceJudgments,
    median_intersections,
    ndcg_at_k,
    nfairr_at_k,
    paired_t_test,
)
from .rerank import PufrConfig, compute_sigma_mean, pufr_rerank, uniform_rerank

METHODS = ("pufr", "uniform", "unfair", "fastar", "constrained")

_SIGMA_METHODS = frozenset({"pufr", "uniform"})
_GROUP_METHODS = frozenset({"pufr", "uniform", "fastar"})
_UNIT_ALPHA_METHODS = frozenset({"fastar", "constrained"})


@dataclass(frozen=True)
class SweepConfig:
    method: str
    alpha_grid: tuple[float, ...]
    cutoffs_utility: tuple[int, ...] = (10, 100)
    cutoffs_fairness: tuple[int, ...] = (10, 50)
    depth: int = DEFAULT_DEPTH
    fastar_significance: float = DEFAULT_SIGNIFICANCE

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.alpha_grid:
            raise ValueError("alpha grid must not be empty")
        if any(not math.isfinite(a) for a in self.alpha_grid):
            raise ValueError("alpha grid values must be finite")
        if any(b <= a for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        if self.method in _UNIT_ALPHA_METHODS and not all(
            0.0 <= a <= 1.0 for a in self.alpha_grid
        ):
            raise ValueError(f"method {self.method!r} needs alpha values in [0, 1]")
        if not self.cutoffs_utility or not self.cutoffs_fairness:
            raise ValueError("cutoff lists must not be empty")
        if any(k < 1 for k in self.cutoffs_utility + self.cutoffs_fairness):
            raise ValueError("cutoffs must be >= 1")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class TradeoffRecord:
    """One sweep row: metric means, mean per-query re-rank seconds, and
    paired t-tests against the reference method per metric label."""

    method: str
    alpha: float
    ndcg: Mapping[int, float]
    nfairr: Mapping[int, float]
    mean_rerank_seconds: float
    t_vs_reference: Mapping[str, float]
    p_vs_reference: Mapping[str, float]


@dataclass(frozen=True)
class SweepResult:
    records: tuple[TradeoffRecord, ...]
    infeasible_queries: int


def _require_sigmas(corpus: Sequence[QueryCandidates], method: str) -> None:
    for query in corpus:
        for c in query.candidates:
            if c.sigma is None:
                raise ValueError(
                    f"method {method!r} needs sigma for every candidate, but "
                    f"({query.query_id}, {c.doc_id}) has none"
                )


def _has_sigmas(corpus: Sequence[QueryCandidates]) -> bool:
    return all(c.sigma is not None for q in corpus for c in q.candidates)


def _has_groups(corpus: Sequence[QueryCandidates]) -> bool:
    return all(c.group is not None for q in corpus for c in q.candidates)


def _evaluate(
    rankings: Mapping[str, Ranking],
    corpus: Sequence[QueryCandidates],
    judgments: RelevanceJudgments,
    cfg: SweepConfig,
) -> dict[str, MetricReport]:
    reports: dict[str, MetricReport] = {}
    for k in cfg.cutoffs_utility:
        reports[f"ndcg_cut_{k}"] = MetricReport.from_values(
            {q.query_id: ndcg_at_k(rankings[q.query_id], judgments, k) for q in corpus}
        )
    for k in cfg.cutoffs_fairness:
        reports[f"nfairr{k}"] = MetricReport.from_values(
            {q.query_id: nfairr_at_k(rankings[q.query_id], q, k) for q in corpus}
        )
    return reports


def run_sweep(
    corpus: Sequence[QueryCandidates],
    judgments: RelevanceJudgments,
    cfg: SweepConfig,
) -> SweepResult:
    """Run one method over its alpha grid.

    Per (method, alpha): every query is re-ranked (wall-clock timed per
    query, parsing and evaluation excluded), metrics are evaluated at the
    configured cutoffs, and each metric is t-tested against the reference
    method: the uncertainty-aware re-ranker at the same alpha where that
    is possible, the plain score ordering otherwise.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    for query in corpus:
        query.neutrality_by_doc()  # metrics need neutrality everywhere
    if cfg.method in _SIGMA_METHODS:
        _require_sigmas(corpus, cfg.method)
    if cfg.method in _GROUP_METHODS and not _has_groups(corpus):
        raise ValueError(f"method {cfg.method!r} needs group labels on every candidate")

    alphas = (0.0,) if cfg.method == "unfair" else cfg.alpha_grid
    sigma_mean = compute_sigma_mean(corpus) if cfg.method == "uniform" else None
    max_depth = max(len(q) for q in corpus)
    pufr_reference_ok = (
        cfg.method not in ("pufr", "unfair") and _has_sigmas(corpus) and _has_groups(corpus)
    )

    unfair_rankings = {q.query_id: unfair_rank(q) for q in corpus}
    unfair_reports = _evaluate(unfair_rankings, corpus, judgments, cfg)

    records = []
    infeasible_total = 0
    for alpha in alphas:
        rerank, count_infeasible = _make_reranker(cfg, alpha, sigma_mean, max_depth)
        rankings: dict[str, Ranking] = {}
        elapsed = 0.0
        infeasible = 0
        for query in corpus:
            start = time.perf_counter()
            ranking, feasible = rerank(query)
            elapsed += time.perf_counter() - start
            rankings[query.query_id] = ranking
            if count_infeasible and not feasible:
                infeasible += 1
        infeasible_total += infeasible
        reports = _evaluate(rankings, corpus, judgments, cfg)

        if pufr_reference_ok:
            pcfg = PufrConfig.symmetric(alpha)
            reference_rankings = {q.query_id: pufr_rerank(q, pcfg) for q in corpus}
            reference_reports = _evaluate(reference_rankings, corpus, judgments, cfg)
        else:
            reference_reports = unfair_reports

        t_stats = {}
        p_values = {}
        for label, report in reports.items():
            if len(corpus) < 2:
                # a paired test needs two measurements; single-query
                # corpora report nan rather than a fabricated result
                t_stats[label] = math.nan
                p_values[label] = math.nan
                continue
            result = paired_t_test(report.per_query, reference_reports[label].per_query)
            t_stats[label] = result.t_statistic
            p_values[label] = result.p_value

        records.append(
            TradeoffRecord(
                method=cfg.method,
                alpha=float(alpha),
                ndcg={k: reports[f"ndcg_cut_{k}"].mean for k in cfg.cutoffs_utility},
                nfairr={k: reports[f"nfairr{k}"].mean for k in cfg.cutoffs_fairness},
                mean_rerank_seconds=elapsed / len(corpus),
                t_vs_reference=t_stats,
                p_vs_reference=p_values,
            )
        )
    return SweepResult(records=tuple(records), infeasible_queries=infeasible_total)


def _make_reranker(
    cfg: SweepConfig, alpha: float, sigma_mean: float | None, max_depth: int
) -> tuple[Callable[[QueryCandidates], tuple[Ranking, bool]], bool]:
    if cfg.method == "pufr":
        pcfg = PufrConfig.symmetric(alpha)
        return (lambda q: (pufr_rerank(q, pcfg), True)), False
    if cfg.method == "uniform":
        assert sigma_mean is not None
        pcfg = PufrConfig.symmetric(alpha)
        return (lambda q: (uniform_rerank(q, sigma_mean, pcfg), True)), False
    if cfg.method == "unfair":
        return (lambda q: (unfair_rank(q), True)), False
    if cfg.method == "fastar":
        table = compute_m_table(max_depth, alpha, cfg.fastar_significance)
        return (lambda q: (fastar_rerank(q, table), True)), False
    ccfg = ConstraintConfig(alpha_fairness=alpha, depth=cfg.depth)

    def rerank(q: QueryCandidates) -> tuple[Ranking, bool]:
        result = constrained_rerank(q, ccfg)
        return result.ranking, result.feasible

    return rerank, True


def _format(value: float) -> str:
    return repr(float(value))


def records_to_csv(records: Sequence[TradeoffRecord]) -> str:
    """Serialize sweep records; cutoff columns appear in ascending k order
    and the t/p columns report the test for the smallest fairness cutoff."""
    if not records:
        raise ValueError("no records to serialize")
    utility_cutoffs = sorted(records[0].ndcg)
    fairness_cutoffs = sorted(records[0].nfairr)
    headline = f"nfairr{fairness_cutoffs[0]}"
    header = (
        ["method", "alpha"]
        + [f"ndcg_cut_{k}" for k in utility_cutoffs]
        + [f"nfairr{k}" for k in fairness_cutoffs]
        + ["rerank_time_s", "t_stat", "p_value"]
    )
    lines = [",".join(header)]
    for record in records:
        row = [record.method, _format(record.alpha)]
        row += [_format(record.ndcg[k]) for k in utility_cutoffs]
        row += [_format(record.nfairr[k]) for k in fairness_cutoffs]
        row += [
            _format(record.mean_rerank_seconds),
            _format(record.t_vs_reference[headline]),
            _format(record.p_vs_reference[headline]),
        ]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


def select_best_tradeoff(
    records: Sequence[TradeoffRecord],
    ndcg_floor: float,
    utility_cutoff: int = 100,
    fairness_cutoff: int = 50,
) -> TradeoffRecord | None:
    """Best fairness subject to a utility floor: among records with
    ndcg at the utility cutoff >= floor, the one maximizing nfairr at the
    fairness cutoff (first such record on ties); None if no record
    clears the floor."""
    best = None
    for record in records:
        if record.ndcg[utility_cutoff] < ndcg_floor:
            continue
        if best is None or record.nfairr[fairness_cutoff] > best.nfairr[fairness_cutoff]:
            best = record
    return best


def report_interval_analysis(
    corpus: Sequence[QueryCandidates], alphas: Sequence[float] = (1.0, 2.0)
) -> str:
    """CSV of per-rank median interval-intersection counts, one column
    group per interval width multiplier."""
    if not alphas:
        raise ValueError("need at least one alpha")
    columns = {alpha: median_intersections(corpus, alpha) for alpha in alphas}
    depth = max(len(col) for col in columns.values())
    header = ["rank"] + [f"median_swaps_alpha_{alpha:g}" for alpha in alphas]
    lines = [",".join(header)]
    for idx in range(depth):
        row = [str(idx + 1)]
        for alpha in alphas:
            col = columns[alpha]
            row.append(str(col[idx]) if idx < len(col) else "")
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


__all__ = [
    "METHODS",
    "SweepConfig",
    "TradeoffRecord",
    "SweepResult",
    "run_sweep",
    "records_to_csv",
    "select_best_tradeoff",
    "report_interval_analysis",
]
