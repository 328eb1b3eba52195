"""Experiment harness: re-rank a corpus across a hyperparameter grid,
evaluate utility and fairness at the configured cutoffs, time the
re-ranking, and emit one CSV row per (method, alpha). :func:`run_sweep` and
:func:`report_interval_analysis` take the corpus as one
:class:`~pufr.core.QueryStack`, read as rows padded to its longest query,
never a list of queries. Each alpha is one timed
re-ranker call on the stack and one stacked metric call per cutoff. PUFR,
its uniform ablation, the quota baseline and the plain score ordering rank
the whole stack in one array pass; the constrained baseline re-ranks query
by query inside that call (see :func:`run_sweep`). The interval analysis
counts each width multiplier's overlaps over the whole stack in one pass."""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .baselines import (
    DEFAULT_DEPTH,
    ConstraintConfig,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    unfair_rank,
)
from .core import QueryStack, StackedRanking
from .metrics import (
    RelevanceJudgments,
    check_interval_alpha,
    median_intersections,
    ndcg_at_k,
    nfairr_at_k,
    paired_t_test,
    sequential_sum,
)
from .rerank import PufrConfig, compute_sigma_mean, pufr_rerank, uniform_rerank

# A re-ranker ranks every query of a stack and counts the queries whose
# ranking is not certified: "infeasible" (the fairness floor was not met)
# or "exhausted" (the node cap cut the optimality search, so the ranking
# meets the floor but is not certified optimal). Only the constrained
# baseline counts either.
Reranker = Callable[[QueryStack], tuple[StackedRanking, Counter[str]]]
RerankerAt = Callable[[float], Reranker]

DEFAULT_INTERVAL_ALPHAS = (1.0, 2.0)


@dataclass(frozen=True)
class Method:
    """What a method needs from a corpus. ``prepare(stack, depth)`` does the
    corpus-wide work once and returns alpha -> re-ranker of the stack.

    ``needs_sigma``, ``needs_neutrality`` and ``needs_groups`` name the
    columns the re-ranker reads; group labels are drawn from neutrality, so
    a method that needs groups needs neutrality too. `pufr rerank` opens
    only the input files that give these columns."""

    name: str
    prepare: Callable[[QueryStack, int], RerankerAt]
    needs_sigma: bool = False
    needs_neutrality: bool = False
    needs_groups: bool = False
    unit_alpha: bool = False

    def check(self, alphas: Sequence[float], depth: int) -> None:
        """The checks `pufr rerank` and `pufr sweep` share, made before any file is read."""
        for alpha in alphas:
            if not math.isfinite(alpha):
                raise ValueError(f"alpha values must be finite, got {alpha!r}")
            if alpha < 0.0:
                raise ValueError(f"alpha values must be >= 0, got {alpha!r}")
            if self.unit_alpha and not 0.0 <= alpha <= 1.0:
                raise ValueError(f"method {self.name!r} needs alpha values in [0, 1]")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")


def _feasible(rerank: Callable[..., StackedRanking], *args: object) -> Reranker:
    return lambda stack: (rerank(stack, *args), Counter())


def _constrained(cfg: ConstraintConfig) -> Reranker:
    """The constrained baseline, row by row: its window solver works on one
    query at a time, and reads its floor from one column of the stack."""

    def run(stack: QueryStack) -> tuple[StackedRanking, Counter[str]]:
        rankings, problems = [], Counter()
        for query in stack:
            result = constrained_rerank(query, cfg)
            rankings.append(result.ranking)
            if not result.feasible:
                problems["infeasible"] += 1
            elif result.exhausted:
                problems["exhausted"] += 1
        return stack.rankings(rankings), problems

    return run


# The prepare functions name the library functions in their bodies, so a
# caller that rebinds those module globals (as bench/tracer.py does) sees every call.
def _prepare_pufr(stack: QueryStack, depth: int) -> RerankerAt:
    return lambda alpha: _feasible(pufr_rerank, PufrConfig.symmetric(alpha))


def _prepare_uniform(stack: QueryStack, depth: int) -> RerankerAt:
    sigma_mean = compute_sigma_mean(stack)
    return lambda alpha: _feasible(uniform_rerank, sigma_mean, PufrConfig.symmetric(alpha))


def _prepare_unfair(stack: QueryStack, depth: int) -> RerankerAt:
    return lambda alpha: _feasible(unfair_rank)


def _prepare_fastar(stack: QueryStack, depth: int) -> RerankerAt:
    max_len = int(stack.lengths.max())
    return lambda alpha: _feasible(fastar_rerank, compute_m_table(max_len, alpha))


def _prepare_constrained(stack: QueryStack, depth: int) -> RerankerAt:
    return lambda alpha: _constrained(ConstraintConfig(alpha, depth))


REGISTRY = {
    m.name: m
    for m in (
        Method("pufr", _prepare_pufr, needs_sigma=True, needs_neutrality=True,
               needs_groups=True),
        Method("uniform", _prepare_uniform, needs_sigma=True, needs_neutrality=True,
               needs_groups=True),
        Method("unfair", _prepare_unfair),
        Method("fastar", _prepare_fastar, needs_neutrality=True, needs_groups=True,
               unit_alpha=True),
        Method("constrained", _prepare_constrained, needs_neutrality=True, unit_alpha=True),
    )
}
METHODS = tuple(REGISTRY)


@dataclass(frozen=True)
class SweepConfig:
    method: str
    alpha_grid: tuple[float, ...]
    cutoffs_utility: tuple[int, ...] = (10, 100)
    cutoffs_fairness: tuple[int, ...] = (10, 50)
    depth: int = DEFAULT_DEPTH

    def __post_init__(self) -> None:
        if self.method not in REGISTRY:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.alpha_grid:
            raise ValueError("alpha grid must not be empty")
        REGISTRY[self.method].check(self.alpha_grid, self.depth)
        if any(b <= a for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        if not self.cutoffs_utility or not self.cutoffs_fairness:
            raise ValueError("cutoff lists must not be empty")
        if any(k < 1 for k in self.cutoffs_utility + self.cutoffs_fairness):
            raise ValueError("cutoffs must be >= 1")


@dataclass(frozen=True)
class TradeoffRecord:
    """One sweep row: metric means, re-rank seconds per query, and the
    paired t-test of nFaiRR at the smallest fairness cutoff against the
    reference method (nan for a single-query corpus). The seconds
    (``rerank_time_s`` in the CSV) are one timed re-ranker call on the
    whole stacked corpus divided by the number of queries, for every
    method."""

    method: str
    alpha: float
    ndcg: Mapping[int, float]
    nfairr: Mapping[int, float]
    mean_rerank_seconds: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class SweepResult:
    """The records, and how many (query, alpha) re-rankings missed their
    fairness floor or were cut by the solver's node cap."""

    records: tuple[TradeoffRecord, ...]
    infeasible_queries: int
    exhausted_queries: int


def _by_query(stack: QueryStack, values: np.ndarray) -> dict[str, float]:
    """A stacked metric column as query id -> value, in stack order."""
    return dict(zip(stack.query_ids, values.tolist()))


def run_sweep(stack: QueryStack, judgments: RelevanceJudgments, cfg: SweepConfig) -> SweepResult:
    """Run one method over its alpha grid.

    Per (method, alpha): one re-ranker call ranks the stack (wall-clock
    timed, parsing and evaluation excluded), one ``ndcg_at_k`` or
    ``nfairr_at_k`` call per cutoff evaluates it, each row with the bits it
    has alone, and nFaiRR at the smallest fairness cutoff is t-tested
    against the reference method: the uncertainty-aware re-ranker at the
    same alpha where that is possible, the plain score ordering otherwise.
    Both references rank the stack in one call too. Per-query values are
    keyed by query id, so a repeated id is an error.
    """
    stack.flat("neutrality")  # metrics need neutrality everywhere
    method = REGISTRY[cfg.method]
    has_sigmas, has_groups = stack.has("sigma"), stack.has("protected")
    if method.needs_sigma and not has_sigmas:
        raise ValueError(f"method {cfg.method!r} needs sigma on every candidate")
    if method.needs_groups and not has_groups:
        raise ValueError(f"method {cfg.method!r} needs group labels on every candidate")
    repeated = [query_id for query_id, n in Counter(stack.query_ids).items() if n > 1]
    if repeated:
        raise ValueError(f"query id {repeated[0]!r} is repeated in the corpus")

    alphas = (0.0,) if cfg.method == "unfair" else cfg.alpha_grid
    rerank_at = method.prepare(stack, cfg.depth)
    tested_k = min(cfg.cutoffs_fairness)

    def nfairr_by_query(ranked: StackedRanking) -> dict[str, float]:
        return _by_query(stack, nfairr_at_k(ranked, tested_k))

    if len(stack) < 2:
        reference_at = None
    elif cfg.method not in ("pufr", "unfair") and has_sigmas and has_groups:
        reference_at = lambda alpha: nfairr_by_query(
            pufr_rerank(stack, PufrConfig.symmetric(alpha)))
    else:
        unfair_reference = nfairr_by_query(unfair_rank(stack))
        reference_at = lambda alpha: unfair_reference

    records = []
    problems: Counter[str] = Counter()
    for alpha in alphas:
        rerank = rerank_at(alpha)
        start = time.perf_counter()
        ranked, counts = rerank(stack)
        elapsed = time.perf_counter() - start
        problems.update(counts)
        ndcg = {k: _by_query(stack, ndcg_at_k(ranked, judgments, k)) for k in cfg.cutoffs_utility}
        nfairr = {k: _by_query(stack, nfairr_at_k(ranked, k)) for k in cfg.cutoffs_fairness}

        if reference_at is None:
            # a paired test needs two measurements; single-query corpora
            # report nan rather than a fabricated result
            t_stat = p_value = math.nan
        else:
            result = paired_t_test(nfairr[tested_k], reference_at(alpha))
            t_stat, p_value = result.t_statistic, result.p_value

        records.append(
            TradeoffRecord(
                method=cfg.method,
                alpha=float(alpha),
                ndcg={k: _mean(v) for k, v in ndcg.items()},
                nfairr={k: _mean(v) for k, v in nfairr.items()},
                mean_rerank_seconds=elapsed / len(stack),
                t_stat=t_stat,
                p_value=p_value,
            )
        )
    return SweepResult(
        records=tuple(records),
        infeasible_queries=problems["infeasible"],
        exhausted_queries=problems["exhausted"],
    )


def _mean(per_query: Mapping[str, float]) -> float:
    return sequential_sum(np.array(list(per_query.values()))) / len(per_query)


def _format(value: float) -> str:
    return repr(float(value))


def records_to_csv(records: Sequence[TradeoffRecord]) -> str:
    """Serialize sweep records; cutoff columns appear in ascending k order."""
    if not records:
        raise ValueError("no records to serialize")
    utility_cutoffs = sorted(records[0].ndcg)
    fairness_cutoffs = sorted(records[0].nfairr)
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
        row += [_format(v) for v in (record.mean_rerank_seconds, record.t_stat, record.p_value)]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


def select_best_tradeoff(
    records: Sequence[TradeoffRecord],
    ndcg_floor: float,
    *,
    utility_cutoff: int,
    fairness_cutoff: int,
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


def _interval_column(alpha: float) -> str:
    return f"median_swaps_alpha_{alpha:g}"


def check_interval_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    """At least one alpha, each finite and > 0, no two under one column name."""
    alphas = tuple(map(check_interval_alpha, alphas))
    if not alphas:
        raise ValueError("need at least one alpha")
    names = [_interval_column(alpha) for alpha in alphas]
    if len(set(names)) < len(names):
        raise ValueError(f"alphas {alphas} repeat a column name: {', '.join(names)}")
    return alphas


def report_interval_analysis(
    stack: QueryStack, alphas: Sequence[float] = DEFAULT_INTERVAL_ALPHAS
) -> str:
    """CSV of per-rank median interval-intersection counts, one column
    group per interval width multiplier; every column has a row per rank
    of the deepest query. The corpus is one stack for every alpha."""
    alphas = check_interval_alphas(alphas)
    columns = [median_intersections(stack, alpha) for alpha in alphas]
    lines = [",".join(["rank"] + [_interval_column(alpha) for alpha in alphas])]
    for rank, counts in enumerate(zip(*columns), start=1):
        lines.append(",".join(map(str, (rank, *counts))))
    return "".join(line + "\n" for line in lines)
