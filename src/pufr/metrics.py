"""Evaluation: nDCG@k, rank-discounted neutrality (FaiRR/nFaiRR), paired
t-tests, and uncertainty-interval intersection counts."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
from scipy import stats

from .core import QueryCandidates, Ranking


@dataclass(frozen=True)
class RelevanceJudgments:
    """Graded relevance per (query, doc); missing pairs count as grade 0.

    Construction takes a snapshot: ``grades`` is copied and indexed as
    query -> {doc_id: grade}, so later changes to the caller's mapping change
    neither :meth:`grade` nor :func:`ndcg_at_k`. Ideal DCGs are kept too."""

    grades: Mapping[tuple[str, str], int]
    _by_query: dict[str, dict[str, int]] = field(init=False, compare=False, repr=False)
    _ideal_dcg: dict[tuple[str, int], float] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        grades = dict(self.grades)
        by_query: dict[str, dict[str, int]] = {}
        for (query_id, doc_id), grade in grades.items():
            if grade < 0:
                raise ValueError(
                    f"negative relevance grade {grade} for ({query_id!r}, {doc_id!r})"
                )
            by_query.setdefault(query_id, {})[doc_id] = grade
        object.__setattr__(self, "grades", grades)
        object.__setattr__(self, "_by_query", by_query)

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def grades_for_query(self, query_id: str) -> list[int]:
        """The query's judged grades, in ``grades`` order."""
        return list(self._by_query.get(query_id, {}).values())

    def ideal_dcg(self, query_id: str, k: int) -> float:
        """DCG@k of the query's judged grades sorted descending."""
        key = (query_id, k)
        if key not in self._ideal_dcg:
            ideal_grades = sorted(self.grades_for_query(query_id), reverse=True)[:k]
            self._ideal_dcg[key] = sum(
                grade / discount
                for grade, discount in zip(ideal_grades, _discounts(len(ideal_grades)))
            )
        return self._ideal_dcg[key]


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


@functools.lru_cache(maxsize=64)
def _discounts(n: int) -> tuple[float, ...]:
    """The DCG discounts ``log2(position + 1)`` of positions 1..n."""
    return tuple(math.log2(position + 1) for position in range(1, n + 1))


def ndcg_at_k(ranking: Ranking, judgments: RelevanceJudgments, k: int) -> float:
    """Normalized discounted cumulative gain at cutoff k (linear gains).

    The ideal ranking sorts the query's judged grades descending; when no
    positive judgments exist the metric is 0 by convention.
    """
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    query_id, doc_ids = ranking.query_id, ranking.query.doc_ids
    grade = judgments._by_query.get(query_id, {}).get
    top = ranking.order[:k].tolist()
    dcg = 0.0
    for i, discount in zip(top, _discounts(len(top))):
        dcg += grade(doc_ids[i], 0) / discount
    idcg = judgments.ideal_dcg(query_id, k)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def fairr_at_k(ranking: Ranking, k: int) -> float:
    """Rank-discounted neutrality mass of the top-k: sum of n_d / rank."""
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    values = ranking.query.column("neutrality")[ranking.order[:k]].tolist()
    # summed left to right from 0.0 and divided, not multiplied by 1/rank:
    # np.sum's pairwise order or a reciprocal would change the last bits
    total = 0.0
    for rank, value in enumerate(values, start=1):
        total += value / rank
    return total


def ideal_fairr_at_k(query: QueryCandidates, k: int) -> float:
    """Best FaiRR@k attainable from the query's candidate pool.

    Ordering candidates by neutrality descending maximizes the sum since
    1/rank is decreasing (rearrangement inequality).
    """
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    values = np.sort(query.column("neutrality"))[::-1][:k].tolist()
    return sum(value / rank for rank, value in enumerate(values, start=1))


def nfairr_at_k(ranking: Ranking, k: int) -> float:
    """FaiRR@k normalized by the pool's ideal; 1 when the ideal is 0
    (an all-biased pool cannot be improved)."""
    ideal = ideal_fairr_at_k(ranking.query, k)
    if ideal == 0.0:
        return 1.0
    return fairr_at_k(ranking, k) / ideal


def paired_t_test(a: Mapping[str, float], b: Mapping[str, float]) -> TTestResult:
    """Two-tailed paired t-test over per-query values.

    Conventions for degenerate inputs: all differences zero gives
    (t=0, p=1); zero variance with nonzero mean gives p=0.
    """
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        raise ValueError(f"query sets differ (only in a: {only_a}, only in b: {only_b})")
    if len(a) < 2:
        raise ValueError("paired t-test needs at least 2 queries")
    keys = sorted(a)
    diffs = [a[key] - b[key] for key in keys]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t_statistic=0.0, degrees_of_freedom=df, p_value=1.0)
        return TTestResult(
            t_statistic=math.copysign(math.inf, mean), degrees_of_freedom=df, p_value=0.0
        )
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), df))
    return TTestResult(t_statistic=t, degrees_of_freedom=df, p_value=p)


def check_interval_alpha(alpha: float) -> float:
    """An interval width multiplier must be finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    return alpha


def intersection_counts(query: QueryCandidates, alpha: float) -> list[int]:
    """Per rank position, how many other docs' score intervals
    [mu - alpha*sigma, mu + alpha*sigma] overlap that doc's interval.

    Overlap is closed-interval (touching endpoints count); a document is
    never counted against itself. Counted from the sorted endpoints in
    O(n log n).
    """
    check_interval_alpha(alpha)
    margin = alpha * query.column("sigma")
    lo, hi = query.mu - margin, query.mu + margin
    # i overlaps j unless lo_j > hi_i or hi_j < lo_i (never both), and
    # every interval overlaps itself
    starting_by_hi = np.searchsorted(np.sort(lo), hi, side="right")
    ending_before_lo = np.searchsorted(np.sort(hi), lo, side="left")
    return (starting_by_hi - ending_before_lo - 1).tolist()


def median_intersections(corpus: Iterable[QueryCandidates], alpha: float) -> list[int]:
    """Median of intersection counts per rank position across queries.

    Only queries deep enough to populate a rank contribute to its median;
    even-sized samples take the lower-mid element so the output stays
    integer-valued.
    """
    per_query = [intersection_counts(query, alpha) for query in corpus]
    if not per_query:
        raise ValueError("corpus is empty")
    max_depth = max(len(counts) for counts in per_query)
    medians = []
    for rank_idx in range(max_depth):
        values = sorted(counts[rank_idx] for counts in per_query if len(counts) > rank_idx)
        medians.append(values[(len(values) - 1) // 2])
    return medians
