"""Evaluation: nDCG@k, rank-discounted neutrality (FaiRR/nFaiRR), paired
t-tests, and uncertainty-interval intersection counts. The ranking metrics
take one :class:`~pufr.core.Ranking`, or one ranking per query of a padded
:class:`~pufr.core.QueryStack` and then give a column with the same bits."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .core import QueryCandidates, Ranking, StackedRanking


@dataclass(frozen=True, eq=False)
class RelevanceJudgments:
    """Graded relevance per (query, doc); missing pairs count as grade 0.

    Construction takes a snapshot: ``grades`` is copied and indexed as
    query -> {doc_id: grade}, so later changes to the caller's mapping change
    neither :meth:`grade` nor :func:`ndcg_at_k`. Judgments compare by
    identity, like queries, so that a stack's memo can keep gains per
    judgments."""

    grades: Mapping[tuple[str, str], int]
    _by_query: dict[str, dict[str, int]] = field(init=False, repr=False)

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

    def gains(self, query: QueryCandidates) -> np.ndarray:
        """The query's grades as floats aligned with its doc ids, 0 where a
        doc is unjudged."""
        grade = self._by_query.get(query.query_id, {}).get
        return np.array([grade(doc_id, 0) for doc_id in query.doc_ids], dtype=np.float64)

    def ideal_dcg(self, query_id: str, k: int) -> float:
        """DCG@k of the query's judged grades sorted descending."""
        ideal_grades = sorted(self.grades_for_query(query_id), reverse=True)[:k]
        return sequential_sum(
            np.array(ideal_grades, dtype=np.float64) / _discounts(len(ideal_grades))
        )


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


def sequential_sum(terms: np.ndarray) -> float:
    """The sum a loop ``total = 0.0; total += term`` gives, on any Python
    version: builtin ``sum()`` of floats is compensated since Python 3.12 and
    ``np.sum`` adds pairwise. ``np.add.accumulate`` adds one term at a time;
    the final ``+ 0.0`` turns a sum of only -0.0 terms into the loop's 0.0."""
    if not terms.size:
        return 0.0
    return float(np.add.accumulate(terms)[-1] + 0.0)


def _shared(values: np.ndarray) -> np.ndarray:
    """A cached array every caller gets: read-only, so none can change it."""
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=None)
def _discounts(n: int) -> np.ndarray:
    """The DCG discounts log2(position + 1) of positions 1..n, each from
    math.log2, whose bits np.log2 need not match."""
    return _shared(np.array([math.log2(position + 1) for position in range(1, n + 1)]))


@functools.lru_cache(maxsize=None)
def _ranks(n: int) -> np.ndarray:
    """The ranks 1..n as floats."""
    return _shared(np.arange(1, n + 1, dtype=np.float64))


def _at_cutoff(sums: np.ndarray, k: int) -> np.ndarray | float:
    """Running sums from ``np.add.accumulate`` at cutoff k, the whole sum past
    the end: the sum :func:`sequential_sum` gives of the first k terms, since
    accumulate adds one term at a time, with its ``+ 0.0``. A float for one
    ranking's sums, a column for stacked rows."""
    i = min(k, sums.shape[-1]) - 1
    return sums.item(i) + 0.0 if sums.ndim == 1 else sums[:, i] + 0.0


def _fairr_sums(neutrality: np.ndarray) -> np.ndarray:
    """Running FaiRR along the last axis of neutralities in rank order: each
    value is divided by its rank, not multiplied by 1/rank, and the terms are
    summed left to right from 0.0, which fixes the last bits."""
    return np.add.accumulate(neutrality / _ranks(neutrality.shape[-1]), axis=-1)


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")


def _per_query(ranking: Ranking | StackedRanking, key: Hashable, value: Callable):
    """``value`` of a ranking's query. For a stacked ranking: the values of
    the stacked queries as a column, or as padded rows when they are
    columns, built once and kept in the stack's memo under ``key``."""
    if not isinstance(ranking, StackedRanking):
        return value(ranking.query)
    stack = ranking.stack
    if key not in stack.memo:
        values = [value(query) for query in stack.queries]
        stack.memo[key] = stack.padded(values) if np.ndim(values[0]) else np.array(values)
    return stack.memo[key]


def _ratio(value, ideal, if_zero: float):
    """``value / ideal``, or ``if_zero`` where the ideal is 0; float or column."""
    if not isinstance(value, np.ndarray):
        return value / ideal if ideal != 0.0 else if_zero
    return np.divide(value, ideal, out=np.full_like(value, if_zero), where=ideal != 0.0)


def ndcg_at_k(ranking: Ranking | StackedRanking, judgments: RelevanceJudgments,
              k: int) -> float | np.ndarray:
    """Normalized discounted cumulative gain at cutoff k (linear gains).

    The ideal ranking sorts the query's judged grades descending; when no
    positive judgments exist the metric is 0 by convention. Each gain is
    divided by its discount and the terms are summed left to right.

    A :class:`StackedRanking` gives a column, one value per stacked query,
    with the bits of the per-query call: pads have gain 0.0 and every real
    term is >= 0, so a pad adds +0.0 to a running sum.
    """
    _check_cutoff(k)
    idcg = _per_query(ranking, (judgments, k), lambda query: judgments.ideal_dcg(query.query_id, k))
    gains = _per_query(ranking, judgments, judgments.gains)
    top = np.take_along_axis(gains, ranking.order[..., :k], axis=-1)
    return _ratio(_at_cutoff(np.add.accumulate(top / _discounts(top.shape[-1]), axis=-1), k),
                  idcg, 0.0)


def fairr_at_k(ranking: Ranking | StackedRanking, k: int) -> float | np.ndarray:
    """Rank-discounted neutrality mass of the top-k: the sum of n_d / rank
    over the first min(k, n) ranks (see :func:`_fairr_sums`); a column for a
    stacked ranking, whose pads have neutrality 0.0."""
    _check_cutoff(k)
    neutrality = _per_query(ranking, "neutrality", lambda query: query.column("neutrality"))
    return _at_cutoff(_fairr_sums(np.take_along_axis(neutrality, ranking.order[..., :k], -1)), k)


def ideal_fairr_at_k(query: QueryCandidates, k: int) -> float:
    """Best FaiRR@k attainable from the query's candidate pool, kept in the
    query's memo per k.

    Ordering candidates by neutrality descending maximizes the sum since
    1/rank is decreasing (rearrangement inequality).
    """
    _check_cutoff(k)
    key = ("ideal_fairr", k)
    ideal = query.memo.get(key)
    if ideal is None:
        values = np.sort(query.column("neutrality"))[::-1][:k]
        ideal = query.memo[key] = _at_cutoff(_fairr_sums(values), k)
    return ideal


def nfairr_at_k(ranking: Ranking | StackedRanking, k: int) -> float | np.ndarray:
    """FaiRR@k normalized by the pool's ideal; 1 when the ideal is 0
    (an all-biased pool cannot be improved); a column for a stacked ranking."""
    ideal = _per_query(ranking, ("ideal_fairr", k), lambda query: ideal_fairr_at_k(query, k))
    return _ratio(fairr_at_k(ranking, k), ideal, 1.0)


def paired_t_test(a: Mapping[str, float], b: Mapping[str, float]) -> TTestResult:
    """Two-tailed paired t-test over per-query values.

    Conventions for degenerate inputs: all differences zero gives
    (t=0, p=1); zero variance with nonzero mean gives p=0. The mean and the
    variance are sums taken left to right (:func:`sequential_sum`).
    ``stdtr`` is the kernel of ``scipy.stats.t.sf`` (same bits) without
    importing scipy.stats: only ``sweep`` loads scipy for it.
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
    mean = sequential_sum(np.array(diffs)) / n
    # squared by Python's float power, whose bits np.square need not match
    var = sequential_sum(np.array([(d - mean) ** 2 for d in diffs])) / (n - 1)
    sd = math.sqrt(var)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t_statistic=0.0, degrees_of_freedom=df, p_value=1.0)
        return TTestResult(
            t_statistic=math.copysign(math.inf, mean), degrees_of_freedom=df, p_value=0.0
        )
    from scipy.special import stdtr
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(df, -abs(t)))
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
