"""Evaluation: nDCG@k, rank-discounted neutrality (FaiRR/nFaiRR), paired
t-tests, and uncertainty-interval intersection counts. The ranking metrics
evaluate every row of a :class:`~pufr.core.StackedRanking` (or of a
:class:`~pufr.core.QueryStack`) and give a column, one value per stacked
query; a :class:`~pufr.core.Ranking` or a query is the one-row case and
gives a float (see :func:`~pufr.core.stacked`). Pads have gain and
neutrality 0.0 and every real term is >= 0, so a pad adds +0.0 to a
running sum and each row has the bits it has alone."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Mapping

import numpy as np

from .core import QueryCandidates, QueryStack, Ranking, StackedRanking, stacked


@dataclass(frozen=True, eq=False)
class RelevanceJudgments:
    """Graded relevance per (query, doc); missing pairs count as grade 0.

    Construction takes a snapshot: ``grades`` is copied and indexed as
    query -> {doc_id: grade}, so later changes to the caller's mapping change
    neither ``grades`` nor :func:`ndcg_at_k`. Judgments compare by
    identity, so that a stack's memo can keep gains per judgments."""

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

    def grades_for_query(self, query_id: str) -> list[int]:
        """The query's judged grades, in ``grades`` order."""
        return list(self._by_query.get(query_id, {}).values())

    def gains(self, query: QueryCandidates | QueryStack) -> np.ndarray:
        """The grades of a stack's places as one flat float column, 0 where
        a doc is unjudged; of a query, aligned with its doc ids."""
        stack = stacked(query)
        bounds = stack.bounds
        return np.array(list(chain.from_iterable(
            map(self._by_query.get(query_id, {}).get, stack.doc_ids[start:end], repeat(0))
            for query_id, start, end in zip(stack.query_ids, bounds, bounds[1:])
        )), dtype=np.float64)


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


def _at_cutoff(sums: np.ndarray, k: int) -> np.ndarray:
    """Running sums along stacked rows, from ``np.add.accumulate``, at cutoff
    k as a column, the whole sum past the end: the sum :func:`sequential_sum`
    gives of each row's first k terms, since accumulate adds one term at a
    time, with its ``+ 0.0``."""
    return sums[:, min(k, sums.shape[-1]) - 1] + 0.0


def _fairr_sums(neutrality: np.ndarray) -> np.ndarray:
    """Running FaiRR along the last axis of neutralities in rank order: each
    value is divided by its rank, not multiplied by 1/rank, and the terms are
    summed left to right from 0.0, which fixes the last bits."""
    return np.add.accumulate(neutrality / _ranks(neutrality.shape[-1]), axis=-1)


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")


def _ratio(value: np.ndarray, ideal: np.ndarray, if_zero: float) -> np.ndarray:
    """``value / ideal``, or ``if_zero`` where the ideal is 0."""
    return np.divide(value, ideal, out=np.full_like(value, if_zero), where=ideal != 0.0)


def _judged(stack: QueryStack, judgments: RelevanceJudgments) -> tuple[np.ndarray, np.ndarray]:
    """Each stacked query's gains as padded rows (0.0 where a doc is
    unjudged), and the running DCG of its judged grades sorted descending,
    as rows padded with grade 0.0 to the most grades any query has. Both are
    built once per judgments and kept in the stack's memo; each cutoff reads
    them (see :func:`_at_cutoff`)."""
    judged = stack.memo.get(judgments)
    if judged is None:
        grades = [judgments.grades_for_query(query_id) for query_id in stack.query_ids]
        counts = np.array([len(row) for row in grades])
        width = max(1, int(counts.max()))
        ideal = np.zeros((len(grades), width))
        ideal[np.arange(width) < counts[:, None]] = [grade for row in grades for grade in row]
        ideal = np.sort(ideal, axis=-1)[:, ::-1]
        judged = stack.memo[judgments] = (
            stack.padded(judgments.gains(stack)),
            np.add.accumulate(ideal / _discounts(width), axis=-1),
        )
    return judged


def ndcg_at_k(ranking: Ranking | StackedRanking, judgments: RelevanceJudgments,
              k: int) -> float | np.ndarray:
    """Normalized discounted cumulative gain at cutoff k (linear gains).

    The ideal ranking sorts the query's judged grades descending; when no
    positive judgments exist the metric is 0 by convention. Each gain is
    divided by its discount and the terms are summed left to right.
    """
    _check_cutoff(k)
    ranked = stacked(ranking)
    gains, ideal = _judged(ranked.stack, judgments)
    top = np.take_along_axis(gains, ranked.order[:, :k], axis=-1)
    values = _ratio(_at_cutoff(np.add.accumulate(top / _discounts(top.shape[-1]), axis=-1), k),
                    _at_cutoff(ideal, k), 0.0)
    return values if ranked is ranking else values.item(0)


def fairr_at_k(ranking: Ranking | StackedRanking, k: int) -> float | np.ndarray:
    """Rank-discounted neutrality mass of the top-k: the sum of n_d / rank
    over the first min(k, n) ranks (see :func:`_fairr_sums`)."""
    _check_cutoff(k)
    ranked = stacked(ranking)
    neutrality = ranked.stack.column("neutrality")
    values = _at_cutoff(_fairr_sums(np.take_along_axis(neutrality, ranked.order[:, :k], -1)), k)
    return values if ranked is ranking else values.item(0)


def ideal_fairr_at_k(query: QueryCandidates | QueryStack, k: int) -> float | np.ndarray:
    """Best FaiRR@k attainable from the query's candidate pool.

    Ordering candidates by neutrality descending maximizes the sum since
    1/rank is decreasing (rearrangement inequality). The neutralities are
    sorted, and their running FaiRR taken, once per stack and kept in its
    memo; each cutoff reads it (see :func:`_at_cutoff`). Pads sort after
    every positive neutrality.
    """
    _check_cutoff(k)
    stack = stacked(query)
    sums = stack.memo.get("ideal_fairr")
    if sums is None:
        sums = stack.memo["ideal_fairr"] = _fairr_sums(
            np.sort(stack.column("neutrality"), axis=-1)[:, ::-1])
    values = _at_cutoff(sums, k)
    return values if stack is query else values.item(0)


def nfairr_at_k(ranking: Ranking | StackedRanking, k: int) -> float | np.ndarray:
    """FaiRR@k normalized by the pool's ideal; 1 when the ideal is 0
    (an all-biased pool cannot be improved)."""
    ranked = stacked(ranking)
    values = _ratio(fairr_at_k(ranked, k), ideal_fairr_at_k(ranked.stack, k), 1.0)
    return values if ranked is ranking else values.item(0)


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


def intersection_counts(
    query: QueryCandidates | QueryStack, alpha: float
) -> list[int] | np.ndarray:
    """Per rank position, how many other docs' score intervals
    [mu - alpha*sigma, mu + alpha*sigma] overlap that doc's interval: for a
    stack, one row per query, 0 at pads; for a query, a list.

    Overlap is closed-interval (touching endpoints count); a document is
    never counted against itself. Doc i overlaps doc j unless lo_j > hi_i or
    hi_j < lo_i (never both), and every interval overlaps itself, so its
    count is the number of lower ends at or below hi_i, less the upper ends
    below lo_i, less 1. Both are read from one stable sort of each row's
    lower ends followed by its upper ends: an equal lower end sorts before
    an upper end, and NaN pads sort after every real end.
    """
    check_interval_alpha(alpha)
    stack = stacked(query)
    real = stack.real
    mu, margin = stack.column("mu"), alpha * stack.column("sigma")
    n = real.shape[1]
    ends = np.concatenate((np.where(real, mu - margin, np.nan),
                           np.where(real, mu + margin, np.nan)), axis=-1)
    order = np.argsort(ends, axis=-1, kind="stable")
    lower = order < n
    lower_before = np.cumsum(lower, axis=-1) - lower
    # an upper end adds the lower ends before it, a lower end takes away the upper ones
    counted = np.empty_like(order)
    np.put_along_axis(counted, order,
                      np.where(lower, lower_before - np.arange(2 * n), lower_before), axis=-1)
    counts = np.where(real, counted[:, :n] + counted[:, n:] - 1, 0)
    return counts if stack is query else counts[0].tolist()


def median_intersections(stack: QueryStack, alpha: float) -> list[int]:
    """Median of intersection counts per rank position across the stacked
    queries.

    Only queries deep enough to populate a rank contribute to its median;
    even-sized samples take the lower-mid element so the output stays
    integer-valued. The stack is counted in one pass, and each rank's
    counts sorted in one column sort, pads last.
    """
    counts = intersection_counts(stack, alpha)
    ranked = np.sort(np.where(stack.real, counts, np.iinfo(counts.dtype).max), axis=0)
    populated = np.count_nonzero(stack.real, axis=0)
    return ranked[(populated - 1) // 2, np.arange(len(populated))].tolist()
