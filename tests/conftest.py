"""Shared builders for test corpora."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from pufr.baselines import ConstraintConfig, constrained_rerank
from pufr.core import QueryStack, ScoredCandidate, StackedRanking, assign_groups, build_query


def make_query(
    mus,
    sigmas=None,
    neutralities=None,
    query_id: str = "q",
    doc_ids=None,
) -> QueryStack:
    """Compact query builder, a one-row stack; groups are assigned from
    neutrality == 1."""
    n = len(mus)
    sigmas = sigmas if sigmas is not None else [0.0] * n
    neutralities = neutralities if neutralities is not None else [0.0] * n
    doc_ids = doc_ids if doc_ids is not None else [f"d{i + 1}" for i in range(n)]
    candidates = [
        ScoredCandidate(
            doc_id=doc_ids[i], mu=float(mus[i]), sigma=float(sigmas[i]),
            neutrality=float(neutralities[i]),
        )
        for i in range(n)
    ]
    return assign_groups(build_query(query_id, candidates))


def random_query(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 12,
    query_id: str = "q",
    protected_fraction: float = 0.5,
) -> QueryStack:
    n = int(rng.integers(n_min, n_max + 1))
    mus = rng.normal(0.0, 2.0, n)
    sigmas = np.abs(rng.normal(0.5, 0.3, n))
    protected = rng.random(n) < protected_fraction
    neutralities = np.where(protected, 1.0, rng.random(n) * 0.95)
    return make_query(mus, sigmas, neutralities, query_id=query_id)


def gap_search_queries(seed=131, count=40):
    """(query, config) pairs, windows of 6-9 docs at a 0.95 floor, on which
    the crossing search leaves a duality gap, so the bounded search runs."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        q = random_query(rng, n_min=6, n_max=9, query_id=f"q{i}")
        cfg = ConstraintConfig(alpha_fairness=0.95, depth=len(q.doc_ids))
        if constrained_rerank(q, cfg).nodes > 0:
            cases.append((q, cfg))
    assert len(cases) > 10
    return cases


def groups_of(query: QueryStack) -> dict[str, bool]:
    """Doc id -> whether the doc is protected."""
    return dict(zip(query.doc_ids, query.flat("protected").tolist()))


def query_key(query: QueryStack) -> tuple:
    """Everything a stack holds, floats as ``float.hex`` so that signed zeros differ."""
    return query.query_ids, query.lengths.tolist(), rows_key(rows(query))


def rows_key(plain_rows) -> list[tuple]:
    """Plain rows with floats as ``float.hex``."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in plain_rows]


Row = namedtuple("Row", "doc_id mu sigma neutrality protected")


def rows(query: QueryStack) -> list[Row]:
    """The stack's candidates, query after query in original-rank order, as plain rows."""

    def values(name):
        return query.flat(name).tolist() if query.has(name) else [None] * len(query.doc_ids)

    return [Row(*row) for row in zip(query.doc_ids, *map(values, Row._fields[1:]))]


def score_map(query: QueryStack, scores) -> dict[str, float]:
    """A score result of ``adjust_scores`` (padded rows) as doc id -> score."""
    return dict(zip(query.doc_ids, scores[query.real].tolist()))


def score_column(query: QueryStack, mapping):
    """A doc id -> score mapping as the padded rows ``rank_by_score`` takes."""
    return query.padded(np.array([mapping[doc_id] for doc_id in query.doc_ids]))


def ranking_of(query: QueryStack, doc_ids) -> StackedRanking:
    """The ranking of a one-row ``query`` that lists ``doc_ids`` in order, scored n..1."""
    place = {doc_id: i for i, doc_id in enumerate(query.doc_ids)}
    order = np.array([[place[doc_id] for doc_id in doc_ids]], dtype=np.intp)
    return StackedRanking(query, order, np.arange(len(doc_ids), 0, -1, dtype=np.float64)[None])


def ranked(query_id: str, doc_ids, neutralities=None) -> StackedRanking:
    """A ranking of a query of exactly ``doc_ids``, in that order."""
    query = make_query([0.0] * len(doc_ids), neutralities=neutralities,
                       query_id=query_id, doc_ids=doc_ids)
    return ranking_of(query, doc_ids)


def ranked_ids(ranking: StackedRanking, i: int = 0) -> tuple[str, ...]:
    """The doc ids of row i of a stacked ranking, in rank order."""
    stack = ranking.stack
    doc_ids = stack.doc_ids[stack.bounds[i]:stack.bounds[i + 1]]
    return tuple(doc_ids[j] for j in ranking.order[i, :len(doc_ids)].tolist())


def ranking_key(ranking: StackedRanking) -> list[tuple]:
    """What each row of a ranking holds, scores as ``float.hex`` so that
    signed zeros differ; pads are left out."""
    stack = ranking.stack
    return [(query_id, ranked_ids(ranking, i),
             [s.hex() for s in ranking.scores[i, :stack.lengths[i]].tolist()])
            for i, query_id in enumerate(stack.query_ids)]


def sweep_key(result) -> tuple:
    """A sweep's records with every float as ``float.hex`` and the re-rank
    time left out, plus its problem counts."""
    records = [
        (r.method, r.alpha.hex(), {k: v.hex() for k, v in r.ndcg.items()},
         {k: v.hex() for k, v in r.nfairr.items()}, r.t_stat.hex(), r.p_value.hex())
        for r in result.records
    ]
    return records, result.infeasible_queries, result.exhausted_queries


def stacked_rankings(rankings) -> StackedRanking:
    """One-row rankings, in order, as one ranking of the stack of their
    queries: pads last, in place order, at score -inf."""
    stack = QueryStack(ranking.stack for ranking in rankings)
    order = np.indices(stack.real.shape)[1]
    scores = np.full(stack.real.shape, -np.inf)
    for i, ranking in enumerate(rankings):
        n = ranking.order.shape[1]
        order[i, :n], scores[i, :n] = ranking.order[0], ranking.scores[0]
    return StackedRanking(stack, order, scores)
