"""Shared builders for test corpora."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from pufr.baselines import ConstraintConfig, constrained_rerank
from pufr.core import QueryCandidates, Ranking, ScoredCandidate, assign_groups, build_query


def make_query(
    mus,
    sigmas=None,
    neutralities=None,
    query_id: str = "q",
    doc_ids=None,
) -> QueryCandidates:
    """Compact query builder; groups are assigned from neutrality == 1."""
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
) -> QueryCandidates:
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
        cfg = ConstraintConfig(alpha_fairness=0.95, depth=len(q))
        if constrained_rerank(q, cfg).nodes > 0:
            cases.append((q, cfg))
    assert len(cases) > 10
    return cases


def groups_of(query: QueryCandidates) -> dict[str, bool]:
    """Doc id -> whether the doc is protected."""
    return dict(zip(query.doc_ids, query.column("protected").tolist()))


def query_key(query: QueryCandidates) -> tuple:
    """Everything a query holds, floats as ``float.hex`` so that signed zeros differ."""
    return query.query_id, [
        tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows(query)
    ]


Row = namedtuple("Row", "doc_id mu sigma neutrality protected")


def rows(query: QueryCandidates) -> list[Row]:
    """The query's candidates in original-rank order, as plain rows."""
    n = len(query)

    def column(values):
        return [None] * n if values is None else values.tolist()

    return [
        Row(*row)
        for row in zip(query.doc_ids, query.mu.tolist(), column(query.sigma),
                       column(query.neutrality), column(query.protected))
    ]


def score_map(query: QueryCandidates, scores) -> dict[str, float]:
    """A score result of ``adjust_scores`` as doc id -> score."""
    return dict(zip(query.doc_ids, scores.tolist()))


def score_column(query: QueryCandidates, mapping):
    """A doc id -> score mapping in the form ``rank_by_score`` takes."""
    return np.array([mapping[doc_id] for doc_id in query.doc_ids])


def ranking_of(query: QueryCandidates, doc_ids) -> Ranking:
    """The ranking of ``query`` that lists ``doc_ids`` in order, scored n..1."""
    column = {doc_id: i for i, doc_id in enumerate(query.doc_ids)}
    order = np.array([column[doc_id] for doc_id in doc_ids], dtype=np.intp)
    return Ranking(query, order, np.arange(len(order), 0, -1, dtype=np.float64))


def ranked(query_id: str, doc_ids, neutralities=None) -> Ranking:
    """A ranking of a query of exactly ``doc_ids``, in that order."""
    query = make_query([0.0] * len(doc_ids), neutralities=neutralities,
                       query_id=query_id, doc_ids=doc_ids)
    return ranking_of(query, doc_ids)


def ranking_key(ranking: Ranking) -> tuple:
    """What a ranking holds, scores as ``float.hex`` so that signed zeros differ."""
    return ranking.query_id, ranking.doc_ids(), [s.hex() for s in ranking.scores.tolist()]


def sweep_key(result) -> tuple:
    """A sweep's records with every float as ``float.hex`` and the re-rank
    time left out, plus its problem counts."""
    records = [
        (r.method, r.alpha.hex(), {k: v.hex() for k, v in r.ndcg.items()},
         {k: v.hex() for k, v in r.nfairr.items()}, r.t_stat.hex(), r.p_value.hex())
        for r in result.records
    ]
    return records, result.infeasible_queries, result.exhausted_queries
