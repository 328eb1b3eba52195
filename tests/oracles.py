"""Scalar reference implementations of the columnar ranking code.

These are the per-candidate loops the library used before queries and
rankings became columnar. They work on plain rows (see ``conftest.rows``),
doc ids, dicts keyed by doc id and Python floats, so their results are the
bit-exact reference: Python's ``min`` and ``max`` keep the earlier of two
equal values, sums run left to right, and doc ids compare in ``str`` order.
"""

from __future__ import annotations

import math


def canonical_order(rows):
    """Original-rank order: ``mu`` descending, exact ties by doc id."""
    return sorted(rows, key=lambda r: (-r.mu, r.doc_id))


def adjust(rows, alpha_protected, alpha_nonprotected, sigma=None):
    """Clamped score adjustment of rows given in original-rank order; every
    sigma is taken as ``sigma`` unless that is None. Returns doc id -> score."""
    by_mu_desc = sorted(range(len(rows)), key=lambda i: (-rows[i].mu, i))
    adjusted = {}
    running_min = math.inf
    for i in by_mu_desc:
        r = rows[i]
        if r.protected:
            raw = r.mu + alpha_protected * (r.sigma if sigma is None else sigma)
            running_min = min(running_min, raw)
            adjusted[r.doc_id] = running_min
    running_max = -math.inf
    for i in reversed(by_mu_desc):
        r = rows[i]
        if not r.protected:
            raw = r.mu - alpha_nonprotected * (r.sigma if sigma is None else sigma)
            running_max = max(running_max, raw)
            adjusted[r.doc_id] = running_max
    return adjusted


def rank_by_score(rows, scores):
    """(doc_id, score) entries by score descending, ties by original rank."""
    order = sorted(range(len(rows)), key=lambda i: (-scores[rows[i].doc_id], i))
    return [(rows[i].doc_id, float(scores[rows[i].doc_id])) for i in order]


def sigma_mean(corpus_rows):
    """Mean sigma over every (query, candidate) pair, summed left to right."""
    total = 0.0
    count = 0
    for rows in corpus_rows:
        for r in rows:
            total += r.sigma
            count += 1
    return total / count


def hexed(entries):
    """Entries with scores as ``float.hex``, so that 0.0 and -0.0 differ."""
    return [(doc_id, float(score).hex()) for doc_id, score in entries]


def fairr(ranked_doc_ids, neutrality, k):
    """FaiRR@k from a doc id -> neutrality dict: sum of n_d / rank, left to right."""
    total = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        if doc_id not in neutrality:
            raise ValueError(f"no neutrality score for ranked doc {doc_id!r}")
        total += neutrality[doc_id] / rank
    return total


def ideal_fairr(neutralities, k):
    """FaiRR@k of the pool's neutralities taken largest first."""
    values = sorted(neutralities, reverse=True)
    return sum(value / rank for rank, value in enumerate(values[:k], start=1))


def nfairr(ranked_doc_ids, neutrality, k):
    """FaiRR@k over the pool's ideal; 1 when the ideal is 0."""
    ideal = ideal_fairr(neutrality.values(), k)
    return 1.0 if ideal == 0.0 else fairr(ranked_doc_ids, neutrality, k) / ideal


def ndcg(query_id, ranked_doc_ids, grades, k):
    """nDCG@k straight from a (query, doc) -> grade dict, the ideal taken
    from a full scan of the dict."""
    dcg = 0.0
    for position, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        dcg += grades.get((query_id, doc_id), 0) / math.log2(position + 1)
    ideal = sorted((g for (qid, _), g in grades.items() if qid == query_id), reverse=True)
    idcg = sum(g / math.log2(position + 1) for position, g in enumerate(ideal[:k], start=1))
    return 0.0 if idcg == 0.0 else dcg / idcg
