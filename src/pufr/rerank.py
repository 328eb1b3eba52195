"""Uncertainty-aware score adjustment and re-ranking.

Protected documents are pushed up by ``alpha * sigma`` and non-protected
documents down by the same margin, then clamped so that no two documents
of the same group can swap: each protected document is capped by the
lowest adjusted score of any higher-ranked protected document, and each
non-protected document is floored by the highest adjusted score of any
lower-ranked one. A uniform variant replaces per-document sigma with the
corpus mean, which serves as the constant-shift ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import GroupLabel, QueryCandidates, Ranking, rank_by_score


@dataclass(frozen=True)
class PufrConfig:
    """Adjustment strengths per group; a single alpha sets both equal."""

    alpha_protected: float
    alpha_nonprotected: float

    def __post_init__(self) -> None:
        for name, value in (
            ("alpha_protected", self.alpha_protected),
            ("alpha_nonprotected", self.alpha_nonprotected),
        ):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @classmethod
    def symmetric(cls, alpha: float) -> "PufrConfig":
        return cls(alpha_protected=alpha, alpha_nonprotected=alpha)


def adjust_scores(query: QueryCandidates, cfg: PufrConfig) -> dict[str, float]:
    """Compute adjusted scores for one query.

    Protected docs are visited in decreasing mu (ties by original rank)
    and raised within their confidence margin, capped by the running
    minimum of previously adjusted protected scores; non-protected docs
    are visited in increasing mu and lowered, floored by the running
    maximum from below. With alpha 0 the original means are returned
    unchanged.
    """
    return _adjust(query, cfg, None)


def _adjust(query: QueryCandidates, cfg: PufrConfig, sigma: float | None) -> dict[str, float]:
    """:func:`adjust_scores`, with every sigma taken as ``sigma`` unless that is None."""
    for c in query.candidates:
        if c.group is None:
            raise ValueError(
                f"query {query.query_id!r}: candidate {c.doc_id!r} has no group label"
            )
        if sigma is None and c.sigma is None:
            raise ValueError(
                f"query {query.query_id!r}: candidate {c.doc_id!r} has no sigma"
            )
    by_mu_desc = sorted(query.candidates, key=lambda c: (-c.mu, c.original_rank))
    adjusted: dict[str, float] = {}

    running_min = math.inf
    for c in by_mu_desc:
        if c.group is GroupLabel.PROTECTED:
            raw = c.mu + cfg.alpha_protected * (c.sigma if sigma is None else sigma)
            running_min = min(running_min, raw)
            adjusted[c.doc_id] = running_min

    running_max = -math.inf
    for c in reversed(by_mu_desc):
        if c.group is GroupLabel.NON_PROTECTED:
            raw = c.mu - cfg.alpha_nonprotected * (c.sigma if sigma is None else sigma)
            running_max = max(running_max, raw)
            adjusted[c.doc_id] = running_max

    return adjusted


def pufr_rerank(query: QueryCandidates, cfg: PufrConfig) -> Ranking:
    """Re-rank one query by its adjusted scores."""
    return rank_by_score(query, adjust_scores(query, cfg))


def compute_sigma_mean(corpus: Iterable[QueryCandidates]) -> float:
    """Arithmetic mean of sigma over every (query, candidate) pair."""
    total = 0.0
    count = 0
    for query in corpus:
        for c in query.candidates:
            if c.sigma is None:
                raise ValueError(
                    f"query {query.query_id!r}: candidate {c.doc_id!r} has no sigma"
                )
            total += c.sigma
            count += 1
    if count == 0:
        raise ValueError("cannot compute a sigma mean over an empty corpus")
    return total / count


def uniform_rerank(query: QueryCandidates, sigma_mean: float, cfg: PufrConfig) -> Ranking:
    """Constant-shift ablation: every sigma replaced by the corpus mean.

    Same adjustment and clamping pipeline as :func:`pufr_rerank`, so with
    per-document sigmas all equal to ``sigma_mean`` the two coincide.
    """
    if not (math.isfinite(sigma_mean) and sigma_mean >= 0.0):
        raise ValueError(f"sigma_mean must be finite and >= 0, got {sigma_mean!r}")
    return rank_by_score(query, _adjust(query, cfg, float(sigma_mean)))
