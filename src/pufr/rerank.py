"""Uncertainty-aware score adjustment and re-ranking.

Protected documents are pushed up by ``alpha * sigma`` and non-protected
documents down by the same margin, then clamped so that no two documents
of the same group can swap: each protected document is capped by the
lowest adjusted score of any higher-ranked protected document, and each
non-protected document is floored by the highest adjusted score of any
lower-ranked one. A uniform variant replaces per-document sigma with the
corpus mean, which serves as the constant-shift ablation.

:func:`adjust_scores`, :func:`pufr_rerank` and :func:`uniform_rerank`
adjust and rank every query of a :class:`~pufr.core.QueryStack` in one
array pass; a query is the one-row case (see :func:`~pufr.core.stacked`).
:func:`compute_sigma_mean` takes the corpus as a stack only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QueryCandidates, QueryStack, Ranking, StackedRanking, rank_by_score, stacked
from .metrics import sequential_sum


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


def adjust_scores(query: QueryCandidates | QueryStack, cfg: PufrConfig) -> np.ndarray:
    """Adjusted scores for one query, aligned with its doc ids, or for a
    stack as padded rows, -inf at pads.

    Protected docs are visited in decreasing mu (ties by original rank)
    and raised within their confidence margin, capped by the running
    minimum of previously adjusted protected scores; non-protected docs
    are visited in increasing mu and lowered, floored by the running
    maximum from below. With alpha 0 the original means are returned.
    """
    query.column("sigma")  # raises when no sigma is attached
    return _adjust(query, cfg, None)


def _adjust(
    query: QueryCandidates | QueryStack, cfg: PufrConfig, sigma_mean: float | None
) -> np.ndarray:
    """:func:`adjust_scores` with each group's own sigmas, or with
    ``sigma_mean`` for every candidate."""
    stack = stacked(query)
    protected, up, down = _masked_rows(stack, sigma_mean)
    raised, lowered = adjust_groups(*up, *down, cfg)
    adjusted = np.where(protected, raised, lowered[:, ::-1])
    return adjusted if stack is query else adjusted[0]


def _masked_rows(stack: QueryStack, sigma_mean: float | None) -> tuple[np.ndarray, tuple, tuple]:
    """The stack's group labels and each group's ``(mu, sigma)`` rows for
    :func:`adjust_groups`, kept in the stack's memo. Each group's rows hold
    the other group's places masked (see :func:`adjust_groups`); the pads
    are non-protected places at mu = -inf with sigma 0, and the others'
    rows run backwards, in their clamp order."""
    # by bits: 0.0 and -0.0 shift a zero mu to different bits
    key = ("masked rows", None if sigma_mean is None else sigma_mean.hex())
    if key not in stack.memo:
        protected, mu = stack.column("protected"), stack.column("mu")
        sigma = stack.column("sigma") if sigma_mean is None else np.where(
            stack.real, sigma_mean, 0.0)
        stack.memo[key] = protected, (
            np.where(protected, mu, np.inf), np.where(protected, sigma, 0.0),
        ), (
            np.where(protected, -np.inf, mu)[:, ::-1].copy(),
            np.where(protected, 0.0, sigma)[:, ::-1].copy(),
        )
    return stack.memo[key]


def adjust_groups(
    up_mu: np.ndarray, up_sigma: np.ndarray | float,
    down_mu: np.ndarray, down_sigma: np.ndarray | float, cfg: PufrConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The adjusted scores of the two groups, each along its last axis in
    the order it is clamped: the protected group (``up``) by decreasing mu,
    raised by ``alpha_protected * sigma`` and capped by its running minimum;
    the others (``down``) by increasing mu, lowered by
    ``alpha_nonprotected * sigma`` and floored by its running maximum. A
    sigma may be one value for every candidate. A place held at mu = +inf
    (``up``) or -inf (``down``) with sigma 0 keeps that value and never wins
    the clamp, so queries of any lengths can be stacked as padded rows, with
    the other group's places and the pads masked so."""
    return (
        _clamp(up_mu + cfg.alpha_protected * up_sigma, lowest=True),
        _clamp(down_mu - cfg.alpha_nonprotected * down_sigma, lowest=False),
    )


def _clamp(raw: np.ndarray, lowest: bool) -> np.ndarray:
    """Running minimum (``lowest``) or maximum of ``raw`` along its last axis,
    keeping the earlier of two equal values as Python's min and max do. Only
    0.0 and -0.0 compare equal with different bits, so numpy's accumulate is
    the answer when ``raw`` holds no zero; otherwise each position takes
    ``raw`` at the index of its running best, so a tied zero keeps the sign
    seen first."""
    best = (np.minimum if lowest else np.maximum).accumulate(raw, axis=-1)
    if np.count_nonzero(raw) == raw.size:
        return best
    improved = np.empty(raw.shape, dtype=bool)
    improved[..., 0] = True
    improved[..., 1:] = raw[..., 1:] < best[..., :-1] if lowest else raw[..., 1:] > best[..., :-1]
    at = np.maximum.accumulate(np.where(improved, np.arange(raw.shape[-1]), 0), axis=-1)
    return np.take_along_axis(raw, at, axis=-1)


def pufr_rerank(
    query: QueryCandidates | QueryStack, cfg: PufrConfig
) -> Ranking | StackedRanking:
    """Re-rank one query, or every query of a stack, by its adjusted scores."""
    return rank_by_score(query, adjust_scores(query, cfg))


def compute_sigma_mean(stack: QueryStack) -> float:
    """Arithmetic mean of sigma over every (query, candidate) pair."""
    sigma = stack.flat("sigma")
    # np.sum's pairwise order would change the last bits of every uniform score
    return sequential_sum(sigma) / len(sigma)


def uniform_rerank(
    query: QueryCandidates | QueryStack, sigma_mean: float, cfg: PufrConfig
) -> Ranking | StackedRanking:
    """Constant-shift ablation: every sigma replaced by the corpus mean.

    Same adjustment and clamping pipeline as :func:`pufr_rerank`, so with
    per-document sigmas all equal to ``sigma_mean`` the two coincide; a
    stack's pads keep sigma 0.
    """
    if not (math.isfinite(sigma_mean) and sigma_mean >= 0.0):
        raise ValueError(f"sigma_mean must be finite and >= 0, got {sigma_mean!r}")
    return rank_by_score(query, _adjust(query, cfg, float(sigma_mean)))
