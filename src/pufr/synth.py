"""Seeded synthetic corpora for desk-scale experiments.

Each query draws a latent relevance propensity per document; predicted
means correlate with that latent signal at a configurable strength, and
non-protected documents get an additive score bump (the injected bias).
Protected documents carry neutrality 1, non-protected ones a value in
[0, 1). Binary relevance grades come from thresholding the latent signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QueryStack, ScoredCandidate, assign_groups, build_query
from .core import check_seed
from .metrics import RelevanceJudgments

_RELEVANT_LATENT_THRESHOLD = 1.0


@dataclass(frozen=True)
class SyntheticConfig:
    n_queries: int = 50
    n_candidates: int = 20
    score_loc: float = 0.0
    score_spread: float = 2.0
    sigma_loc: float = 0.3
    sigma_spread: float = 0.15
    protected_fraction: float = 0.5
    relevance_correlation: float = 0.7
    bias_strength: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_queries < 1 or self.n_candidates < 1:
            raise ValueError("n_queries and n_candidates must be >= 1")
        check_seed(self.seed)
        if not math.isfinite(self.score_loc):
            raise ValueError(f"score_loc must be finite, got {self.score_loc!r}")
        if not 0.0 <= self.protected_fraction <= 1.0:
            raise ValueError(
                f"protected_fraction must lie in [0, 1], got {self.protected_fraction!r}"
            )
        if not 0.0 <= self.relevance_correlation <= 1.0:
            raise ValueError(
                f"relevance_correlation must lie in [0, 1], got {self.relevance_correlation!r}"
            )
        for name in ("score_spread", "sigma_loc", "sigma_spread", "bias_strength"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def generate_synthetic(cfg: SyntheticConfig) -> tuple[QueryStack, RelevanceJudgments]:
    """Generate a fully populated corpus, as one stack, plus matching judgments.

    Reproducible from the seed; groups are pre-assigned with the default
    protected threshold of 1.
    """
    rng = np.random.default_rng(cfg.seed)
    rho = cfg.relevance_correlation
    mix = math.sqrt(1.0 - rho * rho)
    corpus = []
    grades: dict[tuple[str, str], int] = {}
    for qi in range(cfg.n_queries):
        query_id = f"q{qi:04d}"
        n = cfg.n_candidates
        latent = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        protected = rng.random(n) < cfg.protected_fraction
        mu = (
            cfg.score_loc
            + cfg.score_spread * (rho * latent + mix * noise)
            + cfg.bias_strength * (~protected)
        )
        sigma = np.abs(rng.normal(cfg.sigma_loc, cfg.sigma_spread, n))
        neutrality = np.where(protected, 1.0, rng.random(n))
        candidates = [
            ScoredCandidate(
                doc_id=f"{query_id}-d{j:03d}",
                mu=mu[j],
                sigma=sigma[j],
                neutrality=neutrality[j],
            )
            for j in range(n)
        ]
        corpus.append(build_query(query_id, candidates))
        for j in range(n):
            if latent[j] > _RELEVANT_LATENT_THRESHOLD:
                grades[(query_id, f"{query_id}-d{j:03d}")] = 1
    return assign_groups(QueryStack(corpus)), RelevanceJudgments(grades=grades)
