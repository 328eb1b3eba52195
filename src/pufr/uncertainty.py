"""Post hoc uncertainty for a deterministic linear last layer.

A trained ranker's final linear layer is wrapped in a Gaussian posterior
centred at its weights, with a diagonal-Fisher precision estimated from
per-example log-likelihood gradients. Sampling weight vectors from that
posterior and scoring a feature vector with each sample yields Monte
Carlo estimates of the predictive mean and standard deviation per
query-document pair; an exact closed form for the linear case is kept
alongside as an oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import QueryCandidates, ScoredCandidate, build_query

DEFAULT_DAMPING = 1e-3
DEFAULT_MC_SAMPLES = 1000


@dataclass(frozen=True)
class LastLayerPosterior:
    """Gaussian over last-layer weights: mean ``theta_map``, precision
    ``fisher_diag`` (already damped; strictly positive)."""

    theta_map: np.ndarray
    fisher_diag: np.ndarray
    damping: float = 0.0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_map, dtype=float)
        fisher = np.asarray(self.fisher_diag, dtype=float)
        if theta.ndim != 1 or fisher.ndim != 1:
            raise ValueError("theta_map and fisher_diag must be 1-d vectors")
        if theta.shape != fisher.shape:
            raise ValueError(
                f"dimension mismatch: theta_map has {theta.shape[0]} entries, "
                f"fisher_diag has {fisher.shape[0]}"
            )
        if not (np.isfinite(theta).all() and np.isfinite(fisher).all()):
            raise ValueError("posterior parameters must be finite")
        if not (fisher > 0.0).all():
            raise ValueError("fisher_diag entries must be strictly positive (add damping)")
        if not (np.isfinite(self.damping) and self.damping >= 0.0):
            raise ValueError(f"damping must be >= 0, got {self.damping!r}")
        object.__setattr__(self, "theta_map", theta)
        object.__setattr__(self, "fisher_diag", fisher)

    @property
    def dim(self) -> int:
        return self.theta_map.shape[0]


@dataclass(frozen=True)
class McConfig:
    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2 for a sample variance")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class PredictiveDistribution:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"invalid predictive moments ({self.mu!r}, {self.sigma!r})")


def estimate_diagonal_fisher(
    per_example_gradients: Sequence[np.ndarray], damping: float = DEFAULT_DAMPING
) -> np.ndarray:
    """Empirical diagonal Fisher: mean of squared gradients, plus damping.

    The gradients are per-example gradients of the log likelihood with
    respect to the last-layer weights, e.g. from a calibration set.
    """
    if len(per_example_gradients) == 0:
        raise ValueError("need at least one gradient vector")
    if not (np.isfinite(damping) and damping >= 0.0):
        raise ValueError(f"damping must be >= 0, got {damping!r}")
    grads = np.asarray(per_example_gradients, dtype=float)
    if grads.ndim != 2:
        raise ValueError("gradient vectors must share a common dimension")
    if not np.isfinite(grads).all():
        raise ValueError("gradient vectors must be finite")
    return np.mean(grads**2, axis=0) + damping


def squared_error_gradients(
    theta: np.ndarray, features: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-example gradients of 0.5*(theta.h - y)^2, i.e. a unit-variance
    Gaussian likelihood over a linear score. Convenience for synthetic
    calibration sets; precomputed gradients from any model work as well."""
    theta = np.asarray(theta, dtype=float)
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if features.shape[1] != theta.shape[0]:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match theta dimension "
            f"{theta.shape[0]}"
        )
    if features.shape[0] != targets.shape[0]:
        raise ValueError("one target per feature row required")
    residuals = features @ theta - targets
    return residuals[:, None] * features


def sample_last_layers(posterior: LastLayerPosterior, cfg: McConfig) -> np.ndarray:
    """Draw ``cfg.n_samples`` weight vectors from the posterior.

    Returns an (N, d) array; fully reproducible from ``cfg.seed``. The draws
    equal ``rng.normal(loc=theta_map, scale=1/sqrt(fisher_diag), size=(N, d))``
    bit for bit: one standard-normal fill, scaled and shifted in place.
    """
    rng = np.random.default_rng(cfg.seed)
    samples = rng.standard_normal((cfg.n_samples, posterior.dim))
    samples *= 1.0 / np.sqrt(posterior.fisher_diag)
    samples += posterior.theta_map
    return samples


def predictive_moments(samples: np.ndarray, feature: np.ndarray) -> PredictiveDistribution:
    """Monte Carlo predictive mean and standard deviation of a linear score.

    The variance is the population form (divide by N), matching the
    sampled-moment estimator; tiny negative values from rounding are
    clipped to zero before the square root.
    """
    samples = np.asarray(samples, dtype=float)
    feature = np.asarray(feature, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be an (N, d) array")
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if feature.ndim != 1 or feature.shape[0] != samples.shape[1]:
        raise ValueError(
            f"feature dimension {feature.shape} does not match samples {samples.shape}"
        )
    scores = samples @ feature
    mu = float(np.mean(scores))
    var = float(np.mean(scores**2) - mu**2)
    return PredictiveDistribution(mu=mu, sigma=float(np.sqrt(max(var, 0.0))))


def analytic_predictive(
    posterior: LastLayerPosterior, feature: np.ndarray
) -> PredictiveDistribution:
    """Exact predictive moments for the linear-Gaussian case.

    mu = theta.h and var = sum_j h_j^2 / fisher_j; used as the oracle the
    Monte Carlo path is validated against.
    """
    feature = np.asarray(feature, dtype=float)
    if feature.ndim != 1 or feature.shape[0] != posterior.dim:
        raise ValueError(
            f"feature dimension {feature.shape} does not match posterior dimension "
            f"{posterior.dim}"
        )
    mu = float(posterior.theta_map @ feature)
    var = float(np.sum(feature**2 / posterior.fisher_diag))
    return PredictiveDistribution(mu=mu, sigma=float(np.sqrt(var)))


def derive_query_seed(seed: int, query_id: str) -> int:
    """Stable per-query seed: base seed XOR a digest of the query id.

    Python's builtin ``hash`` is salted per process, so a keyed digest is
    used instead to keep parallel and repeated runs bitwise reproducible.
    """
    digest = hashlib.blake2b(query_id.encode("utf-8"), digest_size=8).digest()
    return (seed ^ int.from_bytes(digest, "big")) & (2**64 - 1)


def score_query(
    posterior: LastLayerPosterior,
    features: Mapping[str, np.ndarray],
    query_id: str,
    cfg: McConfig,
) -> QueryCandidates:
    """Score one query's ``{doc_id: feature vector}`` rows into (mu, sigma).

    One weight-sample set is drawn per query and shared across its
    candidates, so per-candidate scores are comparable draws of the same
    model; original ranks follow the new means.
    """
    # keep this argument order: bench/tracer.py reads len(args[1]) and args[3].n_samples
    samples = sample_last_layers(
        posterior, replace(cfg, seed=derive_query_seed(cfg.seed, query_id))
    )
    rescored: list[ScoredCandidate] = []
    for doc_id, feature in features.items():
        dist = predictive_moments(samples, feature)
        rescored.append(ScoredCandidate(doc_id=doc_id, mu=dist.mu, sigma=dist.sigma))
    return build_query(query_id, rescored)
