"""Post hoc uncertainty for a deterministic linear last layer.

A trained ranker's final linear layer is wrapped in a Gaussian posterior
centred at its weights, with a diagonal-Fisher precision estimated from
per-example log-likelihood gradients. Sampling weight vectors from that
posterior and scoring a query's feature matrix against them, in one pass
over cache-sized blocks of samples, yields Monte Carlo estimates of the
predictive mean and standard deviation per query-document pair; an exact
closed form for the linear case is kept alongside as an oracle.

``score_queries`` scores many queries on two cores: while this thread scores
one, a second thread draws the next one's standard normals (numpy's fill and
the matrix-vector products release the GIL). That thread runs only numpy,
never a public ``pufr`` function, and has ended when ``score_queries`` returns.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import QueryCandidates, ScoredCandidate, build_query, check_seed

DEFAULT_DAMPING = 1e-3
_BLOCK_ROWS = 128  # samples scored per pass: 128 x 768 doubles stay in L2


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
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2 for a sample variance")
        check_seed(self.seed)


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


def _standard_normals(seed: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``default_rng(seed)``'s standard normals; the same
    bits as ``standard_normal(out.shape)``."""
    np.random.default_rng(seed).standard_normal(out=out)
    return out


def sample_last_layers(
    posterior: LastLayerPosterior, cfg: McConfig, normals: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``cfg.n_samples`` weight vectors from the posterior.

    Returns an (N, d) array; fully reproducible from ``cfg.seed``. The draws
    equal ``rng.normal(loc=theta_map, scale=1/sqrt(fisher_diag), size=(N, d))``
    bit for bit: one standard-normal fill, scaled and shifted in place.
    ``normals``, when given, is that fill already made from ``cfg.seed``; it is
    scaled and shifted in place and returned.
    """
    shape = (cfg.n_samples, posterior.dim)
    if normals is None:
        normals = _standard_normals(cfg.seed, np.empty(shape))
    elif normals.shape != shape:
        raise ValueError(f"normals have shape {normals.shape}, expected {shape}")
    normals *= 1.0 / np.sqrt(posterior.fisher_diag)
    normals += posterior.theta_map
    return normals


def predictive_moments(samples: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo predictive means and standard deviations of linear scores.

    ``features`` holds one query's documents as (n, d) rows; returns the ``mu``
    and ``sigma`` columns. Each cache-sized block of samples scores every row
    in one batched call, a stack of matrix-vector products (gemv), one per
    row, keeping the bits of ``samples @ h``. A matrix-matrix product (GEMM)
    runs several times faster but sums in another order, and so would change
    every recorded sigma; a 1-row block, another BLAS kernel, would too, so a
    1-row tail joins the block before it. The variance is the population form
    (divide by N); rounding below zero is clipped before the square root.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    features = np.ascontiguousarray(features, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be an (N, d) array")
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if features.ndim != 2 or features.shape[1] != samples.shape[1]:
        raise ValueError(
            f"feature dimension {features.shape} does not match samples {samples.shape}"
        )
    scores = np.empty((features.shape[0], samples.shape[0]))
    bounds = [*range(0, samples.shape[0] - 1, _BLOCK_ROWS), samples.shape[0]]
    for a, b in zip(bounds, bounds[1:]):
        np.matmul(samples[a:b], features[:, :, None], out=scores[:, a:b, None])
    mu = scores.mean(axis=1)
    # mu**2 on Python floats (pow), as taken per document; np.square differs by an ulp
    var = (scores**2).mean(axis=1) - [m**2 for m in mu.tolist()]
    return mu, np.sqrt(np.maximum(var, 0.0))


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
    normals: np.ndarray | None = None,
) -> QueryCandidates:
    """Score one query's ``{doc_id: feature vector}`` rows into (mu, sigma).

    One weight-sample set is drawn per query and shared across its
    candidates, so per-candidate scores are comparable draws of the same
    model; original ranks follow the new means. ``normals``, when given, is
    the query's standard-normal fill already made from its derived seed (see
    ``score_queries``); it is overwritten by the samples.
    """
    # keep this argument order: bench/tracer.py reads len(args[1]) and args[3].n_samples
    samples = sample_last_layers(
        posterior, replace(cfg, seed=derive_query_seed(cfg.seed, query_id)), normals
    )
    mu, sigma = predictive_moments(samples, np.array(list(features.values())))
    return build_query(query_id, [
        ScoredCandidate(doc_id=doc_id, mu=m, sigma=s)
        for doc_id, m, s in zip(features, mu.tolist(), sigma.tolist())
    ])


class _Draw(threading.Thread):
    """Fills ``out`` with ``seed``'s standard normals on a second thread,
    started on construction."""

    def __init__(self, seed: int, out: np.ndarray) -> None:
        super().__init__(name="pufr-mc-draw")
        self.seed, self.out = seed, out
        self.error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            _standard_normals(self.seed, self.out)
        except BaseException as exc:  # re-raised by result() on the waiting thread
            self.error = exc

    def result(self) -> np.ndarray:
        """Wait for the fill; ``out``, or what the fill raised."""
        self.join()
        if self.error is not None:
            raise self.error
        return self.out


def score_queries(
    posterior: LastLayerPosterior,
    features: Mapping[str, Mapping[str, np.ndarray]],
    cfg: McConfig,
) -> list[QueryCandidates]:
    """``score_query`` for each query of ``{query_id: {doc_id: feature vector}}``,
    in order and with the same bits.

    Two (N, d) buffers are allocated once. While this thread scores a query
    from one of them, a second thread draws the next query's standard
    normals into the other. That thread has finished when this returns or
    raises.
    """
    seeds = [derive_query_seed(cfg.seed, query_id) for query_id in features]
    buffers = [np.empty((cfg.n_samples, posterior.dim)) for _ in seeds[:2]]
    scored = []
    pending = _Draw(seeds[0], buffers[0]) if seeds else None
    try:
        for i, (query_id, docs) in enumerate(features.items()):
            normals, pending = pending.result(), None
            if i + 1 < len(seeds):
                pending = _Draw(seeds[i + 1], buffers[(i + 1) % 2])
            scored.append(score_query(posterior, docs, query_id, cfg, normals))
    finally:
        if pending is not None:  # scoring raised: the next draw is dropped once it ends
            pending.join()
    return scored
