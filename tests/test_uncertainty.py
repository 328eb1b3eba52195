import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pufr
from pufr.uncertainty import (
    LastLayerPosterior,
    McConfig,
    analytic_predictive,
    estimate_diagonal_fisher,
    predictive_moments,
    sample_last_layers,
    score_queries,
    score_query,
    squared_error_gradients,
)
from pufr import uncertainty

import oracles
from conftest import query_key, rows


def posterior(theta, fisher, damping=0.0):
    return LastLayerPosterior(
        theta_map=np.asarray(theta, dtype=float),
        fisher_diag=np.asarray(fisher, dtype=float),
        damping=damping,
    )


class TestEstimateDiagonalFisher:
    def test_single_gradient_square(self):
        fisher = estimate_diagonal_fisher([np.array([2.0, 0.0])], damping=0.0)
        np.testing.assert_allclose(fisher, [4.0, 0.0])
        # a zero entry is only caught when the posterior is assembled
        with pytest.raises(ValueError, match="positive"):
            posterior([0.0, 0.0], fisher)

    def test_mean_of_squares_plus_damping(self):
        fisher = estimate_diagonal_fisher(
            [np.array([2.0, 0.0]), np.array([0.0, 2.0])], damping=0.5
        )
        np.testing.assert_allclose(fisher, [2.5, 2.5])

    def test_zero_gradients_leave_damping(self):
        fisher = estimate_diagonal_fisher([np.array([0.0, 0.0])], damping=1.0)
        np.testing.assert_allclose(fisher, [1.0, 1.0])

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_diagonal_fisher([], damping=0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_diagonal_fisher([np.array([1.0]), np.array([1.0, 2.0])])


class TestSquaredErrorGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=4)
        features = rng.normal(size=(6, 4))
        targets = rng.normal(size=6)
        grads = squared_error_gradients(theta, features, targets)

        def loss(th, i):
            return 0.5 * (features[i] @ th - targets[i]) ** 2

        eps = 1e-6
        for i in range(6):
            for j in range(4):
                up, down = theta.copy(), theta.copy()
                up[j] += eps
                down[j] -= eps
                numeric = (loss(up, i) - loss(down, i)) / (2 * eps)
                assert grads[i, j] == pytest.approx(numeric, abs=1e-5)


class TestSampleLastLayers:
    def test_vanishing_variance_pins_samples_to_mean(self):
        post = posterior([1.0, -2.0], [1e12, 1e12])
        samples = sample_last_layers(post, McConfig(n_samples=1000, seed=3))
        assert np.max(np.abs(samples - post.theta_map)) < 1e-4

    def test_standard_normal_moments(self):
        post = posterior([0.0], [1.0])
        samples = sample_last_layers(post, McConfig(n_samples=100_000, seed=5))
        assert -0.02 <= samples.mean() <= 0.02
        assert 0.98 <= samples.var() <= 1.02

    def test_seeded_determinism_is_bitwise(self):
        post = posterior([0.5, 1.5], [2.0, 3.0])
        cfg = McConfig(n_samples=64, seed=99)
        a = sample_last_layers(post, cfg)
        b = sample_last_layers(post, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 3, 33, 768])
    @pytest.mark.parametrize("n_samples", [2, 1000])
    def test_draws_equal_rng_normal_bit_for_bit(self, dim, n_samples):
        for seed in (0, 1, 2**63 + 5, 12345):
            rng = np.random.default_rng(seed + dim)
            post = posterior(rng.normal(size=dim), rng.uniform(0.1, 50.0, size=dim))
            expected = np.random.default_rng(seed).normal(
                loc=post.theta_map, scale=1.0 / np.sqrt(post.fisher_diag),
                size=(n_samples, dim),
            )
            cfg = McConfig(n_samples=n_samples, seed=seed)
            got = sample_last_layers(post, cfg)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            # a ready standard-normal draw is scaled and shifted in place, to the same bits
            ready = np.random.default_rng(seed).standard_normal((n_samples, dim))
            assert sample_last_layers(post, cfg, ready) is ready
            assert ready.tobytes() == expected.tobytes()

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="n_samples"):
            McConfig(n_samples=1, seed=0)

    def test_a_ready_draw_of_the_wrong_shape_is_rejected(self):
        post = posterior([0.5, -1.5], [2.0, 3.0])
        with pytest.raises(ValueError, match=r"shape \(50, 3\), expected \(50, 2\)"):
            sample_last_layers(post, McConfig(n_samples=50, seed=7), np.zeros((50, 3)))


class TestPredictiveMoments:
    def test_two_sample_hand_case(self):
        mu, sigma = predictive_moments(np.array([[1.0], [3.0]]), np.array([[2.0]]))
        assert mu.tolist() == [4.0]
        assert sigma.tolist() == [2.0]

    def test_identical_samples_give_zero_sigma(self):
        samples = np.array([[3.0, 1.0]] * 8)
        _, sigma = predictive_moments(samples, np.array([[2.0, 4.0]]))
        assert sigma.tolist() == [0.0]

    def test_converges_to_closed_form(self):
        post = posterior([1.0, 1.0], [4.0, 4.0])
        feature = np.array([1.0, 2.0])
        samples = sample_last_layers(post, McConfig(n_samples=50_000, seed=7))
        (mu,), (sigma,) = (c.tolist() for c in predictive_moments(samples, feature[None, :]))
        exact = analytic_predictive(post, feature)
        assert exact.mu == 3.0
        assert exact.sigma**2 == pytest.approx(1.25, abs=1e-15)
        assert mu == pytest.approx(exact.mu, abs=0.02)
        assert sigma == pytest.approx(exact.sigma, rel=0.02)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            predictive_moments(np.ones((4, 3)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            predictive_moments(np.ones((4, 3)), np.ones(3))  # one row, not a matrix

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            predictive_moments(np.ones((1, 2)), np.ones((1, 2)))

    def test_mu_squared_is_a_python_float_power(self):
        # with glibc, x * x exceeds x ** 2 (C pow) by one ulp for this x, so two
        # equal samples keep that ulp as variance, where np.square(mu) gives 0
        x = -0.8152692847334363
        samples = np.array([[x], [x]])
        mu, sigma = predictive_moments(samples, np.array([[1.0]]))
        expected = oracles.predictive_moments(samples, np.array([1.0]))
        assert (mu.tolist(), sigma.tolist()) == ([expected.mu], [expected.sigma])


EDGE_SAMPLES = (2, 3, 127, 128, 129, 257, 1001)
EDGE_DIMS = (1, 3, 33, 768)


def edge_inputs(n_samples, dim):
    """Samples and six feature rows: a repeated row and a zero row among them."""
    rng = np.random.default_rng([n_samples, dim])
    features = rng.normal(size=(6, dim))
    features[3] = features[0]
    features[4] = 0.0
    return rng.normal(size=(n_samples, dim)), features


ONE_THREAD_ORACLE = """
import json
from oracles import predictive_columns
from test_uncertainty import EDGE_DIMS, EDGE_SAMPLES, edge_inputs
print(json.dumps({
    f"{n} {d}": [c.tobytes().hex() for c in predictive_columns(*edge_inputs(n, d))]
    for n in EDGE_SAMPLES for d in EDGE_DIMS
}))
"""


@pytest.fixture(scope="module")
def one_thread_oracle():
    """The scalar oracle's (mu, sigma) bytes per edge case, computed in a child
    process with one BLAS thread, where its bits do not depend on threading."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(tests), str(Path(pufr.__file__).resolve().parents[1])]
    ))
    child = subprocess.run(
        [sys.executable, "-c", ONE_THREAD_ORACLE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(child.stdout)


class TestBlockEdges:
    """The blocked moments equal the per-document oracle bit for bit at
    sample counts around the 128-row block (129 and 257 leave a 1-row tail)."""

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    @pytest.mark.parametrize("n_samples", EDGE_SAMPLES)
    def test_bits_equal_the_per_document_oracle(self, one_thread_oracle, n_samples, dim):
        mu, sigma = predictive_moments(*edge_inputs(n_samples, dim))
        expected_mu, expected_sigma = one_thread_oracle[f"{n_samples} {dim}"]
        assert mu.tobytes().hex() == expected_mu
        assert sigma.tobytes().hex() == expected_sigma


class TestBatchedScoring:
    """Scoring a sample block against every document in one batched call
    gives the bits of one matrix-vector product per document and block."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_samples=st.one_of(st.sampled_from([2, 3, 128, 129, 256, 257]), st.integers(2, 400)),
        dim=st.one_of(st.sampled_from([1, 2, 768]), st.integers(1, 64)),
        n_docs=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_the_per_document_loop(self, n_samples, dim, n_docs, seed):
        rng = np.random.default_rng(seed)
        samples, features = rng.normal(size=(n_samples, dim)), rng.normal(size=(n_docs, dim))
        mu, sigma = predictive_moments(samples, features)
        want_mu, want_sigma = oracles.predictive_moments_per_doc(samples, features)
        assert mu.tobytes() == want_mu.tobytes()
        assert sigma.tobytes() == want_sigma.tobytes()


class TestAnalyticPredictive:
    def test_quadratic_form(self):
        dist = analytic_predictive(posterior([1.0, 1.0], [4.0, 4.0]), np.array([1.0, 2.0]))
        assert dist.mu == 3.0
        assert dist.sigma**2 == pytest.approx(1.25, abs=1e-15)

    def test_zero_feature(self):
        dist = analytic_predictive(posterior([1.0, 2.0], [1.0, 1.0]), np.zeros(2))
        assert (dist.mu, dist.sigma) == (0.0, 0.0)

    def test_confident_posterior_shrinks_sigma(self):
        feature = np.array([1.0, 1.0])
        loose = analytic_predictive(posterior([0.0, 0.0], [1.0, 1.0]), feature)
        tight = analytic_predictive(posterior([0.0, 0.0], [1e12, 1e12]), feature)
        assert tight.sigma < 1e-5 < loose.sigma

    def test_scale_covariance_exact_for_power_of_two(self):
        post = posterior([0.3, -1.2, 0.7], [2.0, 5.0, 0.5])
        h = np.array([0.9, 1.1, -0.4])
        base = analytic_predictive(post, h)
        scaled = analytic_predictive(post, 2.0 * h)
        assert scaled.mu == 2.0 * base.mu
        assert scaled.sigma == 2.0 * base.sigma

    def test_scale_covariance_general(self):
        post = posterior([0.3, -1.2], [2.0, 5.0])
        h = np.array([0.9, 1.1])
        base = analytic_predictive(post, h)
        scaled = analytic_predictive(post, 1.7 * h)
        assert scaled.mu == pytest.approx(1.7 * base.mu, rel=1e-12)
        assert scaled.sigma == pytest.approx(1.7 * base.sigma, rel=1e-12)

    def test_damping_never_increases_sigma(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            raw = np.abs(rng.normal(size=d)) + 1e-6
            h = rng.normal(size=d)
            sigmas = []
            for damping in (0.0, 1e-3, 0.1, 1.0, 10.0):
                post = posterior(np.zeros(d), raw + damping, damping)
                sigmas.append(analytic_predictive(post, h).sigma)
            assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))


class TestScoreQuery:
    def test_near_deterministic_posterior(self):
        post = posterior([2.0], [1e12])
        scored = score_query(post, {"a": np.array([1.0])}, "q7", McConfig(n_samples=500, seed=0))
        (c,) = rows(scored)
        assert c.mu == pytest.approx(2.0, abs=1e-4)
        assert c.sigma == pytest.approx(0.0, abs=1e-4)

    def test_identical_features_get_identical_moments(self):
        post = posterior([1.0, -1.0], [2.0, 2.0])
        features = {"a": np.array([0.5, 0.25]), "b": np.array([0.5, 0.25])}
        scored = score_query(post, features, "q7", McConfig(256, seed=1))
        a, b = sorted(rows(scored), key=lambda c: c.doc_id)
        assert (a.mu, a.sigma) == (b.mu, b.sigma)

    def test_sigma_close_to_closed_form(self):
        rng = np.random.default_rng(13)
        post = posterior(rng.normal(size=5), np.abs(rng.normal(size=5)) + 0.5)
        features = {f"d{i}": rng.normal(size=5) for i in range(6)}
        n = 4000
        scored = score_query(post, features, "q7", McConfig(n, seed=2))
        for c in rows(scored):
            exact = analytic_predictive(post, features[c.doc_id])
            # sampling error of sigma is about sigma/sqrt(2N)
            assert abs(c.sigma - exact.sigma) <= 3.0 * exact.sigma / np.sqrt(2 * n)
            assert abs(c.mu - exact.mu) <= 4.0 * exact.sigma / np.sqrt(n)

    def test_ranks_recomputed_from_new_means(self):
        post = posterior([1.0], [1e9])
        features = {"low": np.array([1.0]), "high": np.array([5.0])}
        scored = score_query(post, features, "q7", McConfig(64, seed=3))
        assert scored.doc_ids == ("high", "low")

    def test_result_is_reproducible(self):
        rng = np.random.default_rng(17)
        post = posterior(rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1)
        features = {f"d{i}": rng.normal(size=3) for i in range(4)}
        cfg = McConfig(128, seed=21)
        first = score_query(post, features, "q7", cfg)
        second = score_query(post, features, "q7", cfg)
        assert query_key(first) == query_key(second)


def query_features(rng, n_queries, dim):
    """Query ``q`` has ``q + 1`` docs, so the first query has one."""
    return {
        f"q{q}": {f"q{q}-d{i}": rng.normal(size=dim) for i in range(q + 1)}
        for q in range(n_queries)
    }


class TestScoreQueries:
    """The pipelined pass gives ``score_query``'s bits and leaves no thread."""

    @pytest.mark.parametrize("n_queries", [1, 2, 5])  # buffers are reused from query 3
    @pytest.mark.parametrize("n_samples", [2, 300])
    def test_equals_score_query_per_query_bit_for_bit(self, n_queries, n_samples):
        rng = np.random.default_rng(31 + n_queries)
        post = posterior(rng.normal(size=7), rng.uniform(0.1, 5.0, size=7))
        features = query_features(rng, n_queries, 7)
        cfg = McConfig(n_samples=n_samples, seed=2**63 + n_queries)
        expected = [score_query(post, docs, qid, cfg) for qid, docs in features.items()]
        before = threading.active_count()
        got = score_queries(post, features, cfg)
        assert threading.active_count() == before
        assert [query_key(q) for q in got] == [query_key(q) for q in expected]

    def test_bits_hold_when_threads_switch_often(self):
        rng = np.random.default_rng(53)
        post = posterior(rng.normal(size=16), rng.uniform(0.1, 5.0, size=16))
        features = query_features(rng, 8, 16)
        cfg = McConfig(n_samples=257, seed=9)
        expected = [query_key(score_query(post, docs, qid, cfg)) for qid, docs in features.items()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [query_key(q) for q in score_queries(post, features, cfg)]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_no_queries(self):
        assert score_queries(posterior([1.0], [1.0]), {}, McConfig(8)) == []

    def test_a_scoring_error_propagates_and_no_thread_outlives_it(self, monkeypatch):
        rng = np.random.default_rng(43)
        post = posterior(rng.normal(size=5), rng.uniform(0.1, 5.0, size=5))
        original, calls = uncertainty.predictive_moments, []

        def failing_on_query_2(samples, features):
            calls.append(len(features))
            if len(calls) == 2:  # the draw for query 3 is under way
                raise RuntimeError("scoring failed")
            return original(samples, features)

        def slow_draw(seed, out):  # still drawing query 3 when query 2 fails
            time.sleep(0.1)
            return original_draw(seed, out)

        original_draw = uncertainty._standard_normals
        monkeypatch.setattr(uncertainty, "predictive_moments", failing_on_query_2)
        monkeypatch.setattr(uncertainty, "_standard_normals", slow_draw)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="scoring failed"):
            score_queries(post, query_features(rng, 5, 5), McConfig(100, seed=1))
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_a_draw_error_propagates(self, monkeypatch):
        rng = np.random.default_rng(47)
        post = posterior(rng.normal(size=5), rng.uniform(0.1, 5.0, size=5))

        def failing(seed, out):
            raise MemoryError("no room for normals")

        monkeypatch.setattr(uncertainty, "_standard_normals", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room"):
            score_queries(post, query_features(rng, 3, 5), McConfig(100, seed=1))
        assert threading.active_count() == before


class TestMonteCarloConvergence:
    def test_relative_variance_error_small_at_10k(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            post = posterior(rng.normal(size=d), np.abs(rng.normal(size=d)) + 0.2)
            h = rng.normal(size=d)
            exact = analytic_predictive(post, h)
            if exact.sigma == 0.0:
                continue
            samples = sample_last_layers(post, McConfig(10_000, seed=int(rng.integers(1 << 31))))
            (mc_sigma,) = predictive_moments(samples, h[None, :])[1].tolist()
            assert abs(mc_sigma**2 - exact.sigma**2) / exact.sigma**2 < 0.05


class TestPosteriorValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            posterior([1.0, 2.0], [1.0])

    def test_negative_damping(self):
        with pytest.raises(ValueError, match="damping"):
            posterior([1.0], [1.0], damping=-0.5)
