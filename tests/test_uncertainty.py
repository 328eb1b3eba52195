import numpy as np
import pytest

from pufr import (
    LastLayerPosterior,
    McConfig,
    analytic_predictive,
    estimate_diagonal_fisher,
    predictive_moments,
    sample_last_layers,
    score_query,
    squared_error_gradients,
)

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
            got = sample_last_layers(post, McConfig(n_samples=n_samples, seed=seed))
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="n_samples"):
            McConfig(n_samples=1, seed=0)


class TestPredictiveMoments:
    def test_two_sample_hand_case(self):
        dist = predictive_moments(np.array([[1.0], [3.0]]), np.array([2.0]))
        assert dist.mu == 4.0
        assert dist.sigma == 2.0

    def test_identical_samples_give_zero_sigma(self):
        samples = np.array([[3.0, 1.0]] * 8)
        dist = predictive_moments(samples, np.array([2.0, 4.0]))
        assert dist.sigma == 0.0

    def test_converges_to_closed_form(self):
        post = posterior([1.0, 1.0], [4.0, 4.0])
        feature = np.array([1.0, 2.0])
        samples = sample_last_layers(post, McConfig(n_samples=50_000, seed=7))
        dist = predictive_moments(samples, feature)
        exact = analytic_predictive(post, feature)
        assert exact.mu == 3.0
        assert exact.sigma**2 == pytest.approx(1.25, abs=1e-15)
        assert dist.mu == pytest.approx(exact.mu, abs=0.02)
        assert dist.sigma == pytest.approx(exact.sigma, rel=0.02)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            predictive_moments(np.ones((4, 3)), np.ones(2))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            predictive_moments(np.ones((1, 2)), np.ones(2))


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
            mc = predictive_moments(samples, h)
            assert abs(mc.sigma**2 - exact.sigma**2) / exact.sigma**2 < 0.05


class TestPosteriorValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            posterior([1.0, 2.0], [1.0])

    def test_negative_damping(self):
        with pytest.raises(ValueError, match="damping"):
            posterior([1.0], [1.0], damping=-0.5)
