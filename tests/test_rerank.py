import numpy as np
import pytest

from pufr.baselines import unfair_rank
from pufr.core import QueryStack, ScoredCandidate, assign_groups, build_query, rank_by_score
from pufr.metrics import fairr_at_k
from pufr.rerank import PufrConfig, adjust_scores, compute_sigma_mean, pufr_rerank, uniform_rerank

from conftest import groups_of, make_query, random_query, ranking_key, rows, score_map


def oracle_adjusted(query, cfg):
    """Independent formulation of the clamped adjustment: the protected
    scores are the prefix minimum of mu + alpha*sigma taken in mu-descending
    order, the non-protected ones the suffix maximum of mu - alpha*sigma."""
    by_mu = sorted(rows(query), key=lambda c: -c.mu)  # stable: ties keep original rank
    protected = [c for c in by_mu if c.protected]
    others = [c for c in by_mu if not c.protected]
    out = {}
    if protected:
        raw = np.array([c.mu + cfg.alpha_protected * c.sigma for c in protected])
        for c, value in zip(protected, np.minimum.accumulate(raw)):
            out[c.doc_id] = float(value)
    if others:
        raw = np.array([c.mu - cfg.alpha_nonprotected * c.sigma for c in others])
        for c, value in zip(others, np.maximum.accumulate(raw[::-1])[::-1]):
            out[c.doc_id] = float(value)
    return out


def group_sequences(ranking, query):
    groups = groups_of(query)
    protected = [d for d in ranking.doc_ids() if groups[d]]
    others = [d for d in ranking.doc_ids() if not groups[d]]
    return protected, others


class TestAdjustScores:
    def test_three_doc_hand_case(self):
        q = make_query([5.0, 3.0, 2.5], [0.2, 0.4, 0.6], [0.0, 0.0, 1.0],
                       doc_ids=["D1", "D2", "D3"])
        adjusted = score_map(q, adjust_scores(q, PufrConfig.symmetric(1.0)))
        assert adjusted["D1"] == pytest.approx(4.8, abs=1e-12)
        assert adjusted["D2"] == pytest.approx(2.6, abs=1e-12)
        assert adjusted["D3"] == pytest.approx(3.1, abs=1e-12)

    def test_alpha_zero_is_the_identity(self):
        rng = np.random.default_rng(31)
        for i in range(25):
            q = random_query(rng, query_id=f"q{i}")
            adjusted = adjust_scores(q, PufrConfig.symmetric(0.0))
            assert adjusted.tolist() == q.mu.tolist()

    def test_protected_clamp_produces_tie_resolved_by_rank(self):
        q = make_query([4.0, 3.9], [0.1, 1.0], [1.0, 1.0], doc_ids=["P1", "P2"])
        adjusted = score_map(q, adjust_scores(q, PufrConfig.symmetric(1.0)))
        assert adjusted["P1"] == pytest.approx(4.1, abs=1e-12)
        assert adjusted["P2"] == pytest.approx(4.1, abs=1e-12)
        assert pufr_rerank(q, PufrConfig.symmetric(1.0)).doc_ids() == ("P1", "P2")

    def test_unassigned_group_is_an_error(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, sigma=0.5)])
        with pytest.raises(ValueError, match="group"):
            adjust_scores(q, PufrConfig.symmetric(1.0))

    def test_missing_sigma_is_an_error(self):
        q = build_query(
            "q",
            [ScoredCandidate(doc_id="d", mu=1.0, neutrality=1.0)],
        )
        q = assign_groups(q)
        with pytest.raises(ValueError, match="sigma"):
            adjust_scores(q, PufrConfig.symmetric(1.0))

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(37)
        cfgs = [PufrConfig.symmetric(a) for a in (0.0, 0.5, 1.0, 2.0)]
        cfgs.append(PufrConfig(alpha_protected=2.0, alpha_nonprotected=0.5))
        for i in range(150):
            q = random_query(rng, n_min=1, n_max=6, query_id=f"q{i}")
            for cfg in cfgs:
                assert score_map(q, adjust_scores(q, cfg)) == oracle_adjusted(q, cfg)

    def test_adjustment_is_one_sided_and_bounded(self):
        rng = np.random.default_rng(41)
        for i in range(60):
            q = random_query(rng, query_id=f"q{i}")
            for alpha in (0.5, 1.0, 4.0):
                adjusted = score_map(q, adjust_scores(q, PufrConfig.symmetric(alpha)))
                for c in rows(q):
                    delta = adjusted[c.doc_id] - c.mu
                    if c.protected:
                        assert -1e-9 <= delta <= alpha * c.sigma * (1 + 1e-12) + 1e-12
                    else:
                        assert -alpha * c.sigma * (1 + 1e-12) - 1e-12 <= delta <= 1e-9

    def test_directional_monotonicity_in_alpha(self):
        rng = np.random.default_rng(43)
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        for i in range(40):
            q = random_query(rng, query_id=f"q{i}")
            per_alpha = [score_map(q, adjust_scores(q, PufrConfig.symmetric(a))) for a in grid]
            for c in rows(q):
                series = [adj[c.doc_id] for adj in per_alpha]
                if c.protected:
                    assert all(a <= b for a, b in zip(series, series[1:]))
                else:
                    assert all(a >= b for a, b in zip(series, series[1:]))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            PufrConfig.symmetric(-1.0)


class TestPufrRerank:
    def test_hand_case_order(self):
        q = make_query([5.0, 3.0, 2.5], [0.2, 0.4, 0.6], [0.0, 0.0, 1.0],
                       doc_ids=["D1", "D2", "D3"])
        assert pufr_rerank(q, PufrConfig.symmetric(1.0)).doc_ids() == ("D1", "D3", "D2")

    def test_single_group_never_reorders(self):
        rng = np.random.default_rng(47)
        for i in range(25):
            n = int(rng.integers(1, 10))
            q = make_query(rng.normal(size=n), np.abs(rng.normal(size=n)),
                           [1.0] * n, query_id=f"q{i}")
            for alpha in (0.5, 3.0, 100.0):
                assert (
                    pufr_rerank(q, PufrConfig.symmetric(alpha)).doc_ids()
                    == unfair_rank(q).doc_ids()
                )

    def test_huge_alpha_fully_separates_groups(self):
        rng = np.random.default_rng(53)
        for i in range(25):
            q = random_query(rng, n_min=2, n_max=12, query_id=f"q{i}")
            sigmas_positive = bool((q.sigma > 0).all())
            if not sigmas_positive:
                continue
            ranking = pufr_rerank(q, PufrConfig.symmetric(1e9))
            groups = groups_of(q)
            labels = [groups[d] for d in ranking.doc_ids()]
            # every protected doc must come before every non-protected one
            seen_non = False
            for label in labels:
                if not label:
                    seen_non = True
                else:
                    assert not seen_non
            # and within-group orders stay intact
            unfair = unfair_rank(q)
            assert group_sequences(ranking, q) == group_sequences(unfair, q)

    def test_intra_group_order_preserved_for_all_alphas(self):
        rng = np.random.default_rng(59)
        for i in range(60):
            q = random_query(rng, n_min=2, n_max=20, query_id=f"q{i}")
            unfair = unfair_rank(q)
            for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
                ranking = pufr_rerank(q, PufrConfig.symmetric(alpha))
                assert group_sequences(ranking, q) == group_sequences(unfair, q)

    def test_pairwise_flips_are_monotone_in_alpha(self):
        rng = np.random.default_rng(61)
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        for i in range(30):
            q = random_query(rng, n_min=2, n_max=12, query_id=f"q{i}")
            groups = groups_of(q)
            positions_per_alpha = []
            for alpha in grid:
                ranking = pufr_rerank(q, PufrConfig.symmetric(alpha))
                positions_per_alpha.append(
                    {d: pos for pos, d in enumerate(ranking.doc_ids())}
                )
            protected = [d for d, g in groups.items() if g]
            others = [d for d, g in groups.items() if not g]
            for p in protected:
                for o in others:
                    above = [pos[p] < pos[o] for pos in positions_per_alpha]
                    # once above, stays above as alpha grows
                    assert all(not (a and not b) for a, b in zip(above, above[1:]))

    def test_per_query_fairness_never_decreases_with_alpha(self):
        rng = np.random.default_rng(67)
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        for i in range(30):
            q = random_query(rng, n_min=2, n_max=15, query_id=f"q{i}")
            values = [fairr_at_k(pufr_rerank(q, PufrConfig.symmetric(a)), 10) for a in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestSigmaMean:
    def test_two_element_mean(self):
        corpus = QueryStack([make_query([1.0], [1.0], query_id="a"),
                             make_query([1.0], [3.0], query_id="b")])
        assert compute_sigma_mean(corpus) == 2.0

    def test_constant_sigma(self):
        corpus = QueryStack([make_query([1.0, 2.0], [0.7, 0.7])])
        assert compute_sigma_mean(corpus) == pytest.approx(0.7)

    def test_mean_over_all_pairs(self):
        corpus = QueryStack([make_query([1.0, 2.0], [0.0, 0.0], query_id="a"),
                             make_query([1.0], [6.0], query_id="b")])
        assert compute_sigma_mean(corpus) == 2.0

    def test_missing_sigma_rejected(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        with pytest.raises(ValueError, match="sigma"):
            compute_sigma_mean(QueryStack([q]))


class TestUniformRerank:
    def test_zero_shift_equals_unfair(self):
        rng = np.random.default_rng(71)
        for i in range(20):
            q = random_query(rng, query_id=f"q{i}")
            ranking = uniform_rerank(q, 0.0, PufrConfig.symmetric(3.0))
            assert ranking.doc_ids() == unfair_rank(q).doc_ids()

    def test_coincides_with_pufr_under_constant_sigma(self):
        rng = np.random.default_rng(73)
        for i in range(20):
            n = int(rng.integers(2, 12))
            neutralities = np.where(rng.random(n) < 0.5, 1.0, 0.3)
            q = make_query(rng.normal(size=n), [0.8] * n, neutralities, query_id=f"q{i}")
            # an asymmetric config too: protected alpha 2, non-protected 0.5
            for cfg in (PufrConfig.symmetric(1.5), PufrConfig(2.0, 0.5)):
                assert ranking_key(uniform_rerank(q, 0.8, cfg)) == ranking_key(pufr_rerank(q, cfg))

    def test_hand_case(self):
        q = make_query([5.0, 3.0, 2.5], [9.0, 9.0, 9.0], [0.0, 0.0, 1.0],
                       doc_ids=["D1", "D2", "D3"])
        ranking = uniform_rerank(q, 0.4, PufrConfig.symmetric(1.0))
        scores = dict(zip(ranking.doc_ids(), ranking.scores.tolist()))
        assert scores["D1"] == pytest.approx(4.6, abs=1e-12)
        assert scores["D2"] == pytest.approx(2.6, abs=1e-12)
        assert scores["D3"] == pytest.approx(2.9, abs=1e-12)
        assert ranking.doc_ids() == ("D1", "D3", "D2")

    def test_accepts_candidates_without_sigma(self):
        mus, neutralities = [4.0, 3.0, 2.5, 1.0], [0.0, 1.0, 1.0, 0.2]
        bare = assign_groups(build_query("q", [
            ScoredCandidate(doc_id=f"d{i}", mu=mu, neutrality=n)
            for i, (mu, n) in enumerate(zip(mus, neutralities))
        ]))
        with_sigma = make_query(mus, [0.6] * 4, neutralities, doc_ids=["d0", "d1", "d2", "d3"])
        cfg = PufrConfig.symmetric(1.25)
        assert ranking_key(uniform_rerank(bare, 0.6, cfg)) == ranking_key(
            pufr_rerank(with_sigma, cfg)
        )
        with pytest.raises(ValueError, match="'q' has no sigma"):
            adjust_scores(bare, cfg)

    def test_negative_sigma_mean_rejected(self):
        q = make_query([1.0], [0.5], [1.0])
        with pytest.raises(ValueError, match="sigma_mean"):
            uniform_rerank(q, -0.1, PufrConfig.symmetric(1.0))
