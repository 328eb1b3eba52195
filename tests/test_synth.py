import numpy as np
import pytest

from pufr.synth import SyntheticConfig, generate_synthetic

from conftest import query_key, rows


class TestGenerateSynthetic:
    def test_same_seed_gives_identical_corpora(self):
        cfg = SyntheticConfig(n_queries=5, n_candidates=10, seed=42)
        corpus_a, judgments_a = generate_synthetic(cfg)
        corpus_b, judgments_b = generate_synthetic(cfg)
        assert list(map(query_key, corpus_a)) == list(map(query_key, corpus_b))
        assert judgments_a.grades == judgments_b.grades

    def test_different_seed_changes_the_corpus(self):
        a, _ = generate_synthetic(SyntheticConfig(n_queries=3, seed=1))
        b, _ = generate_synthetic(SyntheticConfig(n_queries=3, seed=2))
        assert list(map(query_key, a)) != list(map(query_key, b))

    def test_protected_fraction_one_marks_everything_protected(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_queries=4, n_candidates=6, protected_fraction=1.0, seed=0)
        )
        for q in corpus:
            assert q.protected.all()
            assert (q.neutrality == 1.0).all()

    def test_protected_fraction_zero_marks_nothing_protected(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_queries=4, n_candidates=6, protected_fraction=0.0, seed=0)
        )
        for q in corpus:
            assert not q.protected.any()
            assert (q.neutrality < 1.0).all()

    def test_zero_bias_keeps_group_means_statistically_equal(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_queries=1000, n_candidates=10, bias_strength=0.0, seed=7)
        )
        protected = np.array(
            [c.mu for q in corpus for c in rows(q) if c.protected]
        )
        others = np.array(
            [c.mu for q in corpus for c in rows(q) if not c.protected]
        )
        standard_error = np.sqrt(
            protected.var(ddof=1) / len(protected) + others.var(ddof=1) / len(others)
        )
        assert abs(protected.mean() - others.mean()) < 3.0 * standard_error

    def test_positive_bias_inflates_non_protected_means(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_queries=300, n_candidates=10, bias_strength=2.0, seed=9)
        )
        protected = [c.mu for q in corpus for c in rows(q) if c.protected]
        others = [c.mu for q in corpus for c in rows(q) if not c.protected]
        assert np.mean(others) - np.mean(protected) > 1.0

    def test_relevance_correlates_with_scores(self):
        corpus, judgments = generate_synthetic(
            SyntheticConfig(
                n_queries=400, n_candidates=10, relevance_correlation=0.8,
                bias_strength=0.0, seed=11,
            )
        )
        mus, grades = [], []
        for q in corpus:
            for c in rows(q):
                mus.append(c.mu)
                grades.append(judgments.grades.get((q.query_id, c.doc_id), 0))
        assert np.corrcoef(mus, grades)[0, 1] > 0.2

    def test_judgments_reference_existing_docs(self):
        corpus, judgments = generate_synthetic(SyntheticConfig(n_queries=5, seed=3))
        known = {(q.query_id, doc_id) for q in corpus for doc_id in q.doc_ids}
        assert set(judgments.grades) <= known
        assert all(g == 1 for g in judgments.grades.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_queries=0)
        with pytest.raises(ValueError):
            SyntheticConfig(protected_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(relevance_correlation=-0.1)
        with pytest.raises(ValueError):
            SyntheticConfig(sigma_spread=-1.0)
