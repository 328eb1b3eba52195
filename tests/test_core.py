import numpy as np
import pytest

from pufr import (
    GroupLabel,
    QueryCandidates,
    ScoredCandidate,
    assign_groups,
    build_query,
    rank_by_score,
)

from conftest import make_query


class TestScoredCandidate:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ScoredCandidate(doc_id="d", mu=1.0, sigma=-0.1)

    def test_rejects_out_of_range_neutrality(self):
        with pytest.raises(ValueError, match="neutrality"):
            ScoredCandidate(doc_id="d", mu=1.0, neutrality=1.5)
        with pytest.raises(ValueError, match="neutrality"):
            ScoredCandidate(doc_id="d", mu=1.0, neutrality=-0.01)

    def test_rejects_non_finite_mu(self):
        with pytest.raises(ValueError, match="mu"):
            ScoredCandidate(doc_id="d", mu=float("nan"))

    def test_coerces_numpy_scalars(self):
        c = ScoredCandidate(doc_id="d", mu=np.float64(1.5), sigma=np.float64(0.5))
        assert type(c.mu) is float and type(c.sigma) is float


class TestQueryCandidates:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            QueryCandidates(query_id="q", candidates=())

    def test_rejects_duplicate_doc_ids(self):
        cands = (
            ScoredCandidate(doc_id="d", mu=1.0, original_rank=1),
            ScoredCandidate(doc_id="d", mu=0.5, original_rank=2),
        )
        with pytest.raises(ValueError, match="duplicate"):
            QueryCandidates(query_id="q", candidates=cands)

    def test_rejects_bad_rank_permutation(self):
        cands = (
            ScoredCandidate(doc_id="a", mu=1.0, original_rank=1),
            ScoredCandidate(doc_id="b", mu=0.5, original_rank=3),
        )
        with pytest.raises(ValueError, match="permutation"):
            QueryCandidates(query_id="q", candidates=cands)

    def test_neutrality_memo_leaves_equality_hash_and_repr_alone(self):
        a = make_query([2.0, 1.0, 0.5], [0.1, 0.2, 0.3], [1.0, 0.25, 0.5])
        b = make_query([2.0, 1.0, 0.5], [0.1, 0.2, 0.3], [1.0, 0.25, 0.5])
        a.neutrality_by_doc()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert len({a, b}) == 1

    def test_neutrality_by_doc_is_read_only(self):
        q = make_query([2.0, 1.0], [0.1, 0.2], [1.0, 0.25])
        neutrality = q.neutrality_by_doc()
        assert dict(neutrality) == {"d1": 1.0, "d2": 0.25}
        with pytest.raises(TypeError):
            neutrality["d1"] = 0.0
        assert q.neutrality_by_doc()["d1"] == 1.0

    def test_neutrality_descending(self):
        q = make_query([3.0, 2.0, 1.0, 0.0], [0.0] * 4, [0.25, 1.0, 0.0, 0.5])
        assert q.neutrality_descending() == (1.0, 0.5, 0.25, 0.0)

    def test_missing_neutrality_raises_on_every_call(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        for _ in range(2):
            with pytest.raises(ValueError, match="'d' has no neutrality"):
                q.neutrality_by_doc()


class TestBuildQuery:
    def test_ranks_follow_mu_descending(self):
        q = build_query(
            "q",
            [
                ScoredCandidate(doc_id="a", mu=1.0),
                ScoredCandidate(doc_id="b", mu=3.0),
                ScoredCandidate(doc_id="c", mu=2.0),
            ],
        )
        ranks = {c.doc_id: c.original_rank for c in q.candidates}
        assert ranks == {"b": 1, "c": 2, "a": 3}

    def test_mu_ties_break_by_doc_id(self):
        q = build_query(
            "q",
            [
                ScoredCandidate(doc_id="z", mu=1.0),
                ScoredCandidate(doc_id="a", mu=1.0),
            ],
        )
        ranks = {c.doc_id: c.original_rank for c in q.candidates}
        assert ranks == {"a": 1, "z": 2}


class TestAssignGroups:
    def test_neutrality_one_is_protected_at_default_threshold(self):
        q = make_query([1.0], neutralities=[1.0])
        assert q.candidates[0].group is GroupLabel.PROTECTED

    def test_neutrality_zero_is_not_protected(self):
        q = make_query([1.0], neutralities=[0.0])
        assert q.candidates[0].group is GroupLabel.NON_PROTECTED

    def test_softer_threshold(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.95)])
        q = assign_groups(q, protected_threshold=0.9)
        assert q.candidates[0].group is GroupLabel.PROTECTED

    def test_partition_is_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            q = build_query(
                "q",
                [
                    ScoredCandidate(doc_id=f"d{i}", mu=float(rng.normal()),
                                    neutrality=float(rng.random()))
                    for i in range(n)
                ],
            )
            q = assign_groups(q, protected_threshold=0.5)
            protected = sum(c.group is GroupLabel.PROTECTED for c in q.candidates)
            non = sum(c.group is GroupLabel.NON_PROTECTED for c in q.candidates)
            assert protected + non == n

    def test_missing_neutrality_is_an_error(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        with pytest.raises(ValueError, match="neutrality"):
            assign_groups(q)

    def test_threshold_range_validated(self):
        q = make_query([1.0], neutralities=[1.0])
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=1.2)


class TestRankByScore:
    def test_two_distinct_scores(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])
        ranking = rank_by_score(q, {"A": 2.0, "B": 1.0})
        assert ranking.doc_ids() == ("A", "B")

    def test_tie_falls_back_to_original_rank(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])  # A has original_rank 1
        ranking = rank_by_score(q, {"A": 1.0, "B": 1.0})
        assert ranking.doc_ids() == ("A", "B")

    def test_full_sort(self):
        q = make_query([1.0, 3.0, 2.0], doc_ids=["A", "B", "C"])
        ranking = rank_by_score(q, {"A": 1.0, "B": 3.0, "C": 2.0})
        assert ranking.doc_ids() == ("B", "C", "A")

    def test_missing_score_names_the_doc(self):
        q = make_query([1.0, 2.0], doc_ids=["A", "B"])
        with pytest.raises(ValueError, match="'B'"):
            rank_by_score(q, {"A": 1.0})

    def test_non_finite_score_rejected(self):
        q = make_query([1.0], doc_ids=["A"])
        with pytest.raises(ValueError, match="finite"):
            rank_by_score(q, {"A": float("inf")})

    def test_idempotent_reranking(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            q = make_query(rng.normal(size=n))
            scores = {f"d{i + 1}": float(rng.choice([0.0, 1.0, 2.0])) for i in range(n)}
            first = rank_by_score(q, scores)
            # feed the produced order back in as the candidate order
            reordered = QueryCandidates(
                query_id=q.query_id,
                candidates=tuple(q.candidate(doc_id) for doc_id in first.doc_ids()),
            )
            assert rank_by_score(reordered, scores) == first

    def test_deterministic_under_input_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            q = make_query(rng.normal(size=n))
            scores = {f"d{i + 1}": float(rng.choice([0.5, 1.5])) for i in range(n)}
            baseline = rank_by_score(q, scores)
            perm = rng.permutation(n)
            shuffled = QueryCandidates(
                query_id=q.query_id,
                candidates=tuple(q.candidates[i] for i in perm),
            )
            assert rank_by_score(shuffled, scores) == baseline
