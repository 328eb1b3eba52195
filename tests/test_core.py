import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from pufr import (
    PufrConfig,
    QueryCandidates,
    ScoredCandidate,
    adjust_scores,
    assign_groups,
    build_query,
    fairr_at_k,
    ideal_fairr_at_k,
    nfairr_at_k,
    rank_by_score,
)

import oracles
from conftest import (
    make_query, query_key, random_query, ranking_key, rows, score_column, score_map,
)


class TestScoredCandidate:
    # rows are checked when build_query turns them into columns

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="'d': sigma"):
            build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, sigma=-0.1)])

    def test_rejects_out_of_range_neutrality(self):
        with pytest.raises(ValueError, match="'d': neutrality"):
            build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=1.5)])
        with pytest.raises(ValueError, match="'d': neutrality"):
            build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=-0.01)])

    def test_rejects_non_finite_mu(self):
        with pytest.raises(ValueError, match="'d': mu"):
            build_query("q", [ScoredCandidate(doc_id="d", mu=float("nan"))])

    def test_names_the_first_bad_candidate(self):
        with pytest.raises(ValueError, match="'b': sigma must be finite and >= 0, got -1.0"):
            build_query("q", [ScoredCandidate(doc_id=d, mu=1.0, sigma=s)
                              for d, s in (("a", 0.5), ("b", -1.0), ("c", -2.0))])

    def test_coerces_numpy_scalars(self):
        c = ScoredCandidate(doc_id="d", mu=np.float64(1.5), sigma=np.float64(0.5))
        assert type(c.mu) is float and type(c.sigma) is float


class TestQueryCandidates:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            QueryCandidates(query_id="q", doc_ids=(), mu=[])

    def test_rejects_duplicate_doc_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            QueryCandidates(query_id="q", doc_ids=("d", "d"), mu=[1.0, 0.5])

    def test_names_each_duplicate_of_a_large_query_once(self):
        doc_ids = [f"d{i}" for i in range(20_000)] + ["d7", "d19999", "d7", "d3"]
        with pytest.raises(ValueError, match=re.escape(
            "query 'q': duplicate doc ids ['d19999', 'd3', 'd7']"
        ) + "$"):
            QueryCandidates(query_id="q", doc_ids=doc_ids, mu=np.zeros(len(doc_ids)))

    def test_rejects_columns_out_of_rank_order(self):
        with pytest.raises(ValueError, match="'b'.*original-rank order"):
            QueryCandidates(query_id="q", doc_ids=("a", "b"), mu=[0.5, 1.0])

    def test_rejects_a_column_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"sigma has shape \(1,\), expected \(2,\)"):
            QueryCandidates(query_id="q", doc_ids=("a", "b"), mu=[1.0, 0.5], sigma=[0.1])

    @pytest.mark.parametrize("mu", [[2.0, 1.0], [1.0, 2.0]])
    def test_ranked_rejects_a_column_of_the_wrong_length_in_any_order(self, mu):
        for columns, message in (({"mu": mu + [0.5]}, r"mu has shape \(3,\)"),
                                 ({"sigma": [0.1, 0.2, 0.3]}, r"sigma has shape \(3,\)"),
                                 ({"neutrality": [0.5]}, r"neutrality has shape \(1,\)")):
            columns = {"mu": mu, **columns}
            with pytest.raises(ValueError, match=f"query 'q': {message}, expected \\(2,\\)"):
                QueryCandidates.ranked("q", ["a", "b"], **columns)

    def test_columns_are_read_only_copies(self):
        mu = np.array([2.0, 1.0])
        q = QueryCandidates(query_id="q", doc_ids=("a", "b"), mu=mu)
        mu[0] = 5.0
        assert q.mu.tolist() == [2.0, 1.0] and q.mu.dtype == np.float64
        with pytest.raises(ValueError):
            q.mu[0] = 3.0

    def test_missing_neutrality_raises_on_every_call(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        ranking = rank_by_score(q, q.mu)
        for _ in range(2):
            for metric in (fairr_at_k, nfairr_at_k):
                with pytest.raises(ValueError, match="'q' has no neutrality scores"):
                    metric(ranking, 1)
            with pytest.raises(ValueError, match="'q' has no neutrality scores"):
                ideal_fairr_at_k(q, 1)

    def test_a_column_is_attached_only_when_every_row_has_it(self):
        q = build_query("q", [ScoredCandidate(doc_id="a", mu=1.0, sigma=0.5),
                              ScoredCandidate(doc_id="b", mu=0.5)])
        assert q.sigma is None
        with pytest.raises(ValueError, match="'q' has no sigma"):
            q.column("sigma")


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
        assert q.doc_ids == ("b", "c", "a")
        assert q.mu.tolist() == [3.0, 2.0, 1.0]

    def test_mu_ties_break_by_doc_id(self):
        q = build_query(
            "q",
            [
                ScoredCandidate(doc_id="z", mu=1.0),
                ScoredCandidate(doc_id="a", mu=1.0),
            ],
        )
        assert q.doc_ids == ("a", "z")


class TestAssignGroups:
    def test_neutrality_one_is_protected_at_default_threshold(self):
        q = make_query([1.0], neutralities=[1.0])
        assert q.protected.tolist() == [True]

    def test_neutrality_zero_is_not_protected(self):
        q = make_query([1.0], neutralities=[0.0])
        assert q.protected.tolist() == [False]

    def test_softer_threshold(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.95)])
        q = assign_groups(q, protected_threshold=0.9)
        assert q.protected.tolist() == [True]

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
            assert q.protected.dtype == bool and len(q.protected) == n
            assert q.protected.tolist() == [v >= 0.5 for v in q.neutrality.tolist()]

    def test_missing_neutrality_is_an_error(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        with pytest.raises(ValueError, match="neutrality"):
            assign_groups(q)

    def test_regrouping_builds_fresh_group_columns(self):
        base = build_query("q", [
            ScoredCandidate(doc_id=d, mu=mu, sigma=s, neutrality=n)
            for d, mu, s, n in (("a", 4.0, 0.5, 1.0), ("b", 3.0, 2.0, 0.6),
                                ("c", 2.0, 1.0, 0.3), ("d", 1.0, 0.25, 1.0))
        ])
        strict = assign_groups(base, 1.0)
        strict_groups = [group.index.tolist() for group in strict.by_group()]
        soft = assign_groups(strict, 0.5)
        # the non-protected docs are held in increasing mu
        assert strict_groups == [[0, 3], [2, 1]]
        assert [group.index.tolist() for group in soft.by_group()] == [[0, 1, 3], [2]]
        assert [group.index.tolist() for group in strict.by_group()] == strict_groups
        assert soft.by_group()[0].sigma.tolist() == [0.5, 2.0, 0.25]
        cfg = PufrConfig.symmetric(1.0)
        for query in (strict, soft, replace(soft, sigma=[0.0, 0.0, 3.0, 0.0])):
            assert score_map(query, adjust_scores(query, cfg)) == oracles.adjust(
                rows(query), 1.0, 1.0)

    def test_a_replaced_query_has_a_fresh_memo(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 1.0, 1.0])
        assert ideal_fairr_at_k(q, 2) == 1.0 + 1.0 / 2
        assert q.memo
        moved = replace(q, neutrality=[0.0, 0.0, 1.0])
        assert moved.memo == {}
        assert ideal_fairr_at_k(moved, 2) == 1.0
        assert ideal_fairr_at_k(q, 2) == 1.0 + 1.0 / 2

    def test_with_column_matches_replace_without_rechecking_the_query(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q = random_query(rng)
            n = len(q)
            columns = {
                "sigma": np.abs(rng.normal(0.5, 0.3, n)),
                "neutrality": np.where(rng.random(n) < 0.5, 1.0, rng.random(n)),
                "protected": rng.random(n) < 0.5,
            }
            q.memo["derived"] = True
            before = query_key(q)
            for name, values in columns.items():
                want = replace(q, **{name: values})
                with mock.patch.object(QueryCandidates, "__post_init__",
                                       side_effect=AssertionError("query checked again")):
                    got = q.with_column(name, values)
                assert query_key(got) == query_key(want) and got.memo == {}
                # the source query keeps its columns and its memo
                assert query_key(q) == before and q.memo == {"derived": True}
                assert [[column.tolist() for column in group] for group in got.by_group()] == [
                    [column.tolist() for column in group] for group in want.by_group()
                ]

    def test_with_column_checks_the_new_column_as_the_constructor_does(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 1.0, 1.0])
        for name, values in (("sigma", [0.1, -1.0, 0.2]), ("sigma", [0.1]),
                             ("neutrality", [0.0, 1.5, 1.0]), ("protected", [True, False])):
            with pytest.raises(ValueError) as want:
                replace(q, **{name: values})
            with pytest.raises(ValueError, match=re.escape(str(want.value)) + "$"):
                q.with_column(name, values)

    def test_ungrouped_query_has_no_group_columns(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=1.0)])
        with pytest.raises(ValueError, match="group labels"):
            q.by_group()

    def test_threshold_range_validated(self):
        q = make_query([1.0], neutralities=[1.0])
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=1.2)


class TestRankByScore:
    def test_two_distinct_scores(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])
        ranking = rank_by_score(q, np.array([2.0, 1.0]))
        assert ranking.doc_ids() == ("A", "B")

    def test_tie_falls_back_to_original_rank(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])  # A has original rank 1
        ranking = rank_by_score(q, np.array([1.0, 1.0]))
        assert ranking.doc_ids() == ("A", "B")

    def test_full_sort(self):
        q = make_query([1.0, 3.0, 2.0], doc_ids=["A", "B", "C"])
        ranking = rank_by_score(q, score_column(q, {"A": 1.0, "B": 3.0, "C": 2.0}))
        assert ranking.doc_ids() == ("B", "C", "A")

    def test_score_count_must_match_the_query(self):
        q = make_query([1.0, 2.0], doc_ids=["A", "B"])
        with pytest.raises(ValueError, match=r"expected 2 scores, got shape \(1,\)"):
            rank_by_score(q, np.array([1.0]))

    def test_non_finite_score_rejected(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])
        with pytest.raises(ValueError, match="non-finite score for doc 'B'"):
            rank_by_score(q, np.array([1.0, float("inf")]))

    def test_idempotent_reranking(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            q = make_query(rng.normal(size=n))
            scores = {f"d{i + 1}": float(rng.choice([0.0, 1.0, 2.0])) for i in range(n)}
            first = rank_by_score(q, score_column(q, scores))
            # the ranking read back as a query is a fixed point of the same scores
            again = QueryCandidates(query_id=q.query_id, doc_ids=first.doc_ids(), mu=first.scores)
            reranked = rank_by_score(again, score_column(again, scores))
            assert ranking_key(reranked) == ranking_key(first)

    def test_deterministic_under_input_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            mus = rng.normal(size=n)
            doc_ids = [f"d{i + 1}" for i in range(n)]
            q = make_query(mus, doc_ids=doc_ids)
            scores = {d: float(rng.choice([0.5, 1.5])) for d in doc_ids}
            baseline = rank_by_score(q, score_column(q, scores))
            perm = rng.permutation(n)
            shuffled = make_query(mus[perm], doc_ids=[doc_ids[i] for i in perm])
            assert rows(shuffled) == rows(q)
            reranked = rank_by_score(shuffled, score_column(shuffled, scores))
            assert ranking_key(reranked) == ranking_key(baseline)
