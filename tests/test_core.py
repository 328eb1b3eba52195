import math
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufr.baselines import compute_m_table, fastar_rerank, unfair_rank
from pufr.core import (
    QueryStack,
    ScoredCandidate,
    assign_groups,
    build_query,
    rank_by_score,
)
from pufr.metrics import fairr_at_k, ideal_fairr_at_k, intersection_counts, nfairr_at_k
from pufr.rerank import PufrConfig, adjust_scores, pufr_rerank, uniform_rerank

import oracles
from conftest import (
    make_query, query_key, random_query, ranked_ids, ranking_key, rows, rows_key, score_column,
    score_map,
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


class TestQueryChecks:
    # a query is checked once, when its stack is built or a column is attached

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^query 'q': candidate set is empty$"):
            build_query("q", [])

    def test_rejects_duplicate_doc_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_query("q", [ScoredCandidate(doc_id="d", mu=1.0),
                              ScoredCandidate(doc_id="d", mu=0.5)])

    def test_names_each_duplicate_of_a_large_query_once(self):
        doc_ids = [f"d{i}" for i in range(20_000)] + ["d7", "d19999", "d7", "d3"]
        with pytest.raises(ValueError, match=re.escape(
            "query 'q': duplicate doc ids ['d19999', 'd3', 'd7']"
        ) + "$"):
            QueryStack.ranked(["q"], [len(doc_ids)], doc_ids, {"mu": np.zeros(len(doc_ids))})

    @pytest.mark.parametrize("mu", [[2.0, 1.0], [1.0, 2.0]])
    def test_ranked_rejects_a_column_of_the_wrong_length_in_any_order(self, mu):
        for columns, message in (({"mu": mu + [0.5]}, r"mu has shape \(3,\)"),
                                 ({"sigma": [0.1, 0.2, 0.3]}, r"sigma has shape \(3,\)"),
                                 ({"neutrality": [0.5]}, r"neutrality has shape \(1,\)")):
            columns = {"mu": mu, **columns}
            with pytest.raises(ValueError, match=f"^query 'q': {message}, expected \\(2,\\)$"):
                QueryStack.ranked(["q"], [2], ["a", "b"], columns)

    def test_a_column_of_the_wrong_length_names_the_stack(self):
        with pytest.raises(ValueError,
                           match=r"^stack: sigma has shape \(1,\), expected \(2,\)$"):
            QueryStack.ranked(["q", "r"], [1, 1], ["a", "b"], {"mu": [1.0, 2.0], "sigma": [0.5]})

    def test_columns_are_read_only_copies(self):
        # mu already falls, so no sort copies it; sigma is a list
        mu, neutrality = np.array([2.0, 1.0]), np.array([1.0, 0.0])
        q = QueryStack.ranked(["q"], [2], ("a", "b"), {"mu": mu, "sigma": [0.5, 0.25]})
        q = q.with_column("neutrality", neutrality)
        mu[0], neutrality[0] = 5.0, 0.5  # the caller's arrays stay writeable
        assert q.flat("mu").tolist() == [2.0, 1.0] and q.flat("sigma").tolist() == [0.5, 0.25]
        assert q.flat("neutrality").tolist() == [1.0, 0.0]
        for name in ("mu", "sigma", "neutrality"):
            assert q.flat(name).dtype == np.float64
            with pytest.raises(ValueError):
                q.flat(name)[0] = 3.0

    def test_missing_neutrality_raises_on_every_call(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0)])
        ranking = rank_by_score(q, q.column("mu"))
        for _ in range(2):
            for metric in (fairr_at_k, nfairr_at_k):
                with pytest.raises(ValueError, match="'q' has no neutrality scores"):
                    metric(ranking, 1)
            with pytest.raises(ValueError, match="'q' has no neutrality scores"):
                ideal_fairr_at_k(q, 1)

    def test_a_column_is_attached_only_when_every_row_has_it(self):
        q = build_query("q", [ScoredCandidate(doc_id="a", mu=1.0, sigma=0.5),
                              ScoredCandidate(doc_id="b", mu=0.5)])
        assert not q.has("sigma")
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
        assert q.flat("mu").tolist() == [3.0, 2.0, 1.0]

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
        assert q.flat("protected").tolist() == [True]

    def test_neutrality_zero_is_not_protected(self):
        q = make_query([1.0], neutralities=[0.0])
        assert q.flat("protected").tolist() == [False]

    def test_softer_threshold(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.95)])
        q = assign_groups(q, protected_threshold=0.9)
        assert q.flat("protected").tolist() == [True]

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
            protected = q.flat("protected")
            assert protected.dtype == bool and len(protected) == n
            assert protected.tolist() == [v >= 0.5 for v in q.flat("neutrality").tolist()]

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
        soft = assign_groups(strict, 0.5)
        assert soft.flat("protected").tolist() == [True, True, False, True]
        assert strict.flat("protected").tolist() == [True, False, False, True]
        cfg = PufrConfig.symmetric(1.0)
        for query in (strict, soft, soft.with_column("sigma", [0.0, 0.0, 3.0, 0.0])):
            assert score_map(query, adjust_scores(query, cfg)) == oracles.adjust(
                rows(query), 1.0, 1.0)

    def test_a_query_with_a_new_column_gets_its_own_ideal_fairr(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 1.0, 1.0])
        assert ideal_fairr_at_k(q, 2).tolist() == [1.0 + 1.0 / 2]
        moved = q.with_column("neutrality", [0.0, 0.0, 1.0])
        assert ideal_fairr_at_k(moved, 2).tolist() == [1.0]
        assert ideal_fairr_at_k(q, 2).tolist() == [1.0 + 1.0 / 2]

    def test_with_column_sets_one_column_without_rechecking_the_query(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q = random_query(rng)
            n = len(q.doc_ids)
            columns = {
                "sigma": np.abs(rng.normal(0.5, 0.3, n)),
                "neutrality": np.where(rng.random(n) < 0.5, 1.0, rng.random(n)),
                "protected": rng.random(n) < 0.5,
            }
            before = query_key(q)
            for name, values in columns.items():
                with mock.patch("pufr.core._check_ids",
                                side_effect=AssertionError("query checked again")):
                    got = q.with_column(name, values)
                want = [row._replace(**{name: value})
                        for row, value in zip(rows(q), values.tolist())]
                assert rows_key(rows(got)) == rows_key(want)
                # the source query keeps its columns
                assert query_key(q) == before
                assert score_map(got, adjust_scores(got, PufrConfig.symmetric(1.5))) == (
                    oracles.adjust(want, 1.5, 1.5))

    def test_with_column_checks_the_new_column(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 1.0, 1.0])
        for name, values, text in (
            ("sigma", [0.1, -1.0, 0.2], "candidate 'd2': sigma must be finite and >= 0, got -1.0"),
            ("sigma", [0.1], r"sigma has shape (1,), expected (3,)"),
            ("neutrality", [0.0, 1.5, 1.0],
             "candidate 'd2': neutrality score must lie in [0, 1], got 1.5"),
            ("protected", [True, False], "protected has shape (2,), expected (3,)"),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(f"query 'q': {text}") + "$"):
                q.with_column(name, values)

    def test_ungrouped_query_has_no_group_columns(self):
        q = build_query("q", [ScoredCandidate(doc_id="d", mu=1.0, sigma=0.5, neutrality=1.0)])
        with pytest.raises(ValueError, match="group labels"):
            adjust_scores(q, PufrConfig.symmetric(1.0))

    def test_threshold_range_validated(self):
        q = make_query([1.0], neutralities=[1.0])
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            assign_groups(q, protected_threshold=1.2)


class TestRankByScore:
    def test_two_distinct_scores(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])
        ranking = rank_by_score(q, np.array([[2.0, 1.0]]))
        assert ranked_ids(ranking) == ("A", "B")

    def test_tie_falls_back_to_original_rank(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])  # A has original rank 1
        ranking = rank_by_score(q, np.array([[1.0, 1.0]]))
        assert ranked_ids(ranking) == ("A", "B")

    def test_full_sort(self):
        q = make_query([1.0, 3.0, 2.0], doc_ids=["A", "B", "C"])
        ranking = rank_by_score(q, score_column(q, {"A": 1.0, "B": 3.0, "C": 2.0}))
        assert ranked_ids(ranking) == ("B", "C", "A")

    def test_score_count_must_match_the_query(self):
        q = make_query([1.0, 2.0], doc_ids=["A", "B"])
        with pytest.raises(ValueError, match=r"expected scores of shape \(1, 2\), got shape \(1,\)"):
            rank_by_score(q, np.array([1.0]))

    def test_non_finite_score_rejected(self):
        q = make_query([2.0, 1.0], doc_ids=["A", "B"])
        with pytest.raises(ValueError, match="non-finite score for doc 'B'"):
            rank_by_score(q, np.array([[1.0, float("inf")]]))

    def test_idempotent_reranking(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            q = make_query(rng.normal(size=n))
            scores = {f"d{i + 1}": float(rng.choice([0.0, 1.0, 2.0])) for i in range(n)}
            first = rank_by_score(q, score_column(q, scores))
            # the ranking read back as a query, its docs renamed so that ids
            # sort in rank order, is a fixed point of the same scores
            renamed = {doc_id: f"r{rank:02d}" for rank, doc_id in enumerate(ranked_ids(first))}
            again = QueryStack.ranked(["q"], [n], list(renamed.values()),
                                      {"mu": first.scores[0].copy()})
            reranked = rank_by_score(again, score_column(
                again, {renamed[doc_id]: score for doc_id, score in scores.items()}))
            assert ranked_ids(reranked) == again.doc_ids
            assert ranking_key(reranked)[0][2] == ranking_key(first)[0][2]

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


def _query_lacking(column):
    """Query 'q' of docs 'a' (mu 2, protected) and 'b' (mu 1) with every
    column but ``column``; group labels need neutrality, so a query without
    neutrality has neither."""
    values = {"mu": [2.0, 1.0], "sigma": [0.5, 0.25], "neutrality": [1.0, 0.0]}
    values.pop(column, None)
    query = QueryStack.ranked(["q"], [2], ["a", "b"],
                              {name: np.array(v) for name, v in values.items()})
    return query if column in ("protected", "neutrality") else assign_groups(query)


_CFG = PufrConfig.symmetric(1.0)

# (call, the column its query lacks, the error text); each call takes a query
# or a stack, and a query's error names it in either form
_ONE_ROW_ERRORS = {
    "adjust_scores/sigma": (lambda x: adjust_scores(x, _CFG), "sigma",
                            "query 'q' has no sigma values"),
    "adjust_scores/groups": (lambda x: adjust_scores(x, _CFG), "protected",
                             "query 'q' has no group labels"),
    "pufr_rerank/sigma": (lambda x: pufr_rerank(x, _CFG), "sigma",
                          "query 'q' has no sigma values"),
    "pufr_rerank/groups": (lambda x: pufr_rerank(x, _CFG), "protected",
                           "query 'q' has no group labels"),
    "uniform_rerank/groups": (lambda x: uniform_rerank(x, 0.5, _CFG), "protected",
                              "query 'q' has no group labels"),
    "fastar_rerank/groups": (lambda x: fastar_rerank(x, compute_m_table(3, 0.5)), "protected",
                             "query 'q' has no group labels"),
    "intersection_counts/sigma": (lambda x: intersection_counts(x, 1.0), "sigma",
                                  "query 'q' has no sigma values"),
    "fairr_at_k/neutrality": (lambda x: fairr_at_k(unfair_rank(x), 2), "neutrality",
                              "query 'q' has no neutrality scores"),
    "nfairr_at_k/neutrality": (lambda x: nfairr_at_k(unfair_rank(x), 2), "neutrality",
                               "query 'q' has no neutrality scores"),
    "ideal_fairr_at_k/neutrality": (lambda x: ideal_fairr_at_k(x, 2), "neutrality",
                                    "query 'q' has no neutrality scores"),
    "rank_by_score/non-finite": (
        lambda x: rank_by_score(x, np.where(x.column("mu") == 1.0, np.inf, x.column("mu"))),
        None, "query 'q': non-finite score for doc 'b'"),
}


class TestOneRowErrors:
    """A query is ranked and evaluated as a one-row stack, and each error
    keeps the text it had when queries had their own code path; a padded
    stack raises the same text for the query at fault."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["query", "stack"])
    @pytest.mark.parametrize("case", list(_ONE_ROW_ERRORS))
    def test_the_error_names_the_query(self, case, stacked):
        call, column, text = _ONE_ROW_ERRORS[case]
        query = _query_lacking(column)
        if stacked:  # a complete query of three docs before it
            query = QueryStack([make_query([3.0, 2.0, 0.5], [0.1] * 3, [1.0, 0.0, 0.0],
                                           query_id="p"), query])
        with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
            call(query)

    def test_a_query_given_the_wrong_number_of_scores(self):
        with pytest.raises(ValueError,
                           match=r"^expected scores of shape \(1, 2\), got shape \(3,\)$"):
            rank_by_score(_query_lacking(None), np.zeros(3))
        with pytest.raises(ValueError,
                           match=r"^expected scores of shape \(1, 2\), got shape \(2, 2\)$"):
            rank_by_score(_query_lacking(None), np.zeros((2, 2)))


_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf, -math.inf]) | st.floats(-3, 3)


@st.composite
def unsorted_columns(draw):
    """Doc ids and columns in any order: exact and signed-zero ties, ids
    repeated or differing only by a trailing NUL, values out of range or
    not finite, and now and then a column of the wrong length."""
    n = draw(st.integers(0, 7))

    def column(values, optional=True):
        size = draw(st.sampled_from([n] * 6 + [max(n - 1, 0), n + 1]))
        drawn = draw(st.lists(values, min_size=size, max_size=size))
        if optional and draw(st.booleans()):
            return None
        return np.array(drawn) if draw(st.booleans()) else drawn

    ids = draw(st.lists(st.sampled_from(["a", "b", "a\x00", "c", "d", "e", "f", "g"]),
                        min_size=n, max_size=n, unique=draw(st.integers(0, 3)) > 0))
    return ids, column(_VALUES, optional=False), column(_VALUES), column(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, math.nan]))


def _ranked(query_id, doc_ids, mu, sigma=None, neutrality=None):
    """``QueryStack.ranked`` of one query's columns."""
    return QueryStack.ranked([query_id], [len(doc_ids)], doc_ids,
                             {"mu": mu, "sigma": sigma, "neutrality": neutrality})


def _built_from_rows(query_id, doc_ids, mu, sigma=None, neutrality=None):
    """``build_query`` of the columns, given as rows."""
    def at(column, i):
        return None if column is None else column[i]

    return build_query(query_id, [ScoredCandidate(doc_id, mu[i], at(sigma, i), at(neutrality, i))
                                  for i, doc_id in enumerate(doc_ids)])


class TestRankedInOnePass:
    """``QueryStack.ranked`` converts, sorts and checks a query's columns in
    one pass, and builds the query, or raises the error, that converting and
    sorting first and checking after built or raised; so does
    ``build_query`` of the same rows."""

    @settings(max_examples=500, deadline=None)
    @given(unsorted_columns())
    def test_the_query_or_error_is_the_two_pass_one(self, columns):
        def outcome(build):
            try:
                query = build("q", *columns)
            except ValueError as error:
                return str(error)
            assert not query.has("protected")
            for name in ("mu", "sigma", "neutrality"):
                if query.has(name):
                    values = query.flat(name)
                    assert values.dtype == np.float64 and not values.flags.writeable
            return query_key(query)

        want = outcome(oracles.ranked_in_two_passes)
        assert outcome(_ranked) == want
        if all(c is None or len(c) == len(columns[0]) for c in columns[1:]):
            assert outcome(_built_from_rows) == want

    def test_a_sorted_column_is_not_the_callers_array(self):
        mu, sigma = np.array([1.0, 3.0, 2.0]), np.array([0.1, 0.2, 0.3])
        query = QueryStack.ranked(["q"], [3], ["a", "b", "c"], {"mu": mu, "sigma": sigma})
        mu[:], sigma[:] = 0.0, 0.0
        assert query.doc_ids == ("b", "c", "a")
        assert query.flat("mu").tolist() == [3.0, 2.0, 1.0]
        assert query.flat("sigma").tolist() == [0.2, 0.3, 0.1]


class TestStackIndexing:
    """A stack is a sequence of its rows: an int gives a row, a slice a
    stack that keeps those rows as its own."""

    def stack(self):
        return QueryStack([make_query([2.0, 1.0], query_id="a"), make_query([1.0], query_id="b"),
                           make_query([3.0, 2.0, 1.0], query_id="c")])

    @pytest.mark.parametrize("cut", [slice(None, 2), slice(1, None), slice(None, None, -2)])
    def test_a_slice_is_a_stack_of_those_rows(self, cut):
        stack = self.stack()
        rows = list(stack)[cut]
        part = stack[cut]
        assert isinstance(part, QueryStack)
        assert all(mine is theirs for mine, theirs in zip(part, rows)) and len(part) == len(rows)
        assert part.query_ids == tuple(q.query_ids[0] for q in rows)
        assert part.column("mu").tobytes() == QueryStack(rows).column("mu").tobytes()

    def test_a_row_is_a_one_row_stack_kept_by_its_stack_alone(self):
        stack = self.stack().with_column("sigma", np.zeros(6))  # no rows kept yet
        row = stack.row(2)
        assert stack[2] is row and stack[-1] is row and list(stack)[2] is row
        assert (row.query_ids, row.lengths.tolist(), row.doc_ids) == (("c",), [3], stack.doc_ids[3:])
        assert row.flat("mu").base is not None  # a view of the stack's column
        assert QueryStack([row]).row(0) is row
        alive = weakref.ref(stack)
        del stack
        assert alive() is None and row.flat("mu").tolist() == [3.0, 2.0, 1.0]

    def test_an_empty_slice_cannot_be_stacked(self):
        with pytest.raises(ValueError, match="^cannot stack an empty corpus$"):
            self.stack()[3:]

    @pytest.mark.parametrize("i", [3, -4])
    def test_an_int_out_of_range_is_an_index_error(self, i):
        with pytest.raises(IndexError):
            self.stack()[i]
