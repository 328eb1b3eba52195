import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pufr.core import QueryStack, ScoredCandidate, build_query, rank_by_score
from pufr.metrics import (
    RelevanceJudgments,
    fairr_at_k,
    ideal_fairr_at_k,
    intersection_counts,
    median_intersections,
    ndcg_at_k,
    nfairr_at_k,
    paired_t_test,
)
from pufr.metrics import _discounts, _ranks, sequential_sum

import oracles
from conftest import make_query, ranked, ranking_of, rows


def judgments_of(query_id, grades_by_doc):
    return RelevanceJudgments(
        grades={(query_id, d): g for d, g in grades_by_doc.items()}
    )


class TestNdcg:
    def test_ideal_order_scores_one(self):
        ranking = ranked("q", ["a", "b"])
        judgments = judgments_of("q", {"a": 1, "b": 0})
        assert ndcg_at_k(ranking, judgments, 2) == 1.0

    def test_swapped_pair(self):
        ranking = ranked("q", ["a", "b"])
        judgments = judgments_of("q", {"a": 0, "b": 1})
        assert ndcg_at_k(ranking, judgments, 2) == pytest.approx(
            1.0 / math.log2(3), abs=1e-12
        )

    def test_no_positive_judgments_scores_zero(self):
        ranking = ranked("q", ["a", "b"])
        assert ndcg_at_k(ranking, RelevanceJudgments(grades={}), 2) == 0.0

    def test_empty_qrels_score_zero_at_every_cutoff(self):
        ranking = ranked("q", ["a", "b", "c"])
        empty = RelevanceJudgments(grades={})
        for k in (1, 3, 4, 100):
            assert ndcg_at_k(ranking, empty, k) == 0.0
        assert empty.gains(ranking.query).tolist() == [0.0, 0.0, 0.0]

    def test_cutoff_past_the_pool_counts_every_doc(self):
        ranking = ranked("q", ["a", "b", "c"])
        judgments = judgments_of("q", {"a": 0, "b": 2, "c": 1, "unretrieved": 3})
        at_n = ndcg_at_k(ranking, judgments, 3)
        assert at_n == oracles.ndcg("q", ["a", "b", "c"], judgments.grades, 3)
        # the ideal already holds the unretrieved doc's grade, and the
        # fourth ideal grade is 0, so the score stays past the pool
        for k in (4, 5, 100):
            assert ndcg_at_k(ranking, judgments, k) == at_n

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(131)
        mpmath.mp.dps = 50
        for _ in range(50):
            n = int(rng.integers(1, 12))
            doc_ids = [f"d{i}" for i in range(n)]
            grades = {d: int(rng.integers(0, 4)) for d in doc_ids}
            k = int(rng.integers(1, n + 2))
            ranking = ranked("q", doc_ids)
            judgments = judgments_of("q", grades)
            dcg = mpmath.mpf(0)
            for pos, d in enumerate(doc_ids[:k], start=1):
                dcg += grades[d] / mpmath.log(pos + 1, 2)
            idcg = mpmath.mpf(0)
            for pos, g in enumerate(sorted(grades.values(), reverse=True)[:k], start=1):
                idcg += g / mpmath.log(pos + 1, 2)
            expected = float(dcg / idcg) if idcg > 0 else 0.0
            assert ndcg_at_k(ranking, judgments, k) == pytest.approx(expected, abs=1e-12)

    def test_ideal_uses_all_judged_docs_for_the_query(self):
        # a judged doc missing from the ranked list still raises the ideal
        ranking = ranked("q", ["a"])
        judgments = judgments_of("q", {"a": 1, "unretrieved": 2})
        expected = (1.0 / math.log2(2)) / (2.0 / math.log2(2) + 1.0 / math.log2(3))
        assert ndcg_at_k(ranking, judgments, 5) == pytest.approx(expected, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            doc_ids = [f"d{i}" for i in range(n)]
            order = list(rng.permutation(doc_ids))
            judgments = judgments_of("q", {d: int(rng.integers(0, 3)) for d in doc_ids})
            value = ndcg_at_k(ranked("q", order), judgments, int(rng.integers(1, 12)))
            assert 0.0 <= value <= 1.0 + 1e-12


class TestFairr:
    def test_hand_sum(self):
        ranking = ranked("q", ["a", "b", "c"], neutralities=[1.0, 0.5, 0.0])
        assert fairr_at_k(ranking, 3) == pytest.approx(1.25, abs=1e-12)

    def test_all_biased_pool_scores_zero(self):
        ranking = ranked("q", ["a", "b"], neutralities=[0.0, 0.0])
        assert fairr_at_k(ranking, 2) == 0.0

    def test_single_term(self):
        ranking = ranked("q", ["a", "b"], neutralities=[0.7, 1.0])
        assert fairr_at_k(ranking, 1) == pytest.approx(0.7)

    def test_missing_neutrality_names_doc(self):
        # a query without a neutrality column cannot be scored at all
        q = build_query("q", [ScoredCandidate(doc_id="a", mu=1.0),
                              ScoredCandidate(doc_id="b", mu=0.5)])
        ranking = ranking_of(q, ["a", "b"])
        for metric in (fairr_at_k, nfairr_at_k):
            with pytest.raises(ValueError, match="'q' has no neutrality scores"):
                metric(ranking, 2)

    def test_cutoff_past_the_pool_counts_every_doc(self):
        ranking = ranked("q", ["a", "b"], neutralities=[0.0, 1.0])
        for k in (2, 3, 100):
            assert fairr_at_k(ranking, k) == 0.5
            assert ideal_fairr_at_k(ranking.query, k) == 1.0
            assert nfairr_at_k(ranking, k) == 0.5

    def test_all_negative_zero_terms_sum_to_positive_zero(self):
        ranking = ranked("q", ["a", "b"], neutralities=[-0.0, -0.0])
        assert fairr_at_k(ranking, 2).hex() == "0x0.0p+0"
        assert ideal_fairr_at_k(ranking.query, 2).hex() == "0x0.0p+0"

    def test_docs_beyond_k_are_ignored(self):
        short = ranked("q", ["a", "b"], neutralities=[0.2, 0.9])
        long = ranked("q", ["a", "b", "c", "d"], neutralities=[0.2, 0.9, 0.4, 1.0])
        assert fairr_at_k(short, 2) == fairr_at_k(long, 2)


class TestTables:
    def test_the_tables_give_every_length_the_bits_of_its_own_prefix(self):
        # more lengths than any bounded cache holds, longest in the middle
        for n in [*range(1, 80), 1000, *range(80, 200, 7), 3]:
            discounts, ranks = _discounts(n), _ranks(n)
            assert discounts.tobytes() == np.array(
                [math.log2(position + 1) for position in range(1, n + 1)]).tobytes()
            assert ranks.tobytes() == np.arange(1, n + 1, dtype=np.float64).tobytes()
            assert not discounts.flags.writeable and not ranks.flags.writeable


class TestIdealFairr:
    def test_hand_case(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[1.0, 0.5, 0.0])
        assert ideal_fairr_at_k(q, 3) == pytest.approx(1.25, abs=1e-12)

    def test_equal_neutralities_give_scaled_harmonic_number(self):
        c = 0.4
        q = make_query([3.0, 2.0, 1.0, 0.0], neutralities=[c] * 4)
        for k in (1, 2, 3, 4):
            harmonic = sum(1.0 / r for r in range(1, k + 1))
            assert ideal_fairr_at_k(q, k) == pytest.approx(c * harmonic, abs=1e-12)

    def test_single_candidate(self):
        q = make_query([1.0], neutralities=[0.3])
        assert ideal_fairr_at_k(q, 1) == pytest.approx(0.3)

    def test_takes_neutralities_largest_first(self):
        q = make_query([3.0, 2.0, 1.0, 0.0], [0.0] * 4, [0.25, 1.0, 0.0, 0.5])
        for k in (1, 2, 3, 4, 5):
            expected = sum(v / r for r, v in enumerate([1.0, 0.5, 0.25, 0.0][:k], start=1))
            assert ideal_fairr_at_k(q, k) == expected


class TestNfairr:
    def test_neutrality_descending_attains_one(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            neutralities = rng.random(n)
            q = make_query(rng.normal(size=n), neutralities=neutralities)
            by_neutrality = sorted(rows(q), key=lambda c: -c.neutrality)  # stable
            ranking = ranking_of(q, [c.doc_id for c in by_neutrality])
            for k in range(1, n + 3):
                if ideal_fairr_at_k(q, k) > 0:
                    assert nfairr_at_k(ranking, k) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.5, 1.0],
                       doc_ids=["a", "b", "c"])
        ranking = ranking_of(q, ["a", "b", "c"])
        assert nfairr_at_k(ranking, 3) == pytest.approx((0.25 + 1.0 / 3.0) / 1.25, abs=1e-12)

    def test_zero_ideal_convention(self):
        q = make_query([2.0, 1.0], neutralities=[0.0, 0.0])
        ranking = ranking_of(q, ["d1", "d2"])
        assert nfairr_at_k(ranking, 2) == 1.0

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(149)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            q = make_query(rng.normal(size=n), neutralities=rng.random(n))
            order = list(rng.permutation(q.doc_ids))
            value = nfairr_at_k(ranking_of(q, order), int(rng.integers(1, 12)))
            assert 0.0 <= value <= 1.0 + 1e-12


class TestPairedTTest:
    def test_textbook_example(self):
        a = {"q1": 1.0, "q2": 2.0, "q3": 3.0}
        b = {"q1": 0.0, "q2": 0.0, "q3": 0.0}
        result = paired_t_test(a, b)
        assert result.t_statistic == pytest.approx(2.0 / (1.0 / math.sqrt(3)), abs=1e-9)
        assert result.degrees_of_freedom == 2
        assert result.p_value == pytest.approx(0.0742, abs=1e-3)
        t_ref, p_ref = stats.ttest_rel(list(a.values()), list(b.values()))
        assert result.t_statistic == pytest.approx(float(t_ref), abs=1e-9)
        assert result.p_value == pytest.approx(float(p_ref), abs=1e-9)

    def test_identical_samples(self):
        a = {"q1": 0.4, "q2": 0.6}
        result = paired_t_test(a, dict(a))
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0

    def test_constant_nonzero_difference(self):
        a = {"q1": 1.5, "q2": 2.5, "q3": 0.5}
        b = {k: v - 1.0 for k, v in a.items()}
        result = paired_t_test(a, b)
        assert result.p_value == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(151)
        a = {f"q{i}": float(rng.normal()) for i in range(10)}
        b = {f"q{i}": float(rng.normal()) for i in range(10)}
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(157)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            a = {f"q{i}": float(rng.normal()) for i in range(n)}
            b = {f"q{i}": float(rng.normal()) for i in range(n)}
            ours = paired_t_test(a, b)
            keys = sorted(a)
            t_ref, p_ref = stats.ttest_rel([a[k] for k in keys], [b[k] for k in keys])
            assert ours.t_statistic == pytest.approx(float(t_ref), rel=1e-9)
            assert ours.p_value == pytest.approx(float(p_ref), rel=1e-9)

    def test_p_value_bits_equal_the_scipy_stats_oracle(self):
        # 20,000 (t, df) pairs: |t| near 0, moderate, and in the 1e2-1e3
        # tail where p underflows; df mostly 1-100, 300 pairs up to 10,000
        rng = np.random.default_rng(163)
        dfs = np.concatenate((
            rng.integers(1, 101, 19_700),
            np.exp(rng.uniform(np.log(101), np.log(10_000), 298)).astype(int),
            [1, 10_000],
        ))
        scales = rng.choice([1e-6, 1.0, 1e2], size=dfs.size)
        targets = rng.choice([-1.0, 1.0], size=dfs.size) * scales * rng.uniform(1.0, 10.0, dfs.size)
        keys = [f"q{i:05d}" for i in range(10_001)]
        mismatches, seen = [], []
        for df, target in zip(dfs.tolist(), targets.tolist()):
            n = df + 1
            z = rng.standard_normal(n)
            z = (z - z.mean()) / z.std(ddof=1) + target / math.sqrt(n)
            result = paired_t_test(dict(zip(keys, z.tolist())), dict.fromkeys(keys[:n], 0.0))
            assert result.degrees_of_freedom == df
            seen.append((abs(result.t_statistic), result.p_value))
            expected = oracles.t_test_p_value(result.t_statistic, df)
            if result.p_value.hex() != expected.hex():
                mismatches.append((result.t_statistic, df, result.p_value, expected))
        assert mismatches == []
        assert min(seen)[0] < 1e-5 and max(seen)[0] > 500.0
        assert any(p == 0.0 for _, p in seen)

    def test_sums_run_left_to_right(self):
        # a compensated sum (the builtin sum() of floats since Python 3.12)
        # gives the differences a mean of 1/3; a loop gives 0.0
        keys = ("q1", "q2", "q3")
        result = paired_t_test(dict(zip(keys, (1e16, 1.0, -1e16))), dict.fromkeys(keys, 0.0))
        assert (result.t_statistic, result.p_value) == (0.0, 1.0)

    def test_mismatched_query_sets_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            paired_t_test({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})

    def test_needs_two_queries(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test({"a": 1.0}, {"a": 2.0})


class TestIntersectionCounts:
    def test_disjoint_intervals(self):
        q = make_query([0.0, 10.0], [1.0, 1.0])
        assert intersection_counts(q, 1.0) == [0, 0]

    def test_overlapping_pair(self):
        q = make_query([0.0, 1.0], [1.0, 1.0])
        assert intersection_counts(q, 1.0) == [1, 1]

    def test_point_interval_on_shared_mean_counts(self):
        q = make_query([1.0, 1.0], [0.0, 0.5])
        assert intersection_counts(q, 1.0) == [1, 1]

    def test_symmetric_and_self_free(self):
        rng = np.random.default_rng(163)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            q = make_query(rng.normal(size=n), np.abs(rng.normal(size=n)))
            assert intersection_counts(q, 2.0) == oracles.intersection_counts(q, 2.0)

    def test_touching_endpoints_count(self):
        # [-1, 1] and [1, 3] share only the point 1
        q = make_query([0.0, 2.0], [1.0, 1.0])
        assert intersection_counts(q, 1.0) == [1, 1]
        assert intersection_counts(q, 0.5) == [0, 0]

    def test_tied_means_and_zero_sigma(self):
        # rank order: the point at 3, the points at 1, then [1 - a, 1 + a]
        q = make_query([1.0, 1.0, 1.0, 3.0], [0.0, 0.0, 1.0, 0.0])
        assert intersection_counts(q, 1.0) == [0, 2, 2, 2]
        assert intersection_counts(q, 2.0) == [1, 2, 2, 3]

    def test_one_document_query(self):
        q = make_query([0.7], [0.3])
        for alpha in (0.5, 1.0, 4.0):
            assert intersection_counts(q, alpha) == [0]

    def test_returns_builtin_ints(self):
        q = make_query([0.0, 1.0, 5.0], [1.0, 1.0, 0.1])
        assert all(type(count) is int for count in intersection_counts(q, 1.0))

    # dyadic means, sigmas and alphas make ties and touching endpoints
    # common while keeping the interval arithmetic exact
    _dyadic = st.integers(-8, 8).map(lambda i: i / 4)
    _mus = st.one_of(_dyadic, st.floats(-1e6, 1e6, allow_nan=False))
    _sigmas = st.one_of(
        st.integers(0, 8).map(lambda i: i / 4), st.floats(0.0, 1e3, allow_nan=False)
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(st.tuples(_mus, _sigmas), min_size=1, max_size=12),
        alpha=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                        st.floats(1e-3, 10.0, allow_nan=False)),
    )
    def test_matches_scalar_oracle(self, pairs, alpha):
        q = make_query([mu for mu, _ in pairs], [sigma for _, sigma in pairs])
        assert intersection_counts(q, alpha) == oracles.intersection_counts(q, alpha)

    def test_alpha_must_be_positive(self):
        q = make_query([1.0], [0.5])
        with pytest.raises(ValueError, match="alpha"):
            intersection_counts(q, 0.0)


class TestMedianIntersections:
    def test_single_query_is_its_own_median(self):
        q = make_query([0.0, 1.0, 5.0], [1.0, 1.0, 0.1])
        assert median_intersections(QueryStack([q]), 1.0) == intersection_counts(q, 1.0)

    def test_odd_median(self):
        queries = [
            make_query([0.0, 10.0], [0.1, 0.1], query_id="a"),      # counts [0, 0]
            make_query([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], query_id="b"),  # counts [2, 2, 2]
            make_query([0.0, 0.1, 0.2, 0.3, 0.4], [9.0] * 5, query_id="c"),  # [4, ...]
        ]
        assert median_intersections(QueryStack(queries), 1.0)[0] == 2

    def test_even_count_takes_lower_mid(self):
        queries = [
            make_query([0.0, 1.0], [1.0, 1.0], query_id="a"),   # counts [1, 1]
            make_query([0.0, 1.0, 2.0, 3.0], [9.0] * 4, query_id="b"),  # counts [3, ...]
        ]
        assert median_intersections(QueryStack(queries), 1.0)[0] == 1

    def test_deeper_ranks_use_only_populated_queries(self):
        queries = [
            make_query([0.0], [0.1], query_id="a"),
            make_query([0.0, 0.5, 1.0], [2.0] * 3, query_id="b"),
        ]
        medians = median_intersections(QueryStack(queries), 1.0)
        assert len(medians) == 3
        assert medians[1] == 2 and medians[2] == 2

    def test_empty_corpus_rejected(self):
        # medians are taken over a stack, and an empty corpus is no stack,
        # even from an iterator
        for corpus in ([], iter(())):
            with pytest.raises(ValueError, match="^cannot stack an empty corpus$"):
                median_intersections(QueryStack(corpus), 1.0)

    def test_a_stack_gives_one_row_per_query_and_zero_at_pads(self):
        short = make_query([0.0], [1.0], query_id="s")
        long = make_query([0.0, 1.0, 5.0], [1.0, 1.0, 0.1], query_id="l")
        counts = intersection_counts(QueryStack([short, long]), 1.0)
        assert counts.tolist() == [[0, 0, 0], intersection_counts(long, 1.0)]


class TestRelevanceJudgments:
    @staticmethod
    def interleaved_grades(rng, n_queries=5, n_docs=150):
        """Judgments for several queries, in a shuffled (not grouped) order,
        with about a third of the docs left unjudged."""
        pairs = [(f"q{i}", f"d{j}") for i in range(n_queries) for j in range(n_docs)]
        rng.shuffle(pairs)
        return {
            (qid, doc): int(rng.integers(0, 4))
            for qid, doc in pairs
            if rng.random() < 0.65
        }

    def test_grades_for_query_matches_a_full_scan_in_order(self):
        grades = self.interleaved_grades(np.random.default_rng(401))
        judgments = RelevanceJudgments(grades=grades)
        for qid in ("q0", "q1", "q4", "unjudged"):
            assert judgments.grades_for_query(qid) == [
                g for (query_id, _), g in grades.items() if query_id == qid
            ]

    def test_grades_for_query_returns_a_copy(self):
        judgments = judgments_of("q", {"a": 2, "b": 1})
        judgments.grades_for_query("q").append(9)
        assert judgments.grades_for_query("q") == [2, 1]

    def test_ndcg_matches_scalar_recomputation(self):
        rng = np.random.default_rng(409)
        grades = self.interleaved_grades(rng)
        judgments = RelevanceJudgments(grades=grades)
        for qid in ("q0", "q2", "q3"):
            docs = [f"d{j}" for j in rng.permutation(150)]
            ranking = ranked(qid, docs)
            for k in (1, 10, 100):
                expected = oracles.ndcg(qid, docs, grades, k)
                assert ndcg_at_k(ranking, judgments, k) == expected
                stacked = QueryStack([ranking.query]).rankings([ranking])
                for _ in range(2):  # the second call reads the stack's memo
                    assert ndcg_at_k(stacked, judgments, k).tolist() == [expected]

    def test_query_without_judgments_scores_zero(self):
        judgments = judgments_of("q", {"a": 2})
        ranking = ranked("other", ["a", "b"])
        assert judgments.grades_for_query("other") == []
        for k in (1, 10, 100):
            assert ndcg_at_k(ranking, judgments, k) == 0.0

    def test_two_judgments_of_one_query_keep_their_own_gains(self):
        ranking = ranked("q", ["a", "b"])
        first, second = judgments_of("q", {"a": 1}), judgments_of("q", {"b": 1})
        for _ in range(2):
            assert ndcg_at_k(ranking, first, 2) == 1.0
            assert ndcg_at_k(ranking, second, 2) == 1.0 / math.log2(3)
        assert first.gains(ranking.query).tolist() == [1.0, 0.0]
        assert second.gains(ranking.query).tolist() == [0.0, 1.0]

    def test_source_dict_is_snapshotted(self):
        source = {("q", "a"): 0, ("q", "b"): 3, ("q", "c"): 1}
        judgments = RelevanceJudgments(grades=source)
        ranking = ranked("q", ["a", "b", "c"])
        before = ndcg_at_k(ranking, judgments, 2)
        source[("q", "a")] = 3
        source[("q", "z")] = 5
        del source[("q", "b")]
        assert judgments.grades.get(("q", "a"), 0) == 0
        assert judgments.grades.get(("q", "b"), 0) == 3
        assert judgments.grades.get(("q", "z"), 0) == 0
        assert judgments.grades_for_query("q") == [0, 3, 1]
        assert ndcg_at_k(ranking, judgments, 2) == before
        assert ndcg_at_k(ranking, judgments, 3) == oracles.ndcg(
            "q", ranking.doc_ids(), {("q", "a"): 0, ("q", "b"): 3, ("q", "c"): 1}, 3
        )


class TestSequentialSum:
    def test_adds_left_to_right_from_zero(self):
        assert sequential_sum(np.array([1e16, 1.0, -1e16])) == 0.0
        assert sequential_sum(np.array([1.0, 1e16, -1e16])) == 0.0
        assert sequential_sum(np.array([1e16, -1e16, 1.0])) == 1.0

    def test_signed_zeros_and_empty(self):
        assert sequential_sum(np.array([-0.0, -0.0])).hex() == "0x0.0p+0"
        assert sequential_sum(np.array([])) == 0.0
        assert type(sequential_sum(np.array([0.5]))) is float


class TestReportTypes:
    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            RelevanceJudgments(grades={("q", "d"): -1})


_TIES = st.sampled_from([0.0, -0.0, 1.0, 2.5])


@st.composite
def ragged_rankings(draw):
    """Rankings of 1-6 queries of 1-8 docs each, and judgments of some of
    their docs: scores and ``mu`` with exact ties, neutralities with -0.0,
    queries of one group or with no neutral mass, grades of 0 only."""
    rankings, grades = [], {}
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 8))
        neutrality = draw(st.sampled_from([
            st.sampled_from([0.0, -0.0]),  # the ideal FaiRR is 0
            st.just(1.0),  # every doc protected
            st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        ]))
        docs = [f"d{j}" for j in range(n)]
        query = make_query(draw(st.lists(_TIES | st.floats(-5, 5), min_size=n, max_size=n)),
                           neutralities=draw(st.lists(neutrality, min_size=n, max_size=n)),
                           query_id=f"q{i}", doc_ids=docs)
        scores = draw(st.lists(_TIES, min_size=n, max_size=n))
        rankings.append(rank_by_score(query, np.array(scores)))
        grade = draw(st.sampled_from([st.just(0), st.integers(0, 3)]))  # idcg 0 or not
        for doc in docs:
            if draw(st.booleans()):  # else unjudged
                grades[(query.query_id, doc)] = draw(grade)
    return rankings, RelevanceJudgments(grades)


class TestStackedRankings:
    """A stacked ranking of padded ragged rows gives, per row, the bits of
    the per-query call."""

    @settings(max_examples=300, deadline=None)
    @given(ragged_rankings(), st.integers(1, 10))
    def test_each_row_is_the_per_query_value_bit_for_bit(self, data, k):
        rankings, judgments = data
        stacked = QueryStack(ranking.query for ranking in rankings).rankings(rankings)
        for metric in (lambda r: ndcg_at_k(r, judgments, k), lambda r: nfairr_at_k(r, k),
                       lambda r: fairr_at_k(r, k)):
            for _ in range(2):  # the second call reads the stack's memo
                assert [v.hex() for v in metric(stacked).tolist()] == [
                    metric(ranking).hex() for ranking in rankings]

    def test_pads_rank_last_in_place_order(self):
        short = make_query([1.0], neutralities=[1.0], query_id="s")
        long = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.5, 1.0], query_id="l")
        rankings = [rank_by_score(short, [0.0]), rank_by_score(long, [0.0, 1.0, 2.0])]
        stack = QueryStack([short, long])
        assert stack.rankings(rankings).order.tolist() == [[0, 1, 2], [2, 1, 0]]
        assert stack.padded(np.concatenate([short.neutrality, long.neutrality])).tolist() == [
            [1.0, 0.0, 0.0], [0.0, 0.5, 1.0]]

    def test_a_stack_ranks_padded_scores_whatever_its_pads_hold(self):
        short = make_query([1.0], neutralities=[1.0], query_id="s")
        long = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.5, 1.0], query_id="l")
        stack = QueryStack([short, long])
        ranked = rank_by_score(stack, [[0.0, np.nan, 5.0], [0.0, 1.0, 2.0]])
        assert ranked.order.tolist() == [[0, 1, 2], [2, 1, 0]]
        assert ranked.scores.tolist() == [[0.0, -np.inf, -np.inf], [2.0, 1.0, 0.0]]
        assert [(r.query_id, r.order.tolist(), r.scores.tolist()) for r in ranked.rows()] == [
            ("s", [0], [0.0]), ("l", [2, 1, 0], [2.0, 1.0, 0.0])]
        with pytest.raises(ValueError, match=r"^expected scores of shape \(2, 3\), got "):
            rank_by_score(stack, [[0.0, 1.0], [0.0, 1.0]])

    def test_an_empty_corpus_cannot_be_stacked(self):
        with pytest.raises(ValueError, match="^cannot stack an empty corpus$"):
            QueryStack([])

    def test_rankings_must_be_of_the_stacked_queries_in_order(self):
        a, b = make_query([1.0], query_id="a"), make_query([1.0], query_id="b")
        with pytest.raises(ValueError, match="one ranking of each stacked query"):
            QueryStack([a, b]).rankings([rank_by_score(b, [0.0]), rank_by_score(a, [0.0])])
