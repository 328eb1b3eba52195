import itertools
import math
import sys

import numpy as np
import pytest
from scipy.stats import binom

from pufr import baselines, metrics
from pufr.baselines import (
    DEFAULT_EXACT_WINDOW,
    DEFAULT_MAX_NODES,
    ConstraintConfig,
    MTable,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    hungarian_assign,
    unfair_rank,
)
from pufr.core import QueryStack, ScoredCandidate, assign_groups, build_query
from pufr.metrics import RelevanceJudgments
from pufr.sweep import SweepConfig, run_sweep
from pufr.synth import SyntheticConfig, generate_synthetic

import oracles
from conftest import gap_search_queries, groups_of, make_query, random_query, ranked_ids, rows


def discounted_utility(gains_in_order):
    return sum(g / math.log2(pos + 2) for pos, g in enumerate(gains_in_order))


def exposure_fairness(neutralities_in_order):
    return sum(n / (pos + 1) for pos, n in enumerate(neutralities_in_order))


class TestUnfairRank:
    def test_sorts_by_mu(self):
        q = make_query([1.0, 3.0, 2.0], doc_ids=["A", "B", "C"])
        assert ranked_ids(unfair_rank(q)) == ("B", "C", "A")

    def test_single_doc(self):
        q = make_query([0.5], doc_ids=["only"])
        assert ranked_ids(unfair_rank(q)) == ("only",)

    def test_equal_mu_keeps_original_rank_order(self):
        q = make_query([1.0, 1.0], doc_ids=["b", "a"])  # 'a' wins the ingestion tie-break
        assert ranked_ids(unfair_rank(q)) == ("a", "b")


class TestMTable:
    def test_half_proportion_at_k4(self):
        table = compute_m_table(4, p=0.5, significance=0.1)
        assert table.required[4 - 1] == 1
        assert binom.cdf(0, 4, 0.5) < 0.1 <= binom.cdf(1, 4, 0.5)

    def test_zero_proportion_requires_nothing(self):
        table = compute_m_table(10, p=0.0, significance=0.3)
        assert table.required == (0,) * 10

    def test_half_proportion_at_k1(self):
        table = compute_m_table(1, p=0.5, significance=0.1)
        assert table.required[1 - 1] == 0

    def test_full_proportion_requires_everything(self):
        table = compute_m_table(5, p=1.0, significance=0.1)
        assert table.required == (1, 2, 3, 4, 5)

    def test_matches_binomial_quantile_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            k_max = int(rng.integers(1, 60))
            p = float(rng.random())
            significance = float(rng.uniform(0.01, 0.5))
            table = compute_m_table(k_max, p, significance)
            for k in range(1, k_max + 1):
                required = table.required[k - 1]
                assert binom.cdf(required, k, p) >= significance - 1e-12
                if required > 0:
                    assert binom.cdf(required - 1, k, p) < significance + 1e-12

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 41).tolist())
    def test_equals_the_recurrence_wherever_its_first_term_is_normal(self, p):
        # the bench grid and every golden file stay within k <= 500, p <= 0.75
        old = oracles.m_table_required(500, p, 0.1)
        normal = sum(p == 1.0 or (1.0 - p) ** k >= sys.float_info.min for k in range(1, 501))
        assert normal == 500 or p > 0.75
        assert compute_m_table(500, p, 0.1).required[:normal] == old[:normal]

    @pytest.mark.parametrize("p", (0.3, 0.5, 0.55, 0.75, 0.9, 0.99, 0.999))
    def test_matches_the_binomial_quantile_on_long_lists(self, p):
        # (1 - p) ** k underflows from k = 1,075 at p = 0.5, 538 at 0.75, 324 at 0.9
        k = np.arange(1, 2001)
        required = np.array(compute_m_table(2000, p, 0.1).required)
        assert (binom.cdf(required, k, p) >= 0.1 - 1e-12).all()
        assert (binom.cdf(required - 1, k, p) < 0.1 + 1e-12).all()

    def test_long_lists_no_longer_demand_every_document(self):
        assert compute_m_table(1000, 0.75).required[599] == 436
        assert oracles.m_table_required(1000, 0.75, 0.1)[599] == 600

    def test_required_monotone_in_k_with_unit_steps(self):
        for p in (0.2, 0.5, 0.8):
            req = compute_m_table(40, p, 0.1).required
            assert all(b - a in (0, 1) for a, b in zip(req, req[1:]))

    def test_required_monotone_in_p(self):
        tables = [compute_m_table(30, p, 0.1).required for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for a, b in zip(tables, tables[1:]):
            assert all(x <= y for x, y in zip(a, b))

    @pytest.mark.parametrize("p", (0.05, 0.3, 0.5, 0.75, 0.9, 0.99, 0.999))
    @pytest.mark.parametrize("significance", (0.01, 0.1, 0.5, 0.9))
    def test_every_table_lies_in_range_and_never_decreases(self, p, significance):
        # past k = 323 at p = 0.9 (103 at 0.999) the quota comes from the
        # log-space sum: the constructor's checks hold on both sides
        table = compute_m_table(1100, p, significance)
        required = np.array(table.required)
        assert (np.diff(required) >= 0).all()
        assert ((0 <= required) & (required <= np.arange(1, 1101))).all()
        assert p < 0.5 or (1.0 - p) ** 1100 < sys.float_info.min

    @pytest.mark.parametrize("required, message", [
        ((0, 1, 0), "requires 0 protected docs in the top 3; it must lie in 1..3"),
        ((0, 3), "requires 3 protected docs in the top 2; it must lie in 0..2"),
        ((-1,), "requires -1 protected docs in the top 1; it must lie in 0..1"),
        ((1, 2, 2, 1), "requires 1 protected docs in the top 4; it must lie in 2..4"),
        ((0, -1, 0), "requires -1 protected docs in the top 2; it must lie in 0..2"),
    ])
    def test_a_table_out_of_range_or_decreasing_is_refused(self, required, message):
        with pytest.raises(ValueError, match=f"^quota table {message}$"):
            MTable(p=0.5, significance=0.1, required=required)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            compute_m_table(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            compute_m_table(5, 1.5, 0.1)
        with pytest.raises(ValueError):
            compute_m_table(5, 0.5, 0.0)


def fastar_feasible(order_groups, required, total_protected):
    count = 0
    for k, group in enumerate(order_groups, start=1):
        count += group
        if count < min(required[k - 1], total_protected):
            return False
    return True


class TestFastarRerank:
    def test_no_quota_equals_unfair(self):
        rng = np.random.default_rng(89)
        table = MTable(p=0.0, significance=0.1, required=(0,) * 30)
        for i in range(20):
            q = random_query(rng, n_min=1, n_max=20, query_id=f"q{i}")
            assert ranked_ids(fastar_rerank(q, table)) == ranked_ids(unfair_rank(q))

    def test_quota_forces_protected_doc_first(self):
        q = make_query([2.0, 1.0], neutralities=[0.0, 1.0], doc_ids=["N", "P"])
        table = MTable(p=0.9, significance=0.1, required=(1, 1))
        assert ranked_ids(fastar_rerank(q, table)) == ("P", "N")

    def test_a_long_list_meets_its_quota_and_no_more(self):
        # every protected doc scores below every other: each prefix holds
        # exactly its quota, which underflowed to "all" past 537 docs at p = 0.75
        q = make_query(np.arange(1000.0, 0.0, -1.0), neutralities=[0.0] * 500 + [1.0] * 500)
        table = compute_m_table(1000, 0.75)
        prefix = np.cumsum(q.flat("protected")[fastar_rerank(q, table).order[0]])
        assert prefix[:600].tolist() == list(table.required[:600])

    def test_a_long_ragged_stack_is_the_greedy_merge(self):
        # rows longer than numpy's insertion-sort cutoff, with many protected
        # docs sharing a merge key: only a stable sort keeps them in order
        rng = np.random.default_rng(101)
        corpus = []
        for i in range(12):
            q = random_query(rng, n_min=20, n_max=300, query_id=f"q{i}",
                             protected_fraction=float(rng.choice([0.1, 0.5, 0.9])))
            corpus.append(make_query(np.round(q.flat("mu")), q.flat("sigma"), q.flat("neutrality"),
                                     query_id=f"q{i}"))
        stack = QueryStack(corpus)
        for p in (0.0, 0.3, 0.6, 0.9, 1.0):
            table = compute_m_table(300, p)
            ranked = fastar_rerank(stack, table)
            for i, query in enumerate(corpus):
                expected = oracles.fastar_greedy(query, table)
                n = len(query.doc_ids)
                assert ranked.order[i, :n].tolist() == expected.order[0].tolist()
                assert ranked.scores[i, :n].tolist() == expected.scores[0].tolist()

    def test_short_table_rejected(self):
        q = make_query([2.0, 1.0], neutralities=[0.0, 1.0])
        table = MTable(p=0.5, significance=0.1, required=(0,))
        with pytest.raises(ValueError, match="table"):
            fastar_rerank(q, table)

    def test_quota_beyond_pool_places_protected_first(self):
        # more protected demanded than exist: protected go as early as possible
        q = make_query([5.0, 4.0, 3.0], neutralities=[0.0, 0.0, 1.0], doc_ids=["N1", "N2", "P"])
        table = MTable(p=1.0, significance=0.1, required=(1, 2, 3))
        assert ranked_ids(fastar_rerank(q, table)) == ("P", "N1", "N2")

    def test_satisfies_quota_and_maximizes_utility(self):
        rng = np.random.default_rng(97)
        for i in range(150):
            q = random_query(rng, n_min=2, n_max=6, query_id=f"q{i}")
            n = len(q.doc_ids)
            p = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            table = compute_m_table(n, p, 0.1)
            ranking = fastar_rerank(q, table)
            groups = groups_of(q)
            mus = dict(zip(q.doc_ids, q.flat("mu").tolist()))
            total_protected = int(q.flat("protected").sum())
            out_groups = [groups[d] for d in ranked_ids(ranking)]
            assert fastar_feasible(out_groups, table.required, total_protected)
            # exhaustive search over feasible permutations
            best = None
            for perm in itertools.permutations(rows(q)):
                if not fastar_feasible(
                    [c.protected for c in perm], table.required, total_protected
                ):
                    continue
                utility = discounted_utility([c.mu for c in perm])
                best = utility if best is None else max(best, utility)
            achieved = discounted_utility([mus[d] for d in ranked_ids(ranking)])
            assert achieved == pytest.approx(best, abs=1e-9)


class TestHungarianAssign:
    def test_identity_dominant(self):
        positions = hungarian_assign(np.eye(4))
        assert list(positions) == [0, 1, 2, 3]

    def test_two_by_two_antidiagonal(self):
        positions = hungarian_assign(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert list(positions) == [1, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            benefit = rng.normal(size=(n, n))
            positions = hungarian_assign(benefit)
            achieved = benefit[np.arange(n), positions].sum()
            best = max(
                benefit[np.arange(n), list(perm)].sum()
                for perm in itertools.permutations(range(n))
            )
            assert achieved == pytest.approx(best, abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hungarian_assign(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian_assign(np.array([[1.0, np.nan], [0.0, 1.0]]))


def brute_force_constrained(query, depth, floor):
    """Exhaustive search over window permutations: best feasible utility."""
    window = rows(query)[:depth]
    base = min(c.mu for c in window)
    best = None
    for perm in itertools.permutations(window):
        if exposure_fairness([c.neutrality for c in perm]) < floor - 1e-9:
            continue
        utility = discounted_utility([c.mu - base for c in perm])
        best = utility if best is None else max(best, utility)
    return best


class TestConstrainedRerank:
    def test_inactive_constraint_returns_gain_order(self):
        rng = np.random.default_rng(103)
        for i in range(15):
            q = random_query(rng, n_min=2, n_max=10, query_id=f"q{i}")
            result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.0, depth=10))
            assert result.feasible
            assert ranked_ids(result.ranking) == ranked_ids(unfair_rank(q))

    def test_high_floor_forces_neutral_doc_first(self):
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.0, 1.0],
                       doc_ids=["A", "B", "C"])
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.9, depth=3))
        assert result.feasible
        assert ranked_ids(result.ranking) == ("C", "A", "B")

    def test_matches_brute_force_when_feasible(self):
        rng = np.random.default_rng(107)
        checked = 0
        for i in range(150):
            q = random_query(rng, n_min=3, n_max=7, query_id=f"q{i}")
            depth = len(q.doc_ids)
            alpha = float(rng.choice([0.3, 0.6, 0.8, 0.9, 0.95, 1.0]))
            result = constrained_rerank(q, ConstraintConfig(alpha_fairness=alpha, depth=depth))
            if not result.feasible:
                continue
            checked += 1
            window = rows(q)[:depth]
            base = min(c.mu for c in window)
            gains = {c.doc_id: c.mu - base for c in window}
            achieved = discounted_utility(
                [gains[d] for d in ranked_ids(result.ranking)[:depth]]
            )
            best = brute_force_constrained(q, depth, result.floor)
            assert best is not None
            assert achieved == pytest.approx(best, abs=1e-9)
        assert checked > 50

    def test_infeasible_floor_is_flagged_not_raised(self):
        # the only fully neutral doc sits outside the window, so the pool
        # ideal is unreachable by any window permutation
        q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.0, 1.0],
                       doc_ids=["A", "B", "C"])
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.9, depth=2))
        assert not result.feasible
        # tail docs keep their original order after the window
        assert ranked_ids(result.ranking)[2] == "C"

    def test_never_beats_unfair_utility_and_never_undercuts_its_fairness(self):
        rng = np.random.default_rng(109)
        for i in range(40):
            q = random_query(rng, n_min=3, n_max=9, query_id=f"q{i}")
            depth = len(q.doc_ids)
            window = rows(q)
            base = min(c.mu for c in window)
            gains = {c.doc_id: c.mu - base for c in window}
            neut = {c.doc_id: c.neutrality for c in window}
            unfair_docs = ranked_ids(unfair_rank(q))
            unfair_utility = discounted_utility([gains[d] for d in unfair_docs])
            unfair_fairness = exposure_fairness([neut[d] for d in unfair_docs])
            for alpha in (0.5, 0.9):
                result = constrained_rerank(q, ConstraintConfig(alpha_fairness=alpha, depth=depth))
                docs = ranked_ids(result.ranking)
                utility = discounted_utility([gains[d] for d in docs])
                fairness = exposure_fairness([neut[d] for d in docs])
                assert utility <= unfair_utility + 1e-9
                if result.feasible and fairness > unfair_fairness + 1e-9:
                    # the constraint actually moved something; fairness must
                    # not have fallen below the floor
                    assert fairness >= result.floor - 1e-9

    def test_bisection_path_fairness_monotone_in_lambda(self):
        rng = np.random.default_rng(113)
        for i in range(25):
            q = random_query(rng, n_min=4, n_max=10, query_id=f"q{i}")
            result = constrained_rerank(
                q, ConstraintConfig(alpha_fairness=0.9, depth=len(q.doc_ids))
            )
            path = sorted(result.steps, key=lambda s: s.lam)
            for a, b in zip(path, path[1:]):
                assert a.fairness <= b.fairness + 1e-9

    def test_tail_keeps_original_order_with_lower_scores(self):
        rng = np.random.default_rng(127)
        q = random_query(rng, n_min=8, n_max=12, query_id="q")
        depth = 4
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.8, depth=depth))
        docs = ranked_ids(result.ranking)
        expected_tail = tuple(c.doc_id for c in rows(q)[depth:])
        assert docs[depth:] == expected_tail
        scores = result.ranking.scores[0].tolist()
        assert scores == sorted(scores, reverse=True)
        assert max(scores[depth:], default=-math.inf) < min(scores[:depth])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConstraintConfig(alpha_fairness=1.5)
        with pytest.raises(ValueError):
            ConstraintConfig(alpha_fairness=0.5, depth=0)


class TestFloorsFromTheStack:
    """A row of a stack reads its fairness floor from its own ideal FaiRR,
    with the bits the query has on its own, and keeps it for every floor."""

    @staticmethod
    def ragged_stack():
        rng = np.random.default_rng(23)
        queries = [random_query(rng, n_min=1, n_max=14, query_id=f"q{i}") for i in range(15)]
        return assign_groups(QueryStack(queries))  # rows are views of this stack

    @pytest.mark.parametrize("depth", [1, 3, 8, 14, 50])
    def test_a_row_gets_the_result_of_the_query_alone(self, depth):
        for alpha in (0.5, 0.9, 1.0):
            cfg = ConstraintConfig(alpha, depth)
            for row in self.ragged_stack():
                alone = assign_groups(QueryStack.ranked(
                    row.query_ids, row.lengths, row.doc_ids,
                    {name: row.flat(name).copy() for name in ("mu", "sigma", "neutrality")}))
                got, want = (
                    (r.floor.hex(), ranked_ids(r.ranking), r.feasible, r.gap.hex(), r.nodes,
                     [(s.lam.hex(), s.fairness.hex(), s.utility.hex()) for s in r.steps])
                    for r in (constrained_rerank(row, cfg), constrained_rerank(alone, cfg)))
                assert got == want

    def test_a_sweep_floors_every_alpha_from_the_rows_the_stack_keeps(self, monkeypatch):
        stack = self.ragged_stack()
        floored, sorted_rows = [], []
        ideal, sums = baselines.ideal_fairr_at_k, metrics._fairr_sums
        monkeypatch.setattr(baselines, "ideal_fairr_at_k",
                            lambda query, k: floored.append(query) or ideal(query, k))
        monkeypatch.setattr(metrics, "_fairr_sums",
                            lambda values: sorted_rows.append(len(values)) or sums(values))
        cfg = SweepConfig("constrained", (0.5, 0.9, 1.0), depth=6)
        run_sweep(stack, RelevanceJudgments({}), cfg)
        rows = list(stack)
        assert len(floored) == 3 * len(rows)
        assert all(query is row for query, row in zip(floored, rows * 3))
        # each row's ideal neutrality order is sorted once, not once per alpha;
        # the metrics sort the stack's (one block of 15 rows) once more
        assert sorted_rows.count(1) == len(rows)


class TestLagrangianGap:
    def test_gap_is_the_certificate_bound_minus_the_utility(self):
        rng = np.random.default_rng(139)
        bounded = 0
        for i in range(60):
            q = random_query(rng, n_min=2, n_max=20, query_id=f"q{i}")
            for alpha in (0.0, 0.5, 0.9, 0.95):
                result = constrained_rerank(q, ConstraintConfig(alpha_fairness=alpha, depth=len(q.doc_ids)))
                if not result.feasible:
                    assert math.isnan(result.gap)
                    continue
                assert result.gap >= -1e-12
                if len(result.steps) == 1 or (result.nodes and not result.exhausted):
                    assert result.gap == 0.0
                else:
                    bounded += 1
        assert bounded > 20

    def test_a_crossing_on_a_bracket_end_certifies_there(self):
        # with equal gains the fairest order loses no utility, so the first
        # crossing is lambda = 0, whose gain order bounds the utility exactly
        # (lam_max would bound it only up to the rounding of 1e6 * floor)
        q = make_query([0.0, 0.0, 0.0], neutralities=[0.5, 0.5, 1.0])
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=1.0, depth=3))
        assert result.feasible
        assert result.gap == 0.0

    def test_the_bound_covers_an_order_just_below_the_floor(self):
        # the returned order's fairness is 1.7e-13 below the floor, within the
        # feasibility tolerance; a bound taken at the floor itself, not at the
        # least fairness counted feasible, read a gap of -1.04e-12
        q = make_query([2] + [0] * 10 + [-1, -7], neutralities=[0] * 11 + [1e-12, 1])
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.5, depth=13))
        window = result.ranking.order[0, :13]
        fairness = float(np.sum(q.flat("neutrality")[window] / np.arange(1, 14)))
        assert result.feasible
        assert result.floor - 1e-9 <= fairness < result.floor
        assert result.gap >= 0.0

    def test_completed_gap_search_closes_the_gap(self):
        for q, cfg in gap_search_queries():
            assert constrained_rerank(q, cfg).gap == 0.0

    def test_the_deep_fixture_takes_few_assignment_solves(self, monkeypatch):
        # 1,080 assignments at 64 bisection steps per window; 200 by crossings
        corpus, _ = generate_synthetic(SyntheticConfig(n_queries=50, n_candidates=1000, seed=1))
        calls = []
        assign = baselines.hungarian_assign
        monkeypatch.setattr(
            baselines, "hungarian_assign", lambda benefit: calls.append(1) or assign(benefit)
        )
        infeasible = 0
        for alpha in (0.5, 0.9):
            cfg = ConstraintConfig(alpha_fairness=alpha, depth=50)
            for q in corpus:
                result = constrained_rerank(q, cfg)
                infeasible += not result.feasible
                assert result.feasible or math.isnan(result.gap)
                assert not result.feasible or result.gap >= -1e-12
        assert len(calls) <= 250
        assert infeasible == 40


class TestGapSearchReport:
    def test_no_search_reports_zero_nodes(self):
        rng = np.random.default_rng(137)
        for i in range(10):
            q = random_query(rng, n_min=3, n_max=9, query_id=f"q{i}")
            result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.0, depth=len(q.doc_ids)))
            assert (result.nodes, result.exhausted) == (0, False)
        # a window deeper than DEFAULT_EXACT_WINDOW never runs the search
        q = random_query(rng, n_min=DEFAULT_EXACT_WINDOW + 1, n_max=20, query_id="deep")
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=0.95, depth=len(q.doc_ids)))
        assert (result.nodes, result.exhausted) == (0, False)

    def test_the_gap_search_cases_rerank_whole_windows_of_6_to_9_docs(self):
        # the depth counts candidates: len() of a query counts its one row
        cases = gap_search_queries()
        for q, cfg in cases:
            assert len(q) == 1 and 6 <= len(q.doc_ids) <= 9 and cfg.depth == len(q.doc_ids)
            assert constrained_rerank(q, cfg).nodes > 0
        assert {cfg.depth for _, cfg in cases} == {6, 7, 8, 9}

    def test_completed_search_is_not_exhausted(self):
        for q, cfg in gap_search_queries():
            result = constrained_rerank(q, cfg)
            assert 0 < result.nodes < DEFAULT_MAX_NODES
            assert not result.exhausted

    def test_capped_search_says_so(self, monkeypatch):
        for q, cfg in gap_search_queries():
            monkeypatch.setattr(baselines, "DEFAULT_MAX_NODES", DEFAULT_MAX_NODES)
            full = constrained_rerank(q, cfg)
            # a cap the search just fits under does not cut it
            monkeypatch.setattr(baselines, "DEFAULT_MAX_NODES", full.nodes)
            fits = constrained_rerank(q, cfg)
            assert (fits.nodes, fits.exhausted) == (full.nodes, False)
            assert ranked_ids(fits.ranking) == ranked_ids(full.ranking)
            monkeypatch.setattr(baselines, "DEFAULT_MAX_NODES", full.nodes - 1)
            cut = constrained_rerank(q, cfg)
            assert (cut.nodes, cut.exhausted) == (full.nodes - 1, True)
            assert cut.feasible
