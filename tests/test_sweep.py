import math
from collections import Counter

import numpy as np
import pytest

from pufr.baselines import unfair_rank
from pufr.core import QueryStack
from pufr.metrics import RelevanceJudgments, ndcg_at_k, nfairr_at_k, paired_t_test
from pufr.rerank import PufrConfig, pufr_rerank
from pufr.sweep import (
    SweepConfig,
    records_to_csv,
    report_interval_analysis,
    run_sweep,
    select_best_tradeoff,
)
from pufr.synth import SyntheticConfig, generate_synthetic

from pufr import baselines, sweep

import oracles
from conftest import gap_search_queries, make_query, sweep_key


def biased_corpus(seed=0, n_queries=30, n_candidates=15):
    return generate_synthetic(
        SyntheticConfig(
            n_queries=n_queries, n_candidates=n_candidates, bias_strength=1.5,
            sigma_loc=0.6, sigma_spread=0.3, seed=seed,
        )
    )


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        row = {"method": fields[0]}
        for key, value in zip(header[1:], fields[1:]):
            row[key] = float(value)
        rows.append(row)
    return header, rows


class TestRunSweep:
    def test_unfair_collapses_to_one_record(self):
        corpus, judgments = biased_corpus()
        cfg = SweepConfig(method="unfair", alpha_grid=(0.0, 1.0, 2.0))
        result = run_sweep(corpus, judgments, cfg)
        assert len(result.records) == 1
        record = result.records[0]
        # metric means must equal direct evaluation of the unfair rankings
        expected_ndcg10 = np.mean(
            [ndcg_at_k(unfair_rank(q), judgments, 10) for q in corpus]
        )
        assert record.ndcg[10] == pytest.approx(float(expected_ndcg10), abs=1e-15)

    def test_pufr_at_alpha_zero_matches_unfair_metrics(self):
        corpus, judgments = biased_corpus(seed=3)
        pufr_result = run_sweep(corpus, judgments, SweepConfig("pufr", (0.0,)))
        unfair_result = run_sweep(corpus, judgments, SweepConfig("unfair", (0.0,)))
        p, u = pufr_result.records[0], unfair_result.records[0]
        assert p.ndcg == u.ndcg
        assert p.nfairr == u.nfairr

    def test_pufr_fairness_column_is_monotone_in_alpha(self):
        corpus, judgments = biased_corpus(seed=5)
        cfg = SweepConfig(method="pufr", alpha_grid=(0.0, 1.0, 2.0, 4.0))
        result = run_sweep(corpus, judgments, cfg)
        values = [r.nfairr[10] for r in result.records]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_metric_columns_match_direct_evaluation(self):
        corpus, judgments = biased_corpus(seed=7, n_queries=10)
        cfg = SweepConfig(method="pufr", alpha_grid=(1.5,))
        record = run_sweep(corpus, judgments, cfg).records[0]
        rankings = [pufr_rerank(q, PufrConfig.symmetric(1.5)) for q in corpus]
        for k in (10, 100):
            expected = np.mean([ndcg_at_k(ranking, judgments, k).item() for ranking in rankings])
            assert record.ndcg[k] == pytest.approx(float(expected), abs=1e-15)
        for k in (10, 50):
            expected = np.mean([nfairr_at_k(ranking, k).item() for ranking in rankings])
            assert record.nfairr[k] == pytest.approx(float(expected), abs=1e-15)

    def test_missing_sigma_fails_before_any_work(self):
        corpus, judgments = biased_corpus(seed=9, n_queries=4)
        run_path_corpus = QueryStack.ranked(corpus.query_ids, corpus.lengths, corpus.doc_ids, {
            "mu": corpus.flat("mu").copy(), "neutrality": corpus.flat("neutrality").copy()})
        with pytest.raises(ValueError, match="sigma"):
            run_sweep(run_path_corpus, judgments, SweepConfig("pufr", (1.0,)))

    def test_uniform_reference_is_pufr_at_matching_alpha(self):
        corpus, judgments = biased_corpus(seed=11, n_queries=12)
        record = run_sweep(corpus, judgments, SweepConfig("uniform", (0.0,))).records[0]
        # at alpha 0 both pipelines reduce to the plain ordering, so the
        # paired test against the reference must be the degenerate (0, 1)
        assert record.t_stat == 0.0
        assert record.p_value == 1.0

    def test_fastar_is_t_tested_against_pufr_rerank_at_each_alpha(self):
        corpus, judgments = biased_corpus(seed=5, n_queries=9)
        corpus = QueryStack([*corpus, make_query([1.0], [0.2], [1.0], query_id="one")])
        records = run_sweep(corpus, judgments, SweepConfig("fastar", (0.0, 0.5, 1.0))).records
        for record in records:
            fastar = baselines.compute_m_table(15, record.alpha)
            expected = paired_t_test(
                {q.query_ids[0]: nfairr_at_k(baselines.fastar_rerank(q, fastar), 10).item()
                 for q in corpus},
                {q.query_ids[0]: nfairr_at_k(
                    pufr_rerank(q, PufrConfig.symmetric(record.alpha)), 10).item()
                 for q in corpus},
            )
            assert (record.t_stat, record.p_value) == (expected.t_statistic, expected.p_value)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_pufr_reference_names_the_first_query_at_fault(self):
        # the stacked pass finds a score that is not finite; c overflows too
        corpus = [
            make_query([2.0, 1.0, 0.5], [0.1, 0.1, 0.1], [1.0, 0.0, 1.0], query_id="a"),
            make_query([1e308, 0.0, -1.0], [1.7e308, 0.1, 0.1], [1.0, 0.0, 1.0], query_id="b"),
            make_query([1e308, 0.0, -1.0], [1.7e308, 0.1, 0.1], [1.0, 0.0, 0.0], query_id="c"),
        ]
        with pytest.raises(ValueError, match="^query 'b': non-finite score for doc 'd1'$"):
            run_sweep(QueryStack(corpus), RelevanceJudgments({}), SweepConfig("fastar", (1.0,)))

    def test_a_repeated_query_id_is_rejected(self):
        # per-query values are keyed by id: the second q would overwrite the
        # first and the mean would divide by two queries, not three
        corpus = [make_query([2.0, 1.0], neutralities=[1.0, 0.0], query_id="q"),
                  make_query([2.0, 1.0], neutralities=[0.0, 1.0], query_id="q"),
                  make_query([2.0, 1.0], neutralities=[1.0, 0.0], query_id="r")]
        cfg = SweepConfig(method="unfair", alpha_grid=(0.0,), cutoffs_fairness=(1,))
        with pytest.raises(ValueError, match="^query id 'q' is repeated in the corpus$"):
            run_sweep(QueryStack(corpus), RelevanceJudgments({}), cfg)

    def test_the_stacked_pufr_reference_keeps_tied_scores_in_original_rank_order(self):
        # whole mu and sigma 0.5 tie raised and lowered docs at alpha 1, and
        # with 40 docs per query numpy's default sort is no longer stable
        rng = np.random.default_rng(2)
        corpus = [
            make_query(sorted(rng.integers(0, 4, 40).astype(float).tolist(), reverse=True),
                       [0.5] * 40, rng.choice([0.0, 0.5, 1.0], 40).tolist(), query_id=f"q{i}")
            for i in range(8)
        ]
        cfg = PufrConfig.symmetric(1.0)
        expected = [pufr_rerank(q, cfg) for q in corpus]
        stack = QueryStack(corpus)
        ranked = pufr_rerank(stack, cfg)
        assert ranked.order.tolist() == [ranking.order[0].tolist() for ranking in expected]
        assert nfairr_at_k(ranked, 10).tolist() == [nfairr_at_k(r, 10).item() for r in expected]

    def test_constrained_sweep_reports_infeasible_queries(self):
        q1 = make_query([3.0, 2.0, 1.0], [0.1] * 3, [0.0, 0.0, 1.0], query_id="q1")
        q2 = make_query([3.0, 2.0, 1.0], [0.1] * 3, [1.0, 0.0, 0.0], query_id="q2")
        judgments = RelevanceJudgments(grades={})
        cfg = SweepConfig(method="constrained", alpha_grid=(0.9,), depth=2)
        result = run_sweep(QueryStack([q1, q2]), judgments, cfg)
        assert result.infeasible_queries == 1  # q1's neutral doc is outside the window

    def test_constrained_sweep_reports_capped_searches(self, monkeypatch):
        corpus = QueryStack([query for query, _ in gap_search_queries()[:3]])
        judgments = RelevanceJudgments(grades={})
        cfg = SweepConfig(method="constrained", alpha_grid=(0.95,), depth=12)
        full = run_sweep(corpus, judgments, cfg)
        assert (full.infeasible_queries, full.exhausted_queries) == (0, 0)
        monkeypatch.setattr(baselines, "DEFAULT_MAX_NODES", 1)
        cut = run_sweep(corpus, judgments, cfg)
        assert (cut.infeasible_queries, cut.exhausted_queries) == (0, 3)

    def test_fastar_alpha_range_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SweepConfig(method="fastar", alpha_grid=(0.5, 2.0))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepConfig(method="pufr", alpha_grid=(1.0, 1.0))

    @pytest.mark.parametrize("method", sweep.METHODS)
    def test_timing_is_finite_and_positive(self, method):
        corpus, judgments = biased_corpus(seed=13, n_queries=5)
        record = run_sweep(corpus, judgments, SweepConfig(method, (0.5,), depth=5)).records[0]
        assert math.isfinite(record.mean_rerank_seconds) and record.mean_rerank_seconds > 0.0

    @pytest.mark.parametrize("method", ["pufr", "uniform"])
    def test_a_stacked_method_calls_its_reranker_once_per_alpha(self, monkeypatch, method):
        calls = Counter()
        for name in ("pufr_rerank", "uniform_rerank", "unfair_rank"):
            def counted(*args, _name=name, _rerank=getattr(sweep, name), **kwargs):
                calls[_name] += 1
                return _rerank(*args, **kwargs)

            monkeypatch.setattr(sweep, name, counted)
        corpus, judgments = biased_corpus(seed=13, n_queries=5)
        grid = (0.0, 0.5, 1.0)
        run_sweep(corpus, judgments, SweepConfig(method, grid))
        # the t-test reference ranks the stack too: PUFR's per alpha, the plain order once
        if method == "pufr":
            assert calls == {"pufr_rerank": len(grid), "unfair_rank": 1}
        else:
            assert calls == {"uniform_rerank": len(grid), "pufr_rerank": len(grid)}


class TestCsv:
    def test_header_matches_pinned_schema(self):
        corpus, judgments = biased_corpus(seed=15, n_queries=6)
        result = run_sweep(corpus, judgments, SweepConfig("pufr", (0.0, 1.0)))
        header, rows = parse_csv(records_to_csv(result.records))
        assert header == [
            "method", "alpha", "ndcg_cut_10", "ndcg_cut_100", "nfairr10", "nfairr50",
            "rerank_time_s", "t_stat", "p_value",
        ]
        assert [row["alpha"] for row in rows] == [0.0, 1.0]
        assert all(row["method"] == "pufr" for row in rows)

    def test_metric_cells_round_trip_through_csv(self):
        corpus, judgments = biased_corpus(seed=17, n_queries=6)
        result = run_sweep(corpus, judgments, SweepConfig("pufr", (2.0,)))
        _, rows = parse_csv(records_to_csv(result.records))
        record = result.records[0]
        assert rows[0]["ndcg_cut_10"] == record.ndcg[10]
        assert rows[0]["nfairr50"] == record.nfairr[50]

    def test_metric_columns_are_deterministic_across_runs(self):
        corpus, judgments = biased_corpus(seed=19, n_queries=8)
        cfg = SweepConfig(method="uniform", alpha_grid=(0.5, 1.5))
        first = run_sweep(corpus, judgments, cfg).records
        second = run_sweep(corpus, judgments, cfg).records
        for a, b in zip(first, second):
            assert a.ndcg == b.ndcg
            assert a.nfairr == b.nfairr
            assert (a.t_stat, a.p_value) == (b.t_stat, b.p_value)

    def test_extra_cutoffs_append_in_k_order(self):
        corpus, judgments = biased_corpus(seed=21, n_queries=6)
        cfg = SweepConfig(
            method="pufr", alpha_grid=(1.0,),
            cutoffs_utility=(5, 10, 20), cutoffs_fairness=(5, 15),
        )
        header, _ = parse_csv(records_to_csv(run_sweep(corpus, judgments, cfg).records))
        assert header[2:7] == ["ndcg_cut_5", "ndcg_cut_10", "ndcg_cut_20",
                               "nfairr5", "nfairr15"]


class TestSelectBest:
    def test_picks_max_fairness_above_floor(self):
        corpus, judgments = biased_corpus(seed=23, n_queries=10)
        cfg = SweepConfig(method="pufr", alpha_grid=(0.0, 0.5, 1.0, 2.0, 4.0))
        records = run_sweep(corpus, judgments, cfg).records
        uc, fc = max(cfg.cutoffs_utility), max(cfg.cutoffs_fairness)
        floor = records[0].ndcg[uc] - 0.01
        best = select_best_tradeoff(records, floor, utility_cutoff=uc, fairness_cutoff=fc)
        assert best is not None
        eligible = [r for r in records if r.ndcg[uc] >= floor]
        assert best.nfairr[fc] == max(r.nfairr[fc] for r in eligible)

    def test_unreachable_floor_returns_none(self):
        corpus, judgments = biased_corpus(seed=25, n_queries=6)
        cfg = SweepConfig("pufr", (0.0,))
        records = run_sweep(corpus, judgments, cfg).records
        assert select_best_tradeoff(
            records, 1.1,
            utility_cutoff=max(cfg.cutoffs_utility), fairness_cutoff=max(cfg.cutoffs_fairness),
        ) is None


class TestIntervalReport:
    def test_disjoint_corpus_gives_all_zero_table(self):
        corpus = QueryStack([make_query([0.0, 100.0, 200.0], [0.1] * 3, query_id="q1")])
        text = report_interval_analysis(corpus, alphas=(1.0, 2.0))
        lines = text.strip().splitlines()
        assert lines[0] == "rank,median_swaps_alpha_1,median_swaps_alpha_2"
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0", "0"]

    def test_wider_intervals_dominate(self):
        corpus, _ = biased_corpus(seed=27, n_queries=10)
        text = report_interval_analysis(corpus, alphas=(1.0, 2.0))
        _, rows = parse_csv(text)
        for row in rows:
            assert row["median_swaps_alpha_2"] >= row["median_swaps_alpha_1"]

    @pytest.mark.parametrize("alphas", [(1.0, 1.0), (1.0, 2.0, 1.0), (0.1234561, 0.1234562)])
    def test_alphas_sharing_a_column_name_are_refused(self, alphas):
        corpus = QueryStack([make_query([0.0, 1.0], [0.5, 0.5])])
        with pytest.raises(ValueError, match="repeat a column name"):
            report_interval_analysis(corpus, alphas)

    def test_single_query_reproduces_intersection_counts(self):
        from pufr.metrics import intersection_counts

        q = make_query([0.0, 0.4, 3.0], [0.5, 0.5, 0.1], query_id="q1")
        text = report_interval_analysis(QueryStack([q]), alphas=(1.0,))
        _, rows = parse_csv(text)
        assert [int(r["median_swaps_alpha_1"]) for r in rows] == intersection_counts(
            q, 1.0)[0].tolist()


def ragged_corpus(seed=3, longest=12):
    """One query of each length 1..longest, in shuffled order: some with tied
    ``mu``, some of one group only, neutralities with -0.0, and about 40% of
    the docs unjudged."""
    rng = np.random.default_rng(seed)
    corpus, grades = [], {}
    for n in rng.permutation(np.arange(1, longest + 1)).tolist():
        mu = rng.choice([0.0, 1.0, 2.5], n) if n % 3 == 0 else rng.normal(0.0, 2.0, n)
        neutrality = (np.ones(n) if n % 4 == 1  # protected only
                      else rng.choice([0.0, -0.0, 0.5], n) if n % 4 == 2  # unprotected only
                      else rng.choice([0.0, -0.0, 0.3, 1.0], n))
        query = make_query(mu, np.abs(rng.normal(0.5, 0.3, n)), neutrality, query_id=f"r{n}")
        corpus.append(query)
        grades.update(((f"r{n}", doc), int(rng.integers(0, 4)))
                      for doc in query.doc_ids if rng.random() < 0.6)
    return QueryStack(corpus), RelevanceJudgments(grades)


def golden_corpus(tmp_path):
    """The hand-written corpus behind the golden sweep CSVs, loaded as `pufr sweep` loads it."""
    from pufr.core import assign_groups
    from pufr import fileio
    from test_cli_bytes import write_corpus

    write_corpus(tmp_path)
    corpus = fileio.attach_neutrality(
        fileio.attach_sigmas(fileio.parse_run_file(tmp_path / "run"),
                             fileio.parse_sigma_file(tmp_path / "sigma")),
        fileio.parse_neutrality_file(tmp_path / "neutrality"),
    )
    return QueryStack([assign_groups(q) for q in corpus]), fileio.parse_qrels(tmp_path / "qrels")


CORPORA = {
    "ragged": lambda tmp_path: ragged_corpus(),
    "one-length": lambda tmp_path: biased_corpus(seed=29, n_queries=12),
    "golden": golden_corpus,
    "one-query": lambda tmp_path: ragged_corpus(seed=5, longest=1),
}
GRIDS = {
    "pufr": (0.0, 0.5, 1.0, 4.0),
    "uniform": (0.0, 0.5, 1.0, 4.0),
    "unfair": (0.0,),
    "fastar": (0.0, 0.5, 0.9),
    "constrained": (0.5, 0.95),
}


class TestStackedEvaluation:
    """Each alpha's rankings are evaluated in one stacked pass per cutoff,
    with the records of evaluating them one by one."""

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("method", sweep.METHODS)
    def test_records_match_the_per_query_sweep(self, tmp_path, corpus, method):
        corpus, judgments = CORPORA[corpus](tmp_path)
        cfg = SweepConfig(method, GRIDS[method], cutoffs_utility=(1, 5, 10),
                          cutoffs_fairness=(3, 10, 50), depth=4)
        assert sweep_key(run_sweep(corpus, judgments, cfg)) == sweep_key(
            oracles.run_sweep_per_query(corpus, judgments, cfg))

    @pytest.mark.parametrize("corpus", ["ragged", "one-length"])
    @pytest.mark.parametrize("method", sweep.METHODS)
    def test_each_metric_is_called_once_per_alpha_and_cutoff(
        self, tmp_path, monkeypatch, corpus, method
    ):
        calls = Counter()
        for name in ("ndcg_at_k", "nfairr_at_k"):
            def counted(*args, _name=name, _metric=getattr(sweep, name), **kwargs):
                calls[_name] += 1
                return _metric(*args, **kwargs)

            monkeypatch.setattr(sweep, name, counted)
        corpus, judgments = CORPORA[corpus](tmp_path)
        cfg = SweepConfig(method, GRIDS[method], cutoffs_utility=(1, 5, 10),
                          cutoffs_fairness=(3, 10), depth=4)
        alphas = len(run_sweep(corpus, judgments, cfg).records)
        # the PUFR reference is evaluated per alpha, the unfair one once
        references = 1 if method in ("pufr", "unfair") else alphas
        assert calls == {"ndcg_at_k": 3 * alphas, "nfairr_at_k": 2 * alphas + references}
