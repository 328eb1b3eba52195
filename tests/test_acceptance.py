"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they stream.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from pufr.baselines import (
    ConstraintConfig,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    unfair_rank,
)
from pufr.core import QueryStack, ScoredCandidate, assign_groups, build_query
from pufr.metrics import RelevanceJudgments, fairr_at_k, ndcg_at_k, nfairr_at_k, paired_t_test
from pufr.rerank import PufrConfig, pufr_rerank, uniform_rerank
from pufr.sweep import SweepConfig, records_to_csv, report_interval_analysis, run_sweep
from pufr.synth import SyntheticConfig, generate_synthetic
from pufr.uncertainty import McConfig, analytic_predictive, predictive_moments, sample_last_layers
from pufr import fileio

from conftest import groups_of, make_query, ranked, ranking_of, rows


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def random_corpus(rng, n_queries, max_docs=50):
    corpus = []
    for i in range(n_queries):
        n = int(rng.integers(2, max_docs + 1))
        protected = rng.random(n) < 0.5
        candidates = [
            ScoredCandidate(
                doc_id=f"d{j:02d}",
                mu=float(rng.normal(0.0, 2.0)),
                sigma=float(abs(rng.normal(0.5, 0.25))),
                neutrality=1.0 if protected[j] else float(rng.random() * 0.95),
            )
            for j in range(n)
        ]
        corpus.append(assign_groups(build_query(f"q{i:04d}", candidates)))
    return corpus


def group_sequences(ranking, query):
    protected = groups_of(query)
    return (
        [d for d in ranking.doc_ids() if protected[d]],
        [d for d in ranking.doc_ids() if not protected[d]],
    )


def test_criterion_1_identity_at_zero():
    corpus, _ = generate_synthetic(SyntheticConfig(n_queries=200, n_candidates=20, seed=201))
    start = time.perf_counter()
    cfg = PufrConfig.symmetric(0.0)
    mismatches = sum(
        pufr_rerank(q, cfg).doc_ids() != unfair_rank(q).doc_ids() for q in corpus
    )
    elapsed = time.perf_counter() - start
    check(
        "criterion 1: alpha=0 re-ranking equals the plain ordering on 200 queries",
        mismatches == 0 and elapsed < 1.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


ALPHA_SWEEP = (0.5, 1.0, 2.0, 4.0, 8.0)


@pytest.fixture(scope="module")
def thousand_query_sweep():
    rng = np.random.default_rng(202)
    corpus = random_corpus(rng, 1000, max_docs=50)
    start = time.perf_counter()
    rankings = {
        alpha: [pufr_rerank(q, PufrConfig.symmetric(alpha)) for q in corpus]
        for alpha in ALPHA_SWEEP
    }
    elapsed = time.perf_counter() - start
    return corpus, rankings, elapsed


def test_criterion_2_intra_group_preservation(thousand_query_sweep):
    corpus, rankings, rerank_seconds = thousand_query_sweep
    start = time.perf_counter()
    unfair = [unfair_rank(q) for q in corpus]
    inversions = 0
    for alpha in ALPHA_SWEEP:
        for q, base, ranked in zip(corpus, unfair, rankings[alpha]):
            if group_sequences(ranked, q) != group_sequences(base, q):
                inversions += 1
    elapsed = rerank_seconds + (time.perf_counter() - start)
    check(
        "criterion 2: zero same-group inversions over 1000 queries x 5 alphas",
        inversions == 0 and elapsed < 10.0,
        f"inversions={inversions}, {elapsed:.2f}s",
    )


def test_criterion_3_fairness_monotonicity(thousand_query_sweep):
    corpus, rankings, _ = thousand_query_sweep
    sigma_mean = float(
        np.mean([c.sigma for q in corpus for c in rows(q)])
    )
    violations = 0
    for idx, q in enumerate(corpus):
        pufr_values = [
            nfairr_at_k(rankings[alpha][idx], 10) for alpha in ALPHA_SWEEP
        ]
        uniform_values = [
            nfairr_at_k(uniform_rerank(q, sigma_mean, PufrConfig.symmetric(alpha)), 10)
            for alpha in ALPHA_SWEEP
        ]
        for series in (pufr_values, uniform_values):
            if any(a > b for a, b in zip(series, series[1:])):
                violations += 1
    check(
        "criterion 3: per-query fairness at 10 non-decreasing in alpha (exact)",
        violations == 0,
        f"violations={violations}",
    )


def oracle_pufr_order(query, alpha):
    by_mu = sorted(rows(query), key=lambda c: -c.mu)  # stable: ties keep original rank
    adjusted = {}
    protected = [c for c in by_mu if c.protected]
    others = [c for c in by_mu if not c.protected]
    if protected:
        raw = np.array([c.mu + alpha * c.sigma for c in protected])
        for c, v in zip(protected, np.minimum.accumulate(raw)):
            adjusted[c.doc_id] = float(v)
    if others:
        raw = np.array([c.mu - alpha * c.sigma for c in others])
        for c, v in zip(others, np.maximum.accumulate(raw[::-1])[::-1]):
            adjusted[c.doc_id] = float(v)
    ranks = {doc_id: rank for rank, doc_id in enumerate(query.doc_ids, start=1)}
    ordered = sorted(adjusted, key=lambda d: (-adjusted[d], ranks[d]))
    return tuple(ordered)


def discounted_utility(values):
    return sum(v / math.log2(pos + 2) for pos, v in enumerate(values))


def exposure_fairness(values):
    return sum(v / (pos + 1) for pos, v in enumerate(values))


def test_criterion_4_brute_force_oracles():
    rng = np.random.default_rng(204)
    pufr_mismatches = 0
    fastar_bad = 0
    constrained_bad = 0
    constrained_checked = 0
    for i in range(500):
        n = int(rng.integers(2, 7))
        protected = rng.random(n) < 0.5
        candidates = [
            ScoredCandidate(
                doc_id=f"d{j}",
                mu=float(rng.normal(0, 2)),
                sigma=float(abs(rng.normal(0.5, 0.3))),
                neutrality=1.0 if protected[j] else float(rng.random() * 0.95),
            )
            for j in range(n)
        ]
        q = assign_groups(build_query(f"q{i}", candidates))

        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        if pufr_rerank(q, PufrConfig.symmetric(alpha)).doc_ids() != oracle_pufr_order(q, alpha):
            pufr_mismatches += 1

        # prefix-quota method vs exhaustive feasible-utility-max search
        p = float(rng.choice([0.2, 0.5, 0.8]))
        table = compute_m_table(n, p, 0.1)
        total_protected = int(q.protected.sum())

        def feasible(groups_in_order):
            count = 0
            for k, g in enumerate(groups_in_order, start=1):
                count += g
                if count < min(table.required[k - 1], total_protected):
                    return False
            return True

        ranking = fastar_rerank(q, table)
        groups = groups_of(q)
        mus = dict(zip(q.doc_ids, q.mu.tolist()))
        if not feasible([groups[d] for d in ranking.doc_ids()]):
            fastar_bad += 1
        else:
            best = max(
                discounted_utility([c.mu for c in perm])
                for perm in itertools.permutations(rows(q))
                if feasible([c.protected for c in perm])
            )
            achieved = discounted_utility([mus[d] for d in ranking.doc_ids()])
            if abs(achieved - best) > 1e-9:
                fastar_bad += 1

        # windowed constrained optimizer vs exhaustive search
        alpha_fair = float(rng.choice([0.3, 0.6, 0.8, 0.9, 1.0]))
        result = constrained_rerank(q, ConstraintConfig(alpha_fairness=alpha_fair, depth=n))
        if result.feasible:
            constrained_checked += 1
            base = min(q.mu.tolist())
            gains = {c.doc_id: c.mu - base for c in rows(q)}
            neut = {c.doc_id: c.neutrality for c in rows(q)}
            achieved = discounted_utility([gains[d] for d in result.ranking.doc_ids()])
            best = max(
                (
                    discounted_utility([gains[c.doc_id] for c in perm])
                    for perm in itertools.permutations(rows(q))
                    if exposure_fairness([neut[c.doc_id] for c in perm])
                    >= result.floor - 1e-9
                ),
                default=None,
            )
            if best is None or abs(achieved - best) > 1e-9:
                constrained_bad += 1
    check(
        "criterion 4: brute-force oracle equivalence on 500 small queries",
        pufr_mismatches == 0 and fastar_bad == 0 and constrained_bad == 0,
        f"pufr={pufr_mismatches}, quota={fastar_bad}, constrained={constrained_bad} "
        f"(feasible checked: {constrained_checked})",
    )


def test_criterion_5_laplace_convergence():
    rng = np.random.default_rng(205)
    sample_sizes = (1000, 3162, 10_000, 31_623, 100_000)
    rel_errors = {n: [] for n in sample_sizes}
    from pufr.uncertainty import LastLayerPosterior

    for i in range(100):
        d = int(rng.integers(1, 17))
        posterior = LastLayerPosterior(
            theta_map=rng.normal(size=d),
            fisher_diag=np.abs(rng.normal(size=d)) + 0.2,
        )
        feature = rng.normal(size=d)
        exact = analytic_predictive(posterior, feature)
        if exact.sigma == 0.0:
            feature[0] = 1.0
            exact = analytic_predictive(posterior, feature)
        for n in sample_sizes:
            samples = sample_last_layers(
                posterior, McConfig(n_samples=n, seed=int(rng.integers(1 << 31)))
            )
            (mc_sigma,) = predictive_moments(samples, feature[None, :])[1].tolist()
            rel_errors[n].append(abs(mc_sigma**2 - exact.sigma**2) / exact.sigma**2)

    worst_10k = max(rel_errors[10_000])
    worst_100k = max(rel_errors[100_000])
    means = np.array([np.mean(rel_errors[n]) for n in sample_sizes])
    slope = np.polyfit(np.log(sample_sizes), np.log(means), 1)[0]
    check(
        "criterion 5: MC predictive variance converges at the 1/sqrt(N) rate",
        worst_10k < 0.05 and worst_100k < 0.016 and -0.6 <= slope <= -0.4,
        f"max rel err at 1e4: {worst_10k:.4f}, at 1e5: {worst_100k:.4f}, "
        f"slope {slope:.3f}",
    )


def test_criterion_6_metric_fidelity():
    ranking = ranked("q", ["a", "b"])
    swapped_judgments = RelevanceJudgments(grades={("q", "b"): 1})
    ndcg_ok = (
        ndcg_at_k(ranking, RelevanceJudgments(grades={("q", "a"): 1}), 2) == 1.0
        and abs(ndcg_at_k(ranking, swapped_judgments, 2) - 1.0 / math.log2(3)) < 1e-12
    )
    fairr_ok = (
        abs(fairr_at_k(ranked("q", ["a", "b", "c"], neutralities=[1.0, 0.5, 0.0]), 3)
            - 1.25) < 1e-12
    )
    q = make_query([3.0, 2.0, 1.0], neutralities=[0.0, 0.5, 1.0], doc_ids=["a", "b", "c"])
    nfairr_value = nfairr_at_k(ranking_of(q, ["a", "b", "c"]), 3)
    nfairr_ok = abs(nfairr_value - (0.25 + 1.0 / 3.0) / 1.25) < 1e-12

    a = {"q1": 1.0, "q2": 2.0, "q3": 3.0}
    b = {"q1": 0.0, "q2": 0.0, "q3": 0.0}
    ours = paired_t_test(a, b)
    _, p_ref = stats.ttest_rel([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    ttest_ok = abs(ours.p_value - float(p_ref)) < 1e-3 and abs(ours.p_value - 0.0742) < 1e-3
    check(
        "criterion 6: metric hand values and the t-test reference agree",
        ndcg_ok and fairr_ok and nfairr_ok and ttest_ok,
        f"p={ours.p_value:.5f}",
    )


def test_criterion_7_interval_analysis_shape():
    # certainty decays down the list: sigma grows with rank
    corpus = []
    rng = np.random.default_rng(207)
    for i in range(40):
        n = 30
        mus = [10.0 - 0.3 * r + float(rng.normal(0, 0.02)) for r in range(n)]
        sigmas = [0.15 + 0.06 * r for r in range(n)]
        corpus.append(make_query(mus, sigmas, query_id=f"q{i}"))
    text = report_interval_analysis(QueryStack(corpus), alphas=(1.0, 2.0))
    lines = text.strip().splitlines()
    assert lines[0] == "rank,median_swaps_alpha_1,median_swaps_alpha_2"
    narrow, wide = [], []
    for line in lines[1:]:
        _, one, two = line.split(",")
        narrow.append(int(one))
        wide.append(int(two))
    dominated = all(w >= n for n, w in zip(narrow, wide))
    top10_nonzero = all(v > 0 for v in narrow[:10])
    check(
        "criterion 7: wider intervals dominate and top-10 overlaps are nonzero",
        dominated and top10_nonzero,
        f"top-10 medians at alpha=1: {narrow[:10]}",
    )


def test_criterion_8_relative_runtime():
    corpus, judgments = generate_synthetic(
        SyntheticConfig(n_queries=12, n_candidates=50, bias_strength=2.0,
                        sigma_loc=0.5, seed=208)
    )
    pufr_record = run_sweep(
        corpus, judgments, SweepConfig(method="pufr", alpha_grid=(1.0,))
    ).records[0]
    constrained_record = run_sweep(
        corpus, judgments, SweepConfig(method="constrained", alpha_grid=(0.95,), depth=50)
    ).records[0]
    ratio = constrained_record.mean_rerank_seconds / max(
        pufr_record.mean_rerank_seconds, 1e-12
    )
    check(
        "criterion 8: constrained optimization is at least 4x slower per query",
        ratio >= 4.0,
        f"ratio={ratio:.1f} "
        f"(pufr {pufr_record.mean_rerank_seconds * 1e3:.3f} ms, "
        f"constrained {constrained_record.mean_rerank_seconds * 1e3:.3f} ms)",
    )


def informative_sigma_fixture(seed=209, n_queries=80, n_docs=30):
    """Corpus where sigma is informative by construction: non-protected
    docs get a score bump and a sigma proportional to that bump.

    Sigma thus carries the planted bump. A shift by ``alpha * sigma``
    removes the bump and restores utility, so PUFR's nDCG@10 rises up to
    alpha ~ 1 and then falls. Past the point where the bump is gone, both
    PUFR and the constant shift over-correct: they trade utility for
    fairness by moving whole groups, and sigma no longer tells them
    anything the constant shift lacks. Criterion 9 therefore checks only
    utilities at or above the unfair ranking's nDCG@10 (0.9066 at seed
    209)."""
    rng = np.random.default_rng(seed)
    corpus = []
    grades = {}
    for i in range(n_queries):
        query_id = f"q{i:03d}"
        latent = rng.normal(0.0, 1.0, n_docs)
        protected = rng.random(n_docs) < 0.5
        bump = np.where(protected, 0.0, np.abs(rng.normal(0.8, 0.4, n_docs)))
        mu = latent + bump
        sigma = np.where(
            protected, 0.05 + np.abs(rng.normal(0.0, 0.05, n_docs)), 0.05 + bump
        )
        neutrality = np.where(protected, 1.0, rng.random(n_docs) * 0.8)
        candidates = [
            ScoredCandidate(
                doc_id=f"{query_id}-d{j:02d}", mu=mu[j], sigma=sigma[j],
                neutrality=neutrality[j],
            )
            for j in range(n_docs)
        ]
        corpus.append(assign_groups(build_query(query_id, candidates)))
        for j in range(n_docs):
            if latent[j] > 0.8:
                grades[(query_id, f"{query_id}-d{j:02d}")] = 1
    return QueryStack(corpus), RelevanceJudgments(grades=grades)


def pufr_frontier(rows, x):
    """Largest nFaiRR@10 that PUFR reaches at nDCG@10 ``x`` or above.

    Candidates are the rows with nDCG@10 >= ``x`` and the linear
    interpolations at ``x`` between consecutive rows (in alpha order)
    whose nDCG@10 brackets ``x``. None when ``x`` lies above every row.
    """
    best = [r["nfairr10"] for r in rows if r["ndcg10"] >= x]
    for a, b in zip(rows, rows[1:]):
        lo, hi = sorted((a["ndcg10"], b["ndcg10"]))
        if lo <= x <= hi and lo < hi:
            t = (x - a["ndcg10"]) / (b["ndcg10"] - a["ndcg10"])
            best.append(a["nfairr10"] + t * (b["nfairr10"] - a["nfairr10"]))
    return max(best, default=None)


def test_criterion_9_tradeoff_dominance_over_uniform_ablation():
    """PUFR's trade-off frontier lies strictly above every uniform point
    whose nDCG@10 is at or above the unfair ranking's.

    PUFR's frontier at nDCG@10 x is the best nFaiRR@10 over its sweep rows
    with nDCG@10 >= x and the linear interpolations between consecutive
    rows that bracket x (``pufr_frontier``). A uniform row is matched with
    that frontier, not with rows in a fixed nDCG window: PUFR's nDCG curve
    is not monotone in alpha, so a window can credit a point on the rising
    branch and miss a better one just outside it.

    The range stops at the unfair ranking's nDCG@10 (the alpha = 0 row):
    below it both methods over-correct and sigma carries no more of the
    planted bump (see ``informative_sigma_fixture``). Uniform points below
    that utility which lie above PUFR's frontier are reported as
    ``crossover``, not checked; those below every PUFR row's nDCG@10 have
    no PUFR point to compare with and are listed apart.
    """
    corpus, judgments = informative_sigma_fixture()
    pufr_grid = tuple(round(0.25 * i, 2) for i in range(17))      # 0 .. 4
    uniform_grid = tuple(round(0.25 * i, 2) for i in range(13))   # 0 .. 3
    pufr_csv = records_to_csv(
        run_sweep(corpus, judgments, SweepConfig("pufr", pufr_grid)).records
    )
    uniform_csv = records_to_csv(
        run_sweep(corpus, judgments, SweepConfig("uniform", uniform_grid)).records
    )

    def rows(text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        out = []
        for line in lines[1:]:
            fields = dict(zip(header, line.split(",")))
            out.append(
                {
                    "alpha": float(fields["alpha"]),
                    "ndcg10": float(fields["ndcg_cut_10"]),
                    "nfairr10": float(fields["nfairr10"]),
                }
            )
        return out

    pufr_rows = rows(pufr_csv)
    uniform_rows = rows(uniform_csv)
    unfair_ndcg = next(p["ndcg10"] for p in pufr_rows if p["alpha"] == 0.0)
    lowest_pufr_ndcg = min(p["ndcg10"] for p in pufr_rows)
    matched = 0
    matched_nontrivial = 0
    margins = []
    violations = []
    crossover = []
    beyond_pufr_grid = []
    for u in uniform_rows:
        frontier = pufr_frontier(pufr_rows, u["ndcg10"])
        if u["ndcg10"] < lowest_pufr_ndcg:
            beyond_pufr_grid.append(u["alpha"])
            continue
        if u["ndcg10"] < unfair_ndcg:
            if u["nfairr10"] > frontier:
                crossover.append((u["alpha"], round(u["nfairr10"] - frontier, 4)))
            continue
        matched += 1
        if u["alpha"] >= 0.5:
            matched_nontrivial += 1
        margin = frontier - u["nfairr10"]
        margins.append((u["alpha"], round(margin, 4)))
        if not margin > 0.0:
            violations.append((u["alpha"], u["nfairr10"], frontier))
    check(
        "criterion 9: uncertainty-aware shifts dominate the uniform ablation "
        "at matched utility",
        matched >= 3 and matched_nontrivial >= 1 and not violations,
        f"unfair ndcg10={unfair_ndcg:.4f}, matched={matched} "
        f"(nontrivial={matched_nontrivial}), margins={margins}, "
        f"violations={violations}, crossover below unfair ndcg10={crossover}, "
        f"below PUFR's lowest ndcg10 (not compared)={beyond_pufr_grid}",
    )


def test_criterion_10_parser_round_trip(tmp_path):
    rng = np.random.default_rng(210)
    bad = 0
    for trial in range(50):
        cfg = SyntheticConfig(
            n_queries=int(rng.integers(1, 5)),
            n_candidates=int(rng.integers(2, 8)),
            protected_fraction=float(rng.random()),
            bias_strength=float(rng.random() * 2),
            seed=int(rng.integers(1 << 30)),
        )
        corpus, judgments = generate_synthetic(cfg)
        paths = {name: tmp_path / f"{name}_{trial}" for name in
                 ("run", "sigma", "neutrality", "qrels")}
        fileio.write_run_file(paths["run"], unfair_rank(corpus))
        fileio.write_sigma_file(paths["sigma"], corpus)
        fileio.write_neutrality_file(paths["neutrality"], corpus)
        fileio.write_qrels(paths["qrels"], judgments)
        first = {k: p.read_bytes() for k, p in paths.items()}

        parsed = fileio.parse_run_file(paths["run"])
        parsed = fileio.attach_sigmas(parsed, fileio.parse_sigma_file(paths["sigma"]))
        parsed = fileio.attach_neutrality(
            parsed, fileio.parse_neutrality_file(paths["neutrality"])
        )
        judgments_back = fileio.parse_qrels(paths["qrels"])
        fileio.write_run_file(paths["run"], unfair_rank(parsed))
        fileio.write_sigma_file(paths["sigma"], parsed)
        fileio.write_neutrality_file(paths["neutrality"], parsed)
        fileio.write_qrels(paths["qrels"], judgments_back)
        second = {k: p.read_bytes() for k, p in paths.items()}
        if first != second:
            bad += 1
    check(
        "criterion 10: write-parse-write is byte-identical for 50 fixtures",
        bad == 0,
        f"fixtures differing: {bad}",
    )
