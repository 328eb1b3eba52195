"""Property tests of the re-rankers and metrics over random queries, against
the scalar oracles in ``oracles.py``.

The strategies make exact ``mu`` ties, signed zeros, zero sigma, alpha 0
and -0.0, one-group and one-document queries common. Scores are compared
as ``float.hex`` so that 0.0 and -0.0 count as different. Corpora share
one query length or mix several, so that the stack forms of the re-rankers
meet padded rows, and queries shorter than the cutoff.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import Row, make_query, rows, score_column, score_map, sweep_key
from pufr.baselines import (
    ConstraintConfig,
    MTable,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    unfair_rank,
)
from pufr.core import (
    QueryCandidates,
    QueryStack,
    Ranking,
    ScoredCandidate,
    StackedRanking,
    assign_groups,
    build_query,
    rank_by_score,
)
from pufr.metrics import (
    RelevanceJudgments,
    fairr_at_k,
    ideal_fairr_at_k,
    intersection_counts,
    median_intersections,
    ndcg_at_k,
    nfairr_at_k,
)
from pufr.rerank import PufrConfig, adjust_scores, compute_sigma_mean, pufr_rerank, uniform_rerank
from pufr.sweep import SweepConfig, run_sweep
from pufr.baselines import DEFAULT_DEPTH, DEFAULT_EXACT_WINDOW
from pufr.rerank import _clamp, adjust_groups
from pufr.sweep import METHODS, REGISTRY

TIED_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5)
ALPHAS = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, 1.0, 3.0)),
    st.floats(0.0, 10.0, allow_nan=False),
)
EXAMPLES = settings(max_examples=300, deadline=None)


@st.composite
def inputs(draw, sigma=None, size=None):
    """Unordered candidate rows for one query: (doc_id, mu, sigma, neutrality),
    1-8 of them or ``size``."""
    doc_ids = draw(st.lists(
        st.text(alphabet="ab\x00", min_size=1, max_size=3),
        min_size=size or 1, max_size=size or 8, unique=True,
    ))
    mode = draw(st.sampled_from(("mixed", "protected", "non-protected")))
    neutrality = {
        "mixed": st.sampled_from((1.0, 0.0, 0.5)),
        "protected": st.just(1.0),
        "non-protected": st.sampled_from((0.0, 0.5, 0.99)),
    }[mode]
    mus = st.one_of(st.sampled_from(TIED_VALUES), st.floats(-1e3, 1e3, allow_nan=False))
    sigmas = (
        st.just(sigma) if sigma is not None
        else st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 10.0, allow_nan=False))
    )
    return [(d, draw(mus), draw(sigmas), draw(neutrality)) for d in doc_ids]


def query_of(items, with_sigma=True):
    return assign_groups(build_query("q", [
        ScoredCandidate(doc_id=d, mu=mu, sigma=s if with_sigma else None, neutrality=n)
        for d, mu, s, n in items
    ]))


def hexed_rows(query):
    return [(r.doc_id, r.mu.hex()) for r in rows(query)]


def hexed(ranking):
    """A ranking as (doc_id, score) entries, scores as ``float.hex``."""
    return oracles.hexed(zip(ranking.doc_ids(), ranking.scores.tolist()))


def group_sequences(ranking, query):
    protected = {r.doc_id: r.protected for r in rows(query)}
    ids = ranking.doc_ids()
    return [d for d in ids if protected[d]], [d for d in ids if not protected[d]]


@EXAMPLES
@given(inputs())
def test_build_query_order_matches_the_scalar_sort(items):
    query = query_of(items)
    expected = oracles.canonical_order([Row(d, mu, s, n, n >= 1.0) for d, mu, s, n in items])
    assert hexed_rows(query) == [(r.doc_id, r.mu.hex()) for r in expected]


@EXAMPLES
@given(inputs(), st.sampled_from(("canonical", "reversed", "shuffled")), st.data())
def test_ranked_matches_the_canonical_order_from_any_input_order(items, arrangement, data):
    # from the canonical order itself, ranked neither sorts by id nor gathers
    items = [(d, mu, s, n, None) for d, mu, s, n in items]
    if arrangement == "shuffled":
        items = data.draw(st.permutations(items))
    else:
        items = oracles.canonical_order([Row(*item) for item in items])
        items = items[::-1] if arrangement == "reversed" else items
    doc_ids, mus, sigmas, neutralities, _ = zip(*items)
    query = QueryCandidates.ranked("q", list(doc_ids), mus, sigmas, np.array(neutralities))
    expected = oracles.canonical_order([Row(*item) for item in items])
    assert [(r.doc_id, r.mu.hex(), r.sigma.hex(), r.neutrality.hex()) for r in rows(query)] == [
        (r.doc_id, r.mu.hex(), r.sigma.hex(), r.neutrality.hex()) for r in expected
    ]


@EXAMPLES
@given(inputs(), st.lists(st.sampled_from((math.nan, math.inf, -math.inf)), min_size=1,
                          max_size=3), st.data())
def test_ranked_names_the_first_non_finite_mu_in_rank_order(items, bad, data):
    # nan sorts after every number, ties by doc id, and the check names the
    # first candidate in that order whose mu is not finite
    items = [(d, mu if i >= len(bad) else bad[i]) for i, (d, mu, _, _) in enumerate(items)]
    items = data.draw(st.permutations(items))
    order = sorted(items, key=lambda item: (True, 0.0, item[0]) if math.isnan(item[1])
                   else (False, -item[1], item[0]))
    doc_id, mu = next(item for item in order if not math.isfinite(item[1]))
    doc_ids, mus = zip(*items)
    with pytest.raises(ValueError, match=re.escape(
        f"query 'q': candidate {doc_id!r}: mu must be finite, got {mu!r}"
    )):
        QueryCandidates.ranked("q", doc_ids, mus)


@EXAMPLES
@given(inputs(), ALPHAS, ALPHAS)
def test_adjust_scores_matches_the_scalar_loop_bit_for_bit(items, alpha_p, alpha_n):
    query = query_of(items)
    cfg = PufrConfig(alpha_protected=alpha_p, alpha_nonprotected=alpha_n)
    expected = oracles.adjust(rows(query), alpha_p, alpha_n)
    got = score_map(query, adjust_scores(query, cfg))
    assert {d: s.hex() for d, s in got.items()} == {d: s.hex() for d, s in expected.items()}


@EXAMPLES
@given(inputs(), ALPHAS)
def test_pufr_and_uniform_rankings_match_the_scalar_oracles(items, alpha):
    query = query_of(items)
    cfg = PufrConfig.symmetric(alpha)
    r = rows(query)
    expected = oracles.rank_by_score(r, oracles.adjust(r, alpha, alpha))
    assert hexed(pufr_rerank(query, cfg)) == oracles.hexed(expected)
    mean = compute_sigma_mean(QueryStack([query]))
    assert mean.hex() == oracles.sigma_mean([r]).hex()
    expected = oracles.rank_by_score(r, oracles.adjust(r, alpha, alpha, sigma=mean))
    assert hexed(uniform_rerank(query, mean, cfg)) == oracles.hexed(expected)


@EXAMPLES
@given(inputs(), st.data())
def test_rank_by_score_matches_the_scalar_sort(items, data):
    query = query_of(items)
    scores = {
        r.doc_id: data.draw(st.sampled_from(TIED_VALUES) | st.floats(-5.0, 5.0))
        for r in rows(query)
    }
    expected = oracles.rank_by_score(rows(query), scores)
    got = rank_by_score(query, score_column(query, scores))
    assert hexed(got) == oracles.hexed(expected)


@EXAMPLES
@given(inputs(), ALPHAS)
def test_no_swap_within_a_group(items, alpha):
    query = query_of(items)
    cfg = PufrConfig.symmetric(alpha)
    reference = group_sequences(unfair_rank(query), query)
    assert group_sequences(pufr_rerank(query, cfg), query) == reference
    assert group_sequences(uniform_rerank(query, 0.7, cfg), query) == reference


@EXAMPLES
@given(inputs(), st.sampled_from((0.0, -0.0)))
def test_alpha_zero_returns_the_input_order_and_means(items, zero):
    # Scores equal mu by value. Their zero signs follow IEEE addition and the
    # clamp's tie rule (a protected -0.0 + 0.0 is 0.0), which the oracle test
    # above checks bit for bit.
    query = query_of(items)
    ranking = pufr_rerank(query, PufrConfig.symmetric(zero))
    assert ranking.doc_ids() == tuple(r.doc_id for r in rows(query))
    assert ranking.scores.tolist() == [r.mu for r in rows(query)]


@EXAMPLES
@given(st.floats(0.0, 10.0, allow_nan=False).flatmap(
    lambda s: st.tuples(st.just(s), inputs(sigma=s))), ALPHAS, ALPHAS)
def test_uniform_equals_pufr_under_constant_sigma(sigma_and_items, alpha_p, alpha_n):
    sigma, items = sigma_and_items
    cfg = PufrConfig(alpha_protected=alpha_p, alpha_nonprotected=alpha_n)
    with_sigma = query_of(items)
    bare = query_of(items, with_sigma=False)
    assert hexed(uniform_rerank(bare, sigma, cfg)) == hexed(pufr_rerank(with_sigma, cfg))


@st.composite
def evaluated(draw):
    """A query, its ranking by one of the methods, judgments and a cutoff.

    Neutral pools are tied (with signed zeros), all zero or arbitrary, and
    the cutoff runs past the pool size."""
    pool = draw(st.sampled_from(("tied", "zero", "any")))
    neutrality = {
        "tied": st.sampled_from((0.0, -0.0, 0.5, 1.0)),
        "zero": st.sampled_from((0.0, -0.0)),
        "any": st.floats(0.0, 1.0),
    }[pool]
    items = [(d, mu, s, draw(neutrality)) for d, mu, s, _ in draw(inputs())]
    query = query_of(items)
    method = draw(st.sampled_from(METHODS))
    alpha = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
    depth = draw(st.integers(1, len(query) + 1))
    stack = QueryStack([query])
    ranked, _ = REGISTRY[method].prepare(stack, depth)(alpha)(stack)
    (ranking,) = ranked.rows()
    grades = {
        ("q", d): draw(st.integers(0, 3))
        for d in [*query.doc_ids, "unretrieved"] if draw(st.booleans())
    }
    return query, ranking, grades, draw(st.integers(1, len(query) + 3))


@EXAMPLES
@given(evaluated())
def test_metrics_match_the_scalar_oracles_bit_for_bit(case):
    query, ranking, grades, k = case
    neutrality = {r.doc_id: r.neutrality for r in rows(query)}
    ranked = ranking.doc_ids()
    assert fairr_at_k(ranking, k).hex() == oracles.fairr(ranked, neutrality, k).hex()
    assert ideal_fairr_at_k(query, k).hex() == oracles.ideal_fairr(
        neutrality.values(), k).hex()
    assert nfairr_at_k(ranking, k).hex() == oracles.nfairr(ranked, neutrality, k).hex()
    assert ndcg_at_k(ranking, RelevanceJudgments(grades), k).hex() == oracles.ndcg(
        "q", ranked, grades, k).hex()


def test_trailing_nul_breaks_a_tie_in_str_order():
    query = query_of([("a\x00", 1.0, 0.0, 1.0), ("a", 1.0, 0.0, 0.0), ("b", -0.0, 0.0, 1.0),
                      ("\x00", 0.0, 0.0, 0.0)])
    assert [r.doc_id for r in rows(query)] == ["a", "a\x00", "\x00", "b"]
    scores = {"a\x00": 1.0, "a": 1.0, "b": 0.0, "\x00": -0.0}
    ranking = rank_by_score(query, score_column(query, scores))
    assert hexed(ranking) == [
        ("a", "0x1.0000000000000p+0"), ("a\x00", "0x1.0000000000000p+0"),
        ("\x00", "-0x0.0p+0"), ("b", "0x0.0p+0"),
    ]


@EXAMPLES
@given(
    st.sampled_from((TIED_VALUES, (1.0, -1.0, 2.5))).flatmap(
        lambda tied: st.lists(st.sampled_from(tied), max_size=12)
    ) | st.lists(st.floats(-1e3, 1e3, allow_nan=False).filter(bool), max_size=12),
    st.booleans(),
)
def test_clamp_keeps_the_first_of_equal_values_bit_for_bit(values, lowest):
    # ±0.0 ties need the index path; zero-free inputs take numpy's accumulate
    # as it is. An appended 0.0 sends the same prefix through the index path.
    clamped = _clamp(np.array(values), lowest)
    assert [v.hex() for v in clamped.tolist()] == [
        v.hex() for v in oracles.running_best(values, lowest)
    ]
    via_index = _clamp(np.array([*values, 0.0]), lowest)[:-1]
    assert clamped.tobytes() == via_index.tobytes()


@st.composite
def corpora(draw, huge=False, any_neutrality=False):
    """Queries q0, q1, ... of 1-8 candidates each, half the time all of one
    length, some zero sigmas and neutralities made -0.0; with ``huge``, some
    ``mu`` and ``sigma`` near the float maximum, so that
    ``mu ± alpha * sigma`` can overflow; with ``any_neutrality``, some
    neutralities drawn from all of [0, 1]."""
    size = draw(st.one_of(st.none(), st.integers(1, 8)))
    corpus = []
    for i, items in enumerate(draw(st.lists(inputs(size=size), min_size=1, max_size=6))):
        rows_ = []
        for d, mu, s, n in items:
            s = -0.0 if s == 0.0 and draw(st.booleans()) else s
            if any_neutrality and draw(st.booleans()):
                n = draw(st.floats(0.0, 1.0))
            n = -0.0 if n == 0.0 and draw(st.booleans()) else n
            if huge:
                mu = draw(st.sampled_from((mu, 1.5e308, -1.5e308)))
                s = draw(st.sampled_from((s, 1e308)))
            rows_.append(ScoredCandidate(doc_id=d, mu=mu, sigma=s, neutrality=n))
        corpus.append(assign_groups(build_query(f"q{i}", rows_)))
    return corpus


def by_length(corpus):
    blocks = {}
    for query in corpus:
        blocks.setdefault(len(query), []).append(query)
    return blocks.values()


@EXAMPLES
@given(corpora(), ALPHAS, ALPHAS, st.booleans())
def test_stacked_groups_with_masked_places_adjust_each_row_bit_for_bit(
    corpus, alpha_p, alpha_n, uniform
):
    cfg = PufrConfig(alpha_protected=alpha_p, alpha_nonprotected=alpha_n)
    mean = compute_sigma_mean(QueryStack(corpus))
    for block in by_length(corpus):
        mu, sigma, protected = (np.stack([getattr(q, name) for q in block])
                                for name in ("mu", "sigma", "protected"))
        if uniform:
            sigma = np.full_like(mu, mean)
        raised, lowered = adjust_groups(
            np.where(protected, mu, np.inf), np.where(protected, sigma, 0.0),
            np.where(protected, -np.inf, mu)[:, ::-1], np.where(protected, 0.0, sigma)[:, ::-1],
            cfg,
        )
        stacked = np.where(protected, raised, lowered[:, ::-1])
        if uniform:
            expected = [uniform_rerank(q, mean, cfg) for q in block]
            expected = [r.scores[np.argsort(r.order)] for r in expected]
        else:
            expected = [adjust_scores(q, cfg) for q in block]
        assert stacked.tobytes() == np.stack(expected).tobytes()


@EXAMPLES
@given(st.lists(st.lists(st.sampled_from(TIED_VALUES) | st.floats(-1e3, 1e3), min_size=5,
                         max_size=5), min_size=1, max_size=4),
       st.booleans())
def test_clamp_along_the_last_axis_clamps_each_row(values, lowest):
    expected = np.stack([_clamp(np.array(row), lowest) for row in values])
    assert _clamp(np.array(values), lowest).tobytes() == expected.tobytes()


def reference_outcome(reference):
    """A reference as query id -> nFaiRR hex, or the text of its ValueError."""
    try:
        return {query_id: value.hex() for query_id, value in reference().items()}
    except ValueError as error:
        return str(error)


# mixed lengths: one doc, one group of each kind, all-zero sigma of both
# signs, and exact mu ties within and across groups
MIXED_LENGTHS = [
    make_query([1.0], [0.5], [1.0], query_id="one-doc"),
    make_query([2.0, 1.0, 0.5], [0.3, 0.1, 0.0], [1.0] * 3, query_id="protected-only"),
    make_query([1.0, 0.5, 0.2, 0.1, -0.0, 0.0], [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
               [1.0, 0.0, 1.0, 0.5, 0.0, 1.0], query_id="zero-sigma"),
    make_query([2.0, 1.0], [0.3, 0.2], [0.0, 0.5], query_id="others-only"),
    make_query([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -1.0], [0.5, 0.5, 0.25, 0.5, 0.0, 0.5, 0.5],
               [1.0, 0.0, 1.0, 0.0, 0.5, 1.0, 0.0], query_id="ties",
               doc_ids=["b", "a", "c", "d", "e", "f", "g"]),
]


def stacked_reference(corpus, alpha, k):
    """The sweep's PUFR reference: nFaiRR@k of the stack's PUFR ranking, by query id."""
    stack = QueryStack(corpus)
    values = nfairr_at_k(pufr_rerank(stack, PufrConfig.symmetric(alpha)), k)
    return dict(zip(stack.query_ids, values.tolist()))


@EXAMPLES
@example(MIXED_LENGTHS, 1.0, 3)
@example(MIXED_LENGTHS, 0.0, 10)
@example(MIXED_LENGTHS, -0.0, 1)
@example(MIXED_LENGTHS[::-1], 2.0, 2)
@example(MIXED_LENGTHS[:2], 0.5, 7)
@given(corpora(), ALPHAS, st.integers(1, 10))
def test_the_reference_is_pufr_then_nfairr_bit_for_bit(corpus, alpha, k):
    expected = {
        q.query_id: nfairr_at_k(pufr_rerank(q, PufrConfig.symmetric(alpha)), k).hex()
        for q in corpus
    }
    assert reference_outcome(lambda: stacked_reference(corpus, alpha, k)) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@EXAMPLES
@given(corpora(huge=True), st.sampled_from((0.0, 1.0, 2.0, 1e300)), st.integers(1, 10))
def test_an_overflowing_shift_raises_what_the_per_query_loop_raises(corpus, alpha, k):
    def per_query():
        cfg = PufrConfig.symmetric(alpha)
        return {q.query_id: nfairr_at_k(pufr_rerank(q, cfg), k) for q in corpus}

    expected = reference_outcome(per_query)
    assert reference_outcome(lambda: stacked_reference(corpus, alpha, k)) == expected


def hexes(values):
    return [value.hex() for value in values.tolist()]


def shifted(query, alpha, pad):
    """``mu + alpha * sigma`` of a query, or of a stack as padded rows with
    ``pad`` at the pads."""
    if isinstance(query, QueryStack):
        return query.padded(np.concatenate([shifted(q, alpha, pad) for q in query]), pad)
    return query.mu + alpha * query.sigma


# each stack form, called as f(query or stack, cfg, sigma mean, pad)
STACK_FORMS = {
    "adjust_scores": lambda query, cfg, mean, pad: adjust_scores(query, cfg),
    "pufr_rerank": lambda query, cfg, mean, pad: pufr_rerank(query, cfg),
    "uniform_rerank": lambda query, cfg, mean, pad: uniform_rerank(query, mean, cfg),
    "rank_by_score": lambda query, cfg, mean, pad: rank_by_score(
        query, shifted(query, cfg.alpha_protected, pad)),
    "unfair_rank": lambda query, cfg, mean, pad: unfair_rank(query),
    "fastar_rerank": lambda query, cfg, mean, pad: fastar_rerank(
        query, compute_m_table(8, min(cfg.alpha_protected, 1.0))),
}


def stacked_rows(stack, result):
    """A stack form's result as its per-query rows, hexed, after checking
    its pads: -inf scores and, in a ranking, the last ranks in place order."""
    rows = []
    for i, query in enumerate(stack):
        n = len(query)
        if isinstance(result, StackedRanking):
            assert result.order[i, n:].tolist() == list(range(n, stack.real.shape[1]))
            assert (result.scores[i, n:] == -np.inf).all()
            rows.append((result.order[i, :n].tolist(), hexes(result.scores[i, :n])))
        else:
            assert (result[i, n:] == -np.inf).all()
            rows.append(hexes(result[i, :n]))
    return rows


def per_query_row(result):
    if isinstance(result, Ranking):
        return result.order.tolist(), hexes(result.scores)
    return hexes(result)


def outcome(call):
    """What ``call`` returns, or the text of its ValueError."""
    try:
        return call()
    except ValueError as error:
        return str(error)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@EXAMPLES
@example(MIXED_LENGTHS, 1.0, 1.0, "pufr_rerank", 0.0)
@example(MIXED_LENGTHS, 0.0, 2.0, "uniform_rerank", 0.0)
@example(MIXED_LENGTHS, -0.0, 0.5, "adjust_scores", 0.0)
@example(MIXED_LENGTHS[::-1], 0.5, 0.0, "rank_by_score", math.nan)
@example(MIXED_LENGTHS, 0.0, 0.0, "unfair_rank", 0.0)
@example(MIXED_LENGTHS, 0.5, 0.0, "fastar_rerank", 0.0)
@given(st.one_of(corpora(), corpora(huge=True)), ALPHAS, ALPHAS,
       st.sampled_from(tuple(STACK_FORMS)),
       st.sampled_from((0.0, -0.0, 1e308, math.inf, -math.inf, math.nan)))
def test_a_rows_bits_depend_on_neither_the_other_rows_nor_the_pads(
    corpus, alpha_p, alpha_n, form, pad
):
    # A query is a one-row stack, so its call gives that stack's row. In a
    # padded stack of several queries each row gives the same bits: pads are
    # non-protected places at mu = -inf with sigma 0, and the scores given
    # for them, even when not finite, neither rank them nor raise.
    cfg = PufrConfig(alpha_protected=alpha_p, alpha_nonprotected=alpha_n)
    mean = compute_sigma_mean(QueryStack(corpus))  # inf when huge: every form then raises
    call = STACK_FORMS[form]
    one_row = outcome(lambda: [
        stacked_rows(stack, call(stack, cfg, mean, pad))[0]
        for stack in (QueryStack([q]) for q in corpus)
    ])
    assert outcome(lambda: [per_query_row(call(q, cfg, mean, pad)) for q in corpus]) == one_row
    stack = QueryStack(corpus)
    assert outcome(lambda: stacked_rows(stack, call(stack, cfg, mean, pad))) == one_row


@EXAMPLES
@example(MIXED_LENGTHS, 1.0, [[9.0] * 7] * 5)
@given(corpora(), ALPHAS, st.lists(st.lists(st.sampled_from(TIED_VALUES) | st.floats(-5, 5),
                                            min_size=8, max_size=8), min_size=6, max_size=6))
def test_each_stack_form_matches_its_scalar_oracle_row_by_row(corpus, alpha, scores):
    stack = QueryStack(corpus)
    cfg = PufrConfig.symmetric(alpha)
    mean = compute_sigma_mean(QueryStack(corpus))
    scores = np.array([row[:stack.real.shape[1]] for row in scores[:len(corpus)]])
    adjusted = adjust_scores(stack, cfg)
    # each ranker's stacked ranking, and its scores of row i for the oracle
    rankers = {
        "pufr": (pufr_rerank(stack, cfg), lambda i, r: oracles.adjust(r, alpha, alpha)),
        "uniform": (uniform_rerank(stack, mean, cfg),
                    lambda i, r: oracles.adjust(r, alpha, alpha, sigma=mean)),
        "unfair": (unfair_rank(stack), lambda i, r: {row.doc_id: row.mu for row in r}),
        "scores": (rank_by_score(stack, scores),
                   lambda i, r: dict(zip((row.doc_id for row in r), scores[i].tolist()))),
    }
    for i, query in enumerate(corpus):
        r = rows(query)
        want = oracles.adjust(r, alpha, alpha)
        assert hexes(adjusted[i, :len(query)]) == [want[d].hex() for d in query.doc_ids]
        for name, (ranked, oracle_scores) in rankers.items():
            assert hexed(ranked.rows()[i]) == oracles.hexed(
                oracles.rank_by_score(r, oracle_scores(i, r))), name


@st.composite
def judged_corpora(draw):
    """A corpus and judgments of it: per query none, some of its candidates,
    or its candidates and more unretrieved docs than it has candidates, so
    that some queries have more judged grades than candidates; the grades
    are all 0 (the ideal DCG is 0) or 0-3."""
    corpus = draw(corpora(any_neutrality=True))
    grades = {}
    for query in corpus:
        mode = draw(st.sampled_from(("none", "some", "more")))
        grade = draw(st.sampled_from((st.just(0), st.integers(0, 3))))
        judged = [d for d in query.doc_ids if mode == "more" or draw(st.booleans())]
        if mode == "more":
            judged += [f"unretrieved{j}" for j in range(len(query) + draw(st.integers(1, 4)))]
        for doc in judged if mode != "none" else ():
            grades[(query.query_id, doc)] = draw(grade)
    return corpus, grades


@EXAMPLES
@example((MIXED_LENGTHS, {("zero-sigma", d): 1 for d in ("a", "b", "c", "d", "e", "f", "g")}
          | {("ties", "b"): 2, ("one-doc", "d1"): 0}), 1.0, (1, 3, 10))
@given(judged_corpora(), ALPHAS, st.lists(st.integers(1, 20), min_size=1, max_size=3))
def test_the_padded_ideal_dcg_and_the_stacked_metrics_match_the_scalar_oracles(
    case, alpha, cutoffs
):
    corpus, grades = case
    judgments = RelevanceJudgments(grades)
    ranked = pufr_rerank(QueryStack(corpus), PufrConfig.symmetric(alpha))
    rankings = ranked.rows()
    neutrality = [dict(zip(q.doc_ids, q.neutrality.tolist())) for q in corpus]
    for k in cutoffs:  # every cutoff reads the sums the first one kept
        expected = [oracles.ndcg(r.query_id, r.doc_ids(), grades, k).hex() for r in rankings]
        assert hexes(ndcg_at_k(ranked, judgments, k)) == expected
        assert [ndcg_at_k(r, judgments, k).hex() for r in rankings] == expected
        for metric, oracle in ((fairr_at_k, oracles.fairr), (nfairr_at_k, oracles.nfairr)):
            assert hexes(metric(ranked, k)) == [
                oracle(r.doc_ids(), n, k).hex() for r, n in zip(rankings, neutrality)]


def test_a_stack_ranked_again_with_another_sigma_mean_gives_its_bits():
    # -0.0 + 0.0 is 0.0 but -0.0 + -0.0 is -0.0: the stack's memo of masked
    # rows must not hand one sigma mean's rows to the other
    query = make_query([-0.0, -1.0], [0.0, 0.0], [1.0, 0.0])
    stack = QueryStack([query])
    cfg = PufrConfig.symmetric(1.0)
    for mean in (0.0, -0.0, 0.5, 0.0):
        assert hexes(uniform_rerank(stack, mean, cfg).scores[0]) == hexes(
            uniform_rerank(query, mean, cfg).scores)


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sampled_from(METHODS), st.data())
def test_the_sweep_gives_the_per_query_sweeps_records(corpus, method, data):
    judgments = RelevanceJudgments({
        (q.query_id, doc): data.draw(st.integers(0, 3))
        for q in corpus for doc in q.doc_ids if data.draw(st.booleans())
    })
    grid = data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=1, max_size=3))
    cfg = SweepConfig(method, tuple(sorted(set(grid))), cutoffs_utility=(1, 3, 10),
                      cutoffs_fairness=(2, 5), depth=data.draw(st.integers(1, 8)))
    assert sweep_key(run_sweep(QueryStack(corpus), judgments, cfg)) == sweep_key(
        oracles.run_sweep_per_query(corpus, judgments, cfg))


@st.composite
def constrained_windows(draw):
    """A query and a constraint on it. ``mu`` and neutrality are each
    continuous, rounded or drawn from three values; or every ``mu`` is one
    value. Windows hold one document, at most ``DEFAULT_EXACT_WINDOW``
    (the gap search runs) or more."""
    n = draw(st.one_of(
        st.just(1),
        st.integers(2, DEFAULT_EXACT_WINDOW),
        st.integers(DEFAULT_EXACT_WINDOW + 1, 24),
    ))
    continuous = st.floats(-10.0, 10.0, allow_nan=False)
    mu = draw(st.sampled_from((
        continuous,
        continuous.map(lambda v: round(v, 1)),
        st.sampled_from((0.0, 1.0, 2.0)),
        st.just(draw(continuous)),
    )))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    neutrality = draw(st.sampled_from((
        unit, unit.map(lambda v: round(v, 1)), st.sampled_from((0.0, 0.5, 1.0)),
    )))
    query = make_query(
        draw(st.lists(mu, min_size=n, max_size=n)),
        neutralities=draw(st.lists(neutrality, min_size=n, max_size=n)),
    )
    depth = draw(st.sampled_from((n, DEFAULT_DEPTH)) | st.integers(1, n))
    alpha = draw(st.sampled_from((0.5, 0.9, 0.95, 1.0)) | unit)
    return query, ConstraintConfig(alpha_fairness=alpha, depth=depth)


def window_measures(result, depth):
    """The window's utility and fairness as the solver defines them."""
    query = result.ranking.query
    window = result.ranking.order[:depth]
    gains = query.mu - min(query.mu[:depth].tolist())
    positions = np.arange(depth)
    utility = float(np.sum(gains[window] / np.log2(positions + 2)))
    fairness = float(np.sum(query.column("neutrality")[window] / (positions + 1)))
    return utility, fairness


@EXAMPLES
@given(constrained_windows())
# near-equal gains put a hull vertex 1e-13 (relative) above the line through
# the bracket's orders: a relative stop tolerance of 1e-12 misses it
@example((
    make_query(
        [2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, -4.18585475e-09, -3],
        neutralities=[0.5, 0, 0, 0, 0, 0.125, 0, 0, 0, 0, 0, 1, 0],
        doc_ids=["d7", "d12", "d8", "d9", "d1", "d10", "d2", "d3", "d4", "d5", "d6", "d11", "d13"],
    ),
    ConstraintConfig(alpha_fairness=0.5, depth=13),
))
def test_the_crossing_search_keeps_what_the_bisection_found(case):
    query, cfg = case
    depth = min(cfg.depth, len(query))
    result = constrained_rerank(query, cfg)
    reference = oracles.constrained_rerank_bisection(query, cfg)
    assert result.feasible == reference.feasible
    if not result.feasible:
        assert math.isnan(result.gap)
        return
    utility, fairness = window_measures(result, depth)
    assert fairness >= result.floor - 1e-9
    # The Lagrangian bound holds for every order the solver counts as
    # feasible, those within the feasibility tolerance below the floor too.
    # It is lam * (floor - tolerance) below the certificate's benefit total,
    # so it rounds at the scale of lam.
    assert result.gap >= -1e-12 * max(1.0, result.steps[-1].lam)
    if result.exhausted or reference.exhausted:
        return
    ref_utility, ref_fairness = window_measures(reference, depth)
    assert utility >= ref_utility - 1e-12
    if result.ranking.order[:depth].tolist() != reference.ranking.order[:depth].tolist():
        # another order is only allowed as a co-optimum of the oracle's
        assert utility == pytest.approx(ref_utility, rel=1e-12, abs=1e-12)
        assert fairness == pytest.approx(ref_fairness, rel=1e-12, abs=1e-12)


@st.composite
def quota_tables(draw, unit_steps=False):
    """A quota table for prefixes 1..L, L from 1 to 9 (so it may not cover
    every query of a corpus): ``compute_m_table`` at some p, or any table
    that does not decrease, whose quota may jump by more than one (by at
    most one with ``unit_steps``), capped at k for the top k."""
    length = draw(st.integers(1, 9))
    if draw(st.booleans()):
        p = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)) | st.floats(0.0, 1.0))
        return compute_m_table(length, p, draw(st.sampled_from((0.05, 0.1, 0.5))))
    jumps = draw(st.lists(st.integers(0, 1 if unit_steps else 3),
                          min_size=length, max_size=length))
    required = np.minimum(np.cumsum(jumps), np.arange(1, length + 1))
    return MTable(p=0.5, significance=0.1, required=tuple(required.tolist()))


@EXAMPLES
@example(MIXED_LENGTHS, MTable(0.5, 0.1, (0, 2, 2, 3, 3, 5, 5)))
@example(MIXED_LENGTHS, MTable(1.0, 0.1, tuple(range(1, 8))))
@example(MIXED_LENGTHS, MTable(0.0, 0.1, (0,) * 6))
@given(corpora(), quota_tables())
def test_the_stacked_quota_merge_is_the_greedy_merge(corpus, table):
    expected = outcome(lambda: [per_query_row(oracles.fastar_greedy(q, table)) for q in corpus])
    assert outcome(lambda: [per_query_row(fastar_rerank(q, table)) for q in corpus]) == expected
    stack = QueryStack(corpus)
    assert outcome(lambda: stacked_rows(stack, fastar_rerank(stack, table))) == expected


@EXAMPLES
@given(corpora(), quota_tables(unit_steps=True))
def test_every_prefix_meets_its_quota_while_protected_docs_remain(corpus, table):
    corpus = [q for q in corpus if len(q) <= len(table.required)] or [make_query([0.0], [0.0])]
    ranked = fastar_rerank(QueryStack(corpus), table)
    for ranking in ranked.rows():
        protected = ranking.query.protected
        held = np.cumsum(protected[ranking.order])
        quota = np.minimum(table.required[:len(held)], np.count_nonzero(protected))
        assert (held >= quota).all()


INTERVAL_ALPHAS = st.sampled_from((0.25, 1.0, 2.0, 10.0)) | st.floats(1e-3, 10.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@EXAMPLES
@example(MIXED_LENGTHS, 1.0)
@given(st.one_of(corpora(), corpora(huge=True)), INTERVAL_ALPHAS)
def test_stacked_overlap_counts_and_medians_are_the_per_query_ones(corpus, alpha):
    expected = [oracles.intersection_counts(q, alpha) for q in corpus]
    assert [intersection_counts(q, alpha) for q in corpus] == expected
    stack = QueryStack(corpus)
    rows_ = intersection_counts(stack, alpha)
    assert [rows_[i, :len(q)].tolist() for i, q in enumerate(corpus)] == expected
    assert (rows_[~stack.real] == 0).all()
    assert median_intersections(stack, alpha) == oracles.median_intersections(corpus, alpha)


@EXAMPLES
@example(MIXED_LENGTHS, (1, 3, 10))
@given(corpora(any_neutrality=True), st.lists(st.integers(1, 10), min_size=1, max_size=3))
def test_stacked_ideal_fairr_has_the_per_query_bits(corpus, cutoffs):
    stack = QueryStack(corpus)
    for k in cutoffs:  # every cutoff reads the sums the first one kept
        expected = [oracles.ideal_fairr(q.neutrality.tolist(), k).hex() for q in corpus]
        assert [ideal_fairr_at_k(q, k).hex() for q in corpus] == expected
        assert hexes(ideal_fairr_at_k(stack, k)) == expected
