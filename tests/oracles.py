"""Scalar reference implementations of the columnar ranking code.

These are the per-candidate loops the library used before queries and
rankings became columnar. They work on plain rows (see ``conftest.rows``),
doc ids, dicts keyed by doc id and Python floats, so their results are the
bit-exact reference: Python's ``min`` and ``max`` keep the earlier of two
equal values, sums run left to right from 0.0 in explicit loops (the
builtin ``sum()`` of floats is compensated since Python 3.12), and doc ids
compare in ``str`` order.

The file parsers at the end are the line-by-line parsers the library used
before it read the run, sigma and neutrality files column by column, and
the feature file block by block: one ``int()`` or ``float()`` and one check
per line or per value, so an error names the first bad ``path:line`` in
file order.

The per-query run parser is the one the library used before it checked
the rank column and the original-rank order once over the whole file: the
same column reader, then one rank sort and one query built per query. Both
run parsers here sort a query with ``ranked_in_two_passes``: its columns
converted and put in original-rank order here, by a sort of their own, then
handed in that order to ``QueryStack.ranked``, which converts nothing and
checks them again.

The per-query sweep is ``run_sweep`` as it was before it ranked and
evaluated each alpha's stack in one pass: every query re-ranked by its own
call, one ``ndcg_at_k`` and one ``nfairr_at_k`` call per ranking and
cutoff, and a t-test reference re-ranked and evaluated query by query.

The analytic predictive is the exact closed form of the linear-Gaussian
case, one document at a time: one dot product ``theta @ h`` and one sum of
``h**2 / fisher``. The library has no analytic path yet; the Monte Carlo
moments are checked to converge to this one.

The Monte Carlo moments are those of the Laplace scorer before it scored a
query's feature matrix in blocks: one matrix-vector product of all samples
per document. Its bits depend on the BLAS thread count once the product is
large enough to be split across threads (1,001 samples at d = 768), so a
test that needs them exactly computes them with one thread.

The batched moments are those of the Laplace scorer before it scored each
sample block against every document in one call: the same blocks, one
matrix-vector product per document and block.

The line check is the one the column reader used before it summed each
line's field starts from the line's first byte: every field start found,
then counted before each newline by a search.

The file writers at the end are those the library used before it built each
query's text in one join: one f-string per line.

The t-test p-value is the formula the library used before it called
``scipy.special.stdtr`` directly, through ``scipy.stats``.

The quota table is the binomial recurrence the library used before it
summed the pmf in logarithms where the recurrence's first term underflows.
The quota re-ranker is the greedy merge of the two group queues, one
output position at a time, that the library ran query by query before it
merged a whole stack in closed form.

The interval overlaps compare every pair of closed intervals of a query,
and their medians sort each rank's counts across the queries deep enough
to reach it, as the library did query by query and rank by rank before it
counted and sorted a stack in one pass.

The constrained re-ranker is the one the library used before it searched
for the Lagrangian breakpoint where the bracketing orders' lines cross: 64
midpoint steps of lambda over [0, 1e6*max_gain], one assignment each. It
keeps the solver's feasibility rule, fairness at least ``floor -
_FEASIBILITY_TOL``, in its steps, its bound and its gap search.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import stats

from pufr import baselines, fileio, uncertainty
from pufr.baselines import BisectionStep, ConstrainedResult, ConstraintConfig, unfair_rank
from pufr.core import QueryStack, StackedRanking, _read_only
from pufr.metrics import ndcg_at_k, nfairr_at_k, paired_t_test
from pufr.rerank import PufrConfig, compute_sigma_mean, pufr_rerank, uniform_rerank
from pufr.sweep import SweepResult, TradeoffRecord


def canonical_order(rows):
    """Original-rank order: ``mu`` descending, exact ties by doc id."""
    return sorted(rows, key=lambda r: (-r.mu, r.doc_id))


def adjust(rows, alpha_protected, alpha_nonprotected, sigma=None):
    """Clamped score adjustment of rows given in original-rank order; every
    sigma is taken as ``sigma`` unless that is None. Returns doc id -> score."""
    by_mu_desc = sorted(range(len(rows)), key=lambda i: (-rows[i].mu, i))
    adjusted = {}
    running_min = math.inf
    for i in by_mu_desc:
        r = rows[i]
        if r.protected:
            raw = r.mu + alpha_protected * (r.sigma if sigma is None else sigma)
            running_min = min(running_min, raw)
            adjusted[r.doc_id] = running_min
    running_max = -math.inf
    for i in reversed(by_mu_desc):
        r = rows[i]
        if not r.protected:
            raw = r.mu - alpha_nonprotected * (r.sigma if sigma is None else sigma)
            running_max = max(running_max, raw)
            adjusted[r.doc_id] = running_max
    return adjusted


def rank_by_score(rows, scores):
    """(doc_id, score) entries by score descending, ties by original rank."""
    order = sorted(range(len(rows)), key=lambda i: (-scores[rows[i].doc_id], i))
    return [(rows[i].doc_id, float(scores[rows[i].doc_id])) for i in order]


def sigma_mean(corpus_rows):
    """Mean sigma over every (query, candidate) pair, summed left to right."""
    total = 0.0
    count = 0
    for rows in corpus_rows:
        for r in rows:
            total += r.sigma
            count += 1
    return total / count


def hexed(entries):
    """Entries with scores as ``float.hex``, so that 0.0 and -0.0 differ."""
    return [(doc_id, float(score).hex()) for doc_id, score in entries]


def fairr(ranked_doc_ids, neutrality, k):
    """FaiRR@k from a doc id -> neutrality dict: sum of n_d / rank, left to right."""
    total = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        if doc_id not in neutrality:
            raise ValueError(f"no neutrality score for ranked doc {doc_id!r}")
        total += neutrality[doc_id] / rank
    return total


def ideal_fairr(neutralities, k):
    """FaiRR@k of the pool's neutralities taken largest first, left to right."""
    total = 0.0
    for rank, value in enumerate(sorted(neutralities, reverse=True)[:k], start=1):
        total += value / rank
    return total


def nfairr(ranked_doc_ids, neutrality, k):
    """FaiRR@k over the pool's ideal; 1 when the ideal is 0."""
    ideal = ideal_fairr(neutrality.values(), k)
    return 1.0 if ideal == 0.0 else fairr(ranked_doc_ids, neutrality, k) / ideal


def ndcg(query_id, ranked_doc_ids, grades, k):
    """nDCG@k straight from a (query, doc) -> grade dict, the ideal taken
    from a full scan of the dict."""
    dcg = 0.0
    for position, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        dcg += grades.get((query_id, doc_id), 0) / math.log2(position + 1)
    ideal = sorted((g for (qid, _), g in grades.items() if qid == query_id), reverse=True)
    idcg = 0.0
    for position, g in enumerate(ideal[:k], start=1):
        idcg += g / math.log2(position + 1)
    return 0.0 if idcg == 0.0 else dcg / idcg


def running_best(values, lowest):
    """Running minimum (``lowest``) or maximum by Python's min and max, which
    keep the earlier of two equal values."""
    out = []
    for value in values:
        out.append(value if not out else (min if lowest else max)(out[-1], value))
    return out


def m_table_required(k_max, p, significance):
    """The FA*IR quota table by the binomial pmf recurrence alone, started at
    ``(1 - p) ** k`` for every prefix length k. Once that first term is no
    normal float the recurrence runs from a rounded or zero pmf, and from
    k = 1,075 at p = 0.5 it asks for every document to be protected."""
    required = []
    for k in range(1, k_max + 1):
        if p == 1.0:
            required.append(k)
            continue
        pmf = (1.0 - p) ** k
        cdf = pmf
        m = 0
        while cdf < significance and m < k:
            pmf *= (p / (1.0 - p)) * (k - m) / (m + 1)
            cdf += pmf
            m += 1
        required.append(m)
    return tuple(required)


def fastar_greedy(query, table):
    """``baselines.fastar_rerank`` of one query as the greedy merge: at each
    position the protected head goes first when the prefix is short of its
    quota or its ``mu`` is at least the other head's; once either queue is
    empty the other is drained. Scores are n..1 down the ranking."""
    required, n = table.required, len(query.doc_ids)
    if len(required) < n:
        raise ValueError(
            f"quota table covers prefixes up to {len(required)} but query "
            f"{query.query_ids[0]!r} has {n} candidates"
        )
    protected = query.flat("protected").tolist()
    protected_queue = [i for i in range(n) if protected[i]]
    other_queue = [i for i in range(n) if not protected[i]]
    mu = query.flat("mu").tolist()
    out = []
    p_idx = o_idx = 0
    while p_idx < len(protected_queue) and o_idx < len(other_queue):
        p, o = protected_queue[p_idx], other_queue[o_idx]
        if p_idx < required[len(out)] or mu[p] >= mu[o]:
            out.append(p)
            p_idx += 1
        else:
            out.append(o)
            o_idx += 1
    out.extend(protected_queue[p_idx:])
    out.extend(other_queue[o_idx:])
    return StackedRanking(query, np.array([out], dtype=np.intp),
                          np.arange(len(out), 0, -1, dtype=np.float64)[None])


def intersection_counts(query, alpha):
    """O(n^2) interval overlaps: compare every pair of closed intervals
    [mu - alpha*sigma, mu + alpha*sigma], in original-rank order."""
    bounds = [(mu - alpha * sigma, mu + alpha * sigma)
              for mu, sigma in zip(query.flat("mu").tolist(), query.flat("sigma").tolist())]
    counts = []
    for i, (lo_i, hi_i) in enumerate(bounds):
        counts.append(sum(
            1
            for j, (lo_j, hi_j) in enumerate(bounds)
            if j != i and max(lo_i, lo_j) <= min(hi_i, hi_j)
        ))
    return counts


def median_intersections(corpus, alpha):
    """Per rank, the lower-mid of the overlap counts of the queries that
    reach it, sorted rank by rank."""
    per_query = [intersection_counts(query, alpha) for query in corpus]
    medians = []
    for rank_idx in range(max(len(counts) for counts in per_query)):
        values = sorted(counts[rank_idx] for counts in per_query if len(counts) > rank_idx)
        medians.append(values[(len(values) - 1) // 2])
    return medians


def constrained_rerank_bisection(query, cfg):
    """``baselines.constrained_rerank`` by 64 bisection steps of lambda. The
    certificate is the last feasible step's, so ``gap`` is measured there."""
    n = len(query.doc_ids)
    depth = min(cfg.depth, n)
    neut_vec = query.flat("neutrality")[:depth]
    mu = query.flat("mu")[:depth]
    gain_vec = mu - min(mu.tolist())
    positions = np.arange(depth)
    discounts = 1.0 / np.log2(positions + 2)
    exposures = 1.0 / (positions + 1)
    floor = cfg.alpha_fairness * baselines.ideal_fairr_at_k(query, depth).item()
    lowest = floor - baselines._FEASIBILITY_TOL  # the least fairness that counts as feasible

    def utility_of(order):
        return baselines._window_utility(gain_vec, order, discounts)

    def fairness_of(order):
        return baselines._window_fairness(neut_vec, order, exposures)

    def finish(order, feasible, steps, gap, nodes=0, exhausted=False):
        full_order = np.concatenate((order, np.arange(depth, n)))
        return ConstrainedResult(
            ranking=baselines._positional_ranking(query, full_order), feasible=feasible,
            floor=floor, steps=tuple(steps), gap=gap, nodes=nodes, exhausted=exhausted,
        )

    gain_order = np.argsort(-gain_vec, kind="stable")
    f0 = fairness_of(gain_order)
    steps = [BisectionStep(lam=0.0, fairness=f0, utility=utility_of(gain_order),
                           feasible=f0 >= lowest)]
    if steps[0].feasible:
        return finish(gain_order, True, steps, 0.0)

    max_gain = float(gain_vec.max())
    lam_max = 1e6 * (max_gain if max_gain > 0.0 else 1.0)
    gain_part = np.outer(gain_vec, discounts)
    fair_part = np.outer(neut_vec, exposures)

    def solve(lam):
        benefit = gain_part + lam * fair_part
        assigned = baselines.hungarian_assign(benefit)
        return np.argsort(assigned), float(benefit[np.arange(depth), assigned].sum())

    order_hi, total_hi = solve(lam_max)
    f_hi, u_hi = fairness_of(order_hi), utility_of(order_hi)
    steps.append(BisectionStep(lam=lam_max, fairness=f_hi, utility=u_hi,
                               feasible=f_hi >= lowest))
    if not steps[-1].feasible:
        fairest = np.argsort(-neut_vec, kind="stable")
        if fairness_of(fairest) < lowest:
            return finish(order_hi, False, steps, math.nan)
        return finish(fairest, True, steps, total_hi - lam_max * lowest - utility_of(fairest))

    best_u, best_order = u_hi, order_hi
    cert_lam, cert_total = lam_max, total_hi
    lo, hi = 0.0, lam_max
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        order, total = solve(mid)
        fairness, utility = fairness_of(order), utility_of(order)
        feasible = fairness >= lowest
        steps.append(BisectionStep(lam=mid, fairness=fairness, utility=utility, feasible=feasible))
        if feasible:
            hi = mid
            cert_lam, cert_total = mid, total
            if utility > best_u:
                best_u, best_order = utility, order
        else:
            lo = mid

    bound = cert_total - cert_lam * lowest
    nodes, exhausted = 0, False
    if depth <= baselines.DEFAULT_EXACT_WINDOW and bound > best_u + 1e-12:
        best_order, nodes, exhausted = baselines._close_gap(
            gain_part, fair_part, neut_vec, exposures, lowest, cert_lam, best_u, best_order
        )
    gap = 0.0 if nodes and not exhausted else bound - utility_of(best_order)
    return finish(best_order, True, steps, gap, nodes, exhausted)


def t_test_p_value(t, df):
    """Two-tailed p-value of a t statistic with ``df`` degrees of freedom."""
    return 2.0 * float(stats.t.sf(abs(t), df))


def predictive_moments(samples, feature):
    """Monte Carlo predictive mean and population standard deviation of one
    document's linear score, with ``mu**2`` taken on a Python float."""
    scores = samples @ feature
    mu = float(np.mean(scores))
    var = float(np.mean(scores**2) - mu**2)
    return mu, float(np.sqrt(max(var, 0.0)))


def predictive_columns(samples, features):
    """``predictive_moments`` of each row of ``features``, as (mu, sigma) columns."""
    mu, sigma = zip(*(predictive_moments(samples, h) for h in features))
    return np.array(mu), np.array(sigma)


def analytic_predictive(posterior, h):
    """The exact predictive (mu, sigma) of one feature vector ``h`` in the
    linear-Gaussian case, as floats: mu = theta.h and var = sum_j h_j^2 /
    fisher_j, which the Monte Carlo moments converge to."""
    h = np.asarray(h, dtype=float)
    return float(posterior.theta_map @ h), float(np.sqrt(np.sum(h**2 / posterior.fisher_diag)))


def predictive_moments_per_doc(samples, features):
    """The blocked (mu, sigma) columns, each block scored document by document."""
    scores = np.empty((features.shape[0], samples.shape[0]))
    bounds = [*range(0, samples.shape[0] - 1, uncertainty._BLOCK_ROWS), samples.shape[0]]
    for a, b in zip(bounds, bounds[1:]):
        for h, out in zip(features, scores[:, a:b]):
            np.matmul(samples[a:b], h, out=out)
    mu = scores.mean(axis=1)
    var = (scores**2).mean(axis=1) - [m**2 for m in mu.tolist()]
    return mu, np.sqrt(np.maximum(var, 0.0))


def lines_hold(codes, newlines, width):
    """Whether every line of a block of ASCII bytes, whose only whitespace is
    space, tab and newline, holds no field or ``width`` fields."""
    space = np.empty(len(codes) + 1, dtype=bool)
    space[0] = True
    np.less_equal(codes, 32, out=space[1:])
    starts = np.flatnonzero(space[:-1] > space[1:])
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0, append=len(starts))
    return bool(((per_line == 0) | (per_line == width)).all())


def data_lines(path):
    """(line number, fields) of each line that is neither blank nor a comment."""
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def parse_float(path, lineno, token, what):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got {token!r}")
    return value


def ranked_in_two_passes(query_id, doc_ids, mu, sigma=None, neutrality=None):
    """A query sorted into original-rank order, as a one-row stack: its
    columns converted and ordered here, then checked by ``QueryStack.ranked``."""
    n = len(doc_ids)
    mu, sigma, neutrality = (
        None if values is None else _read_only(values, np.float64, n, name, f"query {query_id!r}")
        for name, values in (("mu", mu), ("sigma", sigma), ("neutrality", neutrality))
    )
    order = np.argsort(-mu, kind="stable")
    descending = mu[order]
    if not (descending[1:] < descending[:-1]).all():
        by_id = np.array(sorted(range(n), key=doc_ids.__getitem__), dtype=np.intp)
        order = by_id[np.argsort(-mu[by_id], kind="stable")]
    if not (order[1:] > order[:-1]).all():
        doc_ids = tuple(map(doc_ids.__getitem__, order.tolist()))
        mu, sigma, neutrality = (
            None if column is None else column[order] for column in (mu, sigma, neutrality)
        )
    return QueryStack.ranked((query_id,), (n,), doc_ids,
                             {"mu": mu, "sigma": sigma, "neutrality": neutrality})


def parse_run_file(path):
    """Per-query candidates, queries in order of first appearance."""
    rows = {}
    seen = set()
    for lineno, fields in data_lines(path):
        if len(fields) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        query_id, _, doc_id, rank_token, score_token, _ = fields
        try:
            rank = int(rank_token)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: rank is not an integer: {rank_token!r}"
            ) from None
        score = parse_float(path, lineno, score_token, "score")
        if (query_id, doc_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        seen.add((query_id, doc_id))
        doc_ids, scores, ranks = rows.setdefault(query_id, ([], [], []))
        doc_ids.append(doc_id)
        scores.append(score)
        ranks.append((rank, lineno))
    if not rows:
        raise ValueError(f"{path}: no data lines")
    corpus = []
    for query_id, (doc_ids, scores, ranks) in rows.items():
        used = set()
        for rank, lineno in ranks:
            if rank in used or not 1 <= rank <= len(ranks):
                raise ValueError(
                    f"{path}:{lineno}: query {query_id!r}: rank {rank} is repeated or outside "
                    f"1..{len(ranks)}, so the rank column is not a permutation"
                )
            used.add(rank)
        corpus.append(ranked_in_two_passes(query_id, doc_ids, scores))
    return corpus


def parse_run_file_per_query(path):
    """The column reader's fields, then each query's rows in file order: one
    rank sort and one ``ranked_in_two_passes`` per query. Every failed
    check goes to the library's line walk for its message."""
    fields = fileio._columns(path, 6)
    if not fields:
        fileio._run_file_error(path)
    ranks = fileio._column(fields[3::6], np.int64)
    mu = fileio._column(fields[4::6], np.float64)
    if ranks is None or mu is None:
        fileio._run_file_error(path)
    rows = {}
    for row, query_id in enumerate(fields[0::6]):
        rows.setdefault(query_id, []).append(row)
    corpus = []
    for query_id, positions in rows.items():
        docs = [fields[6 * row + 2] for row in positions]
        if sorted(ranks[positions].tolist()) != list(range(1, len(docs) + 1)):
            fileio._run_file_error(path)
        try:
            corpus.append(ranked_in_two_passes(query_id, docs, mu[positions]))
        except ValueError:  # a repeated doc id or a score that is not finite
            fileio._run_file_error(path)
    return corpus


def parse_sigma_file(path):
    """Sigma values keyed by (query_id, doc_id), in file order."""
    sigmas = {}
    for lineno, fields in data_lines(path):
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        query_id, doc_id, sigma_token = fields
        sigma = parse_float(path, lineno, sigma_token, "sigma")
        if sigma < 0.0:
            raise ValueError(f"{path}:{lineno}: sigma must be >= 0, got {sigma!r}")
        if (query_id, doc_id) in sigmas:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        sigmas[(query_id, doc_id)] = sigma
    return sigmas


def attach_sigmas(corpus, sigmas):
    """Join a (query_id, doc_id) -> sigma dict onto a corpus, pair by pair."""
    joined = []
    for query in corpus:
        try:
            column = [sigmas[query.query_ids[0], doc_id] for doc_id in query.doc_ids]
        except KeyError as exc:
            raise ValueError(
                f"missing sigma for ({query.query_ids[0]}, {exc.args[0][1]})") from None
        joined.append(query.with_column("sigma", column))
    return joined


def attach_neutrality(corpus, neutrality):
    """Join a doc id -> neutrality dict onto a corpus, query by query."""
    joined = []
    for query in corpus:
        try:
            column = [neutrality[doc_id] for doc_id in query.doc_ids]
        except KeyError as exc:
            raise ValueError(
                f"missing neutrality for ({query.query_ids[0]}, {exc.args[0]})") from None
        joined.append(query.with_column("neutrality", column))
    return joined


def load_per_query(run, sigmas=None, neutrality=None, protected_threshold=1.0):
    """A corpus loaded as the loaders once built it, query by query: each
    query sorted into original-rank order on its own, its sigma, neutrality
    and group columns attached one query at a time, each through its own
    ``with_column`` check, and the queries stacked at the end."""
    corpus = parse_run_file_per_query(run)
    if sigmas is not None:
        corpus = attach_sigmas(corpus, parse_sigma_file(sigmas))
    if neutrality is not None:
        corpus = attach_neutrality(corpus, parse_neutrality_file(neutrality))
        corpus = [q.with_column("protected", q.flat("neutrality") >= protected_threshold)
                  for q in corpus]
    return QueryStack(corpus)


def parse_neutrality_file(path):
    """Doc id -> neutrality; a repeated doc keeps its last value, and a
    repeat with a different value is an error."""
    scores = {}
    for lineno, fields in data_lines(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        doc_id, value_token = fields
        value = parse_float(path, lineno, value_token, "neutrality")
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{path}:{lineno}: neutrality score must lie in [0, 1], got {value!r}"
            )
        if doc_id in scores and scores[doc_id] != value:
            raise ValueError(
                f"{path}:{lineno}: conflicting neutrality for {doc_id!r}: "
                f"{scores[doc_id]!r} vs {value!r}"
            )
        scores[doc_id] = value
    return scores


def scalar_floats(path, lineno, tokens, what):
    """Per-token oracle: one ``float()`` and one finiteness check per value,
    citing ``path:line`` and the 1-based position of the first bad one."""
    return np.array(
        [parse_float(path, lineno, token, f"{what} {j + 1}") for j, token in enumerate(tokens)]
    )


def scalar_parse_features_file(path):
    """The feature-file parser with the per-token loop: ``{query: {doc:
    vector}}``, queries and docs in order of first appearance."""
    features = {}
    dim = None
    for lineno, fields in data_lines(path):
        if len(fields) < 3:
            raise ValueError(f"{path}:{lineno}: expected at least 3 fields, got {len(fields)}")
        query_id, doc_id = fields[0], fields[1]
        values = scalar_floats(path, lineno, fields[2:], "feature value")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: feature dimension {len(values)} differs from {dim}"
            )
        per_query = features.setdefault(query_id, {})
        if doc_id in per_query:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        per_query[doc_id] = values
    return features


def write_run_file(path, ranked, tag="pufr"):
    """The run writer with one f-string per line."""
    suffix, parts, stack = f" {tag}\n", [], ranked.stack
    for i, (query_id, start, end) in enumerate(zip(stack.query_ids, stack.bounds,
                                                   stack.bounds[1:])):
        places, scores = ranked.order[i, :end - start], ranked.scores[i, :end - start]
        entries = enumerate(zip(places.tolist(), scores.tolist()), start=1)
        parts += [f"{query_id} Q0 {stack.doc_ids[start + place]} {rank} {score!r}{suffix}"
                  for rank, (place, score) in entries]
    Path(path).write_text("".join(parts), encoding="utf-8")


def write_sigma_file(path, corpus):
    """The sigma writer with one f-string per line."""
    lines = []
    for query in corpus:
        for doc_id, sigma in zip(query.doc_ids, query.flat("sigma").tolist()):
            lines.append(f"{query.query_ids[0]} {doc_id} {sigma!r}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_neutrality_file(path, corpus):
    """The neutrality writer with one check and one f-string per document."""
    values = {}
    for query in corpus:
        for doc_id, value in zip(query.doc_ids, query.flat("neutrality").tolist()):
            if doc_id in values and values[doc_id] != value:
                raise ValueError(
                    f"doc {doc_id!r} has conflicting neutrality scores across queries"
                )
            values[doc_id] = value
    lines = [f"{doc_id} {value!r}" for doc_id, value in values.items()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _loop_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def per_query_reranker(corpus, cfg, alpha):
    """The sweep method's re-ranker of one query at ``alpha``: query ->
    (ranking, None or what keeps the ranking from being certified)."""
    pufr_cfg = PufrConfig.symmetric(alpha)
    if cfg.method == "pufr":
        return lambda query: (pufr_rerank(query, pufr_cfg), None)
    if cfg.method == "uniform":
        sigma_mean = compute_sigma_mean(QueryStack(corpus))
        return lambda query: (uniform_rerank(query, sigma_mean, pufr_cfg), None)
    if cfg.method == "unfair":
        return lambda query: (unfair_rank(query), None)
    if cfg.method == "fastar":
        table = baselines.compute_m_table(max(len(query.doc_ids) for query in corpus), alpha)
        return lambda query: (fastar_greedy(query, table), None)

    def constrained(query):
        result = baselines.constrained_rerank(query, ConstraintConfig(alpha, cfg.depth))
        if not result.feasible:
            return result.ranking, "infeasible"
        return result.ranking, "exhausted" if result.exhausted else None

    return constrained


def run_sweep_per_query(corpus, judgments, cfg):
    """``run_sweep``'s records and counts, every query re-ranked by its own
    call and every ranking evaluated by its own metric calls;
    ``mean_rerank_seconds`` is nan, since nothing is timed."""
    alphas = (0.0,) if cfg.method == "unfair" else cfg.alpha_grid
    pufr_reference = cfg.method not in ("pufr", "unfair") and all(
        q.has("sigma") and q.has("protected") for q in corpus
    )
    tested_k = min(cfg.cutoffs_fairness)

    def per_query(metric, rankings):
        return {ranking.stack.query_ids[0]: metric(ranking).item() for ranking in rankings}

    def reference(alpha):
        if pufr_reference:
            rankings = [pufr_rerank(q, PufrConfig.symmetric(alpha)) for q in corpus]
        else:
            rankings = [unfair_rank(q) for q in corpus]
        return per_query(lambda ranking: nfairr_at_k(ranking, tested_k), rankings)

    records, problems = [], {"infeasible": 0, "exhausted": 0}
    for alpha in alphas:
        rerank = per_query_reranker(corpus, cfg, alpha)
        rankings = []
        for query in corpus:
            ranking, problem = rerank(query)
            rankings.append(ranking)
            if problem is not None:
                problems[problem] += 1
        ndcg = {k: per_query(lambda r: ndcg_at_k(r, judgments, k), rankings)
                for k in cfg.cutoffs_utility}
        nfairr = {k: per_query(lambda r: nfairr_at_k(r, k), rankings)
                  for k in cfg.cutoffs_fairness}
        if len(corpus) < 2:
            t_stat = p_value = math.nan
        else:
            result = paired_t_test(nfairr[tested_k], reference(alpha))
            t_stat, p_value = result.t_statistic, result.p_value
        records.append(TradeoffRecord(
            method=cfg.method, alpha=float(alpha),
            ndcg={k: _loop_mean(list(v.values())) for k, v in ndcg.items()},
            nfairr={k: _loop_mean(list(v.values())) for k, v in nfairr.items()},
            mean_rerank_seconds=math.nan, t_stat=t_stat, p_value=p_value,
        ))
    return SweepResult(tuple(records), problems["infeasible"], problems["exhausted"])
