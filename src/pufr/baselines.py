"""Post-processing comparison methods: plain score ordering, prefix-quota
re-ranking driven by a binomial quota table, and a windowed constrained
utility maximizer that finds the Lagrangian breakpoint by a crossing
search over exact linear assignments (with bound-certified search to
close the duality gap on small windows)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import QueryCandidates, QueryStack, Ranking, StackedRanking, rank_by_score, stacked
from .metrics import ideal_fairr_at_k

DEFAULT_SIGNIFICANCE = 0.1
DEFAULT_DEPTH = 50

# Window sizes up to this run the bound-certified search after the
# crossing search, guaranteeing the returned feasible solution is
# utility-optimal; larger windows return the crossing search's best
# feasible solution.
DEFAULT_EXACT_WINDOW = 12
DEFAULT_MAX_NODES = 200_000

_FEASIBILITY_TOL = 1e-9
_MAX_CROSSING_SOLVES = 64


def unfair_rank(query: QueryCandidates | QueryStack) -> Ranking | StackedRanking:
    """Order purely by predicted mean score; the no-intervention reference.
    A stack is ranked in one pass; a query is its one-row case."""
    return rank_by_score(query, query.column("mu"))


# ---------------------------------------------------------------------------
# Prefix-quota re-ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MTable:
    """Minimum protected counts per prefix length.

    ``required[k-1]`` is the smallest number of protected docs any top-k
    prefix may contain, derived from a binomial quantile test at the
    given significance. It lies in 0..k and does not decrease with k, as
    :func:`fastar_rerank` needs; a table that breaks either rule is
    rejected.
    """

    p: float
    significance: float
    required: tuple[int, ...]

    def __post_init__(self) -> None:
        required = np.asarray(self.required, dtype=np.int64)
        least = np.concatenate(([0], required))[:-1]  # no quota below the one before
        bad = (required < least) | (required > np.arange(1, len(required) + 1))
        if bad.any():
            k = int(np.argmax(bad)) + 1
            raise ValueError(f"quota table requires {required[k - 1]} protected docs in the "
                             f"top {k}; it must lie in {least[k - 1]}..{k}")


def compute_m_table(k_max: int, p: float, significance: float = DEFAULT_SIGNIFICANCE) -> MTable:
    """Quota table: required[k] = smallest m with BinomialCDF(m; k, p) >= significance.

    The cumulative probabilities are accumulated iteratively from the
    binomial pmf recurrence, so the whole table costs O(k_max^2) at worst
    and is computed once up front. Where the first term ``(1 - p) ** k``
    is no normal float, the recurrence would start from a rounded or zero
    pmf, so those prefix lengths sum the pmf in logarithms instead.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"target proportion p must lie in [0, 1], got {p!r}")
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance!r}")
    required = []
    for k in range(1, k_max + 1):
        if p == 1.0:
            # all trials succeed: CDF jumps from 0 to 1 at m = k
            required.append(k)
            continue
        pmf = (1.0 - p) ** k
        if pmf < sys.float_info.min:
            required.append(_binomial_quantile(k, p, significance))
            continue
        cdf = pmf
        m = 0
        while cdf < significance and m < k:
            pmf *= (p / (1.0 - p)) * (k - m) / (m + 1)
            cdf += pmf
            m += 1
        required.append(m)
    return MTable(p=p, significance=significance, required=tuple(required))


def _binomial_quantile(k: int, p: float, significance: float) -> int:
    """Smallest m with BinomialCDF(m; k, p) >= significance, for 0 < p < 1,
    from the log pmf: the recurrence's factors are summed as logarithms and
    the pmf is scaled by its largest term before the cumulative sum."""
    m = np.arange(k, dtype=np.float64)
    steps = math.log(p) - math.log1p(-p) + np.log((k - m) / (m + 1))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps))) + k * math.log1p(-p)
    top = log_pmf.max()
    cdf = np.cumsum(np.exp(log_pmf - top)) * math.exp(top)
    return min(int(np.searchsorted(cdf, significance)), k)


def fastar_rerank(
    query: QueryCandidates | QueryStack, table: MTable
) -> Ranking | StackedRanking:
    """Greedy merge of the two score-sorted group queues under the quota.

    At each output position the better-scored queue head is emitted
    unless that would leave the prefix short of its protected quota, in
    which case the protected head is forced; exact score ties also go to
    the protected head. Once either queue runs dry the other is drained.
    A stack is merged row by row in one pass, its pads last; the ranking
    of a query is its one-row case. Scores are positions: n..1 down a
    query's ranking.

    The merge has a closed form. Each queue keeps column (original-rank)
    order, so the j-th protected document P_j (from 0) is preceded by c_j
    others, where c_j is the first c >= c_(j-1) at which the greedy emits
    P_j: its score wins (c >= c0_j, the number of others strictly above
    P_j's tie block), its quota forces it (j + c >= D_j, the first
    position whose ``required`` count exceeds j: the count is read at
    position j + c and the table does not decrease, so it exceeds j
    exactly from D_j on), or the others run out (c0_j never exceeds their
    number). So c_j = max(c_(j-1), min(c0_j, D_j - j)), one running
    maximum per row, and a stable sort of merge keys 2 * c_j for P_j and
    2 * i + 1 for the i-th other puts every document where the greedy does.
    """
    stack = stacked(query)
    required = np.asarray(table.required)
    too_long = np.flatnonzero(stack.lengths > len(required))
    if too_long.size:
        i = too_long[0]
        raise ValueError(
            f"quota table covers prefixes up to {len(required)} but query "
            f"{stack.query_ids[i]!r} has {stack.lengths[i]} candidates"
        )
    protected, j, c0, other_keys, scores = _fastar_places(stack)
    c = np.maximum.accumulate(
        np.where(protected, np.minimum(c0, np.searchsorted(required, j, side="right") - j), 0),
        axis=-1,
    )
    order = np.argsort(np.where(protected, 2 * c, other_keys), axis=-1, kind="stable")
    ranked = StackedRanking(stack, order, scores)
    return ranked if stack is query else ranked.rows()[0]


def _fastar_places(stack: QueryStack) -> tuple[np.ndarray, ...]:
    """What every quota of a sweep merges, kept in the stack's memo: the
    group labels, each protected place's j and c0_j (see
    :func:`fastar_rerank`), the merge key of each other place (pads after
    every real place) and the positional scores, -inf at pads."""
    places = stack.memo.get("fastar places")
    if places is None:
        protected, mu, real = stack.column("protected"), stack.column("mu"), stack.real
        others = real & ~protected
        j = np.cumsum(protected, axis=-1) - protected
        i = np.cumsum(others, axis=-1) - others
        width = real.shape[1]
        # the first place of each place's tie block: mu does not increase along a row
        new_block = np.ones(real.shape, dtype=bool)
        new_block[:, 1:] = mu[:, 1:] != mu[:, :-1]
        block = np.maximum.accumulate(np.where(new_block, np.arange(width), 0), axis=-1)
        scores = np.where(real, stack.lengths[:, None] - np.arange(width), -np.inf)
        scores.flags.writeable = False  # every quota's ranking shares it
        places = stack.memo["fastar places"] = (
            protected, j, np.take_along_axis(i, block, axis=-1),
            np.where(others, 2 * i + 1, 2 * width + 1), scores,
        )
    return places


def _positional_ranking(query: QueryCandidates, order: np.ndarray) -> Ranking:
    # Position-based methods produce an order, not scores; encode the
    # order with strictly decreasing synthetic scores n..1.
    n = len(order)
    return Ranking(query, order, np.arange(n, 0, -1, dtype=np.float64))


# ---------------------------------------------------------------------------
# Constrained utility maximization over a re-rank window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintConfig:
    """Fairness floor (fraction of the pool's ideal FaiRR at the window
    depth) plus the number of top documents eligible for re-ranking."""

    alpha_fairness: float
    depth: int = DEFAULT_DEPTH

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_fairness <= 1.0:
            raise ValueError(
                f"alpha_fairness must lie in [0, 1], got {self.alpha_fairness!r}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class BisectionStep:
    """One lambda subproblem solved: the gain order at lambda = 0 first,
    then the assignment at lam_max, then each crossing, in visit order."""

    lam: float
    fairness: float
    utility: float
    feasible: bool


@dataclass(frozen=True)
class ConstrainedResult:
    ranking: Ranking
    feasible: bool
    floor: float
    steps: tuple[BisectionStep, ...]  # one per lambda subproblem solved, in visit order
    # the certificate's bound on any feasible utility, minus this result's
    # utility: 0.0 when proved optimal, nan when infeasible
    gap: float
    nodes: int = 0  # gap-search nodes visited; 0 when the search did not run
    exhausted: bool = False  # the node cap cut the search: not certified optimal


def hungarian_assign(benefit: np.ndarray) -> np.ndarray:
    """Benefit-maximizing assignment of rows to columns.

    Returns ``positions`` with ``positions[i]`` the column assigned to
    row i; exact optimum via linear sum assignment. scipy is imported
    here, so only the constrained method loads ``scipy.optimize``.
    """
    from scipy.optimize import linear_sum_assignment
    benefit = np.asarray(benefit, dtype=float)
    if benefit.ndim != 2 or benefit.shape[0] != benefit.shape[1]:
        raise ValueError(f"benefit matrix must be square, got shape {benefit.shape}")
    if not np.isfinite(benefit).all():
        raise ValueError("benefit matrix must be finite")
    rows, cols = linear_sum_assignment(-benefit)
    positions = np.empty(benefit.shape[0], dtype=int)
    positions[rows] = cols
    return positions


def _window_utility(gains: np.ndarray, order: np.ndarray, discounts: np.ndarray) -> float:
    return float(np.sum(gains[order] * discounts))


def _window_fairness(neutrality: np.ndarray, order: np.ndarray, exposures: np.ndarray) -> float:
    return float(np.sum(neutrality[order] * exposures))


def constrained_rerank(
    query: QueryCandidates,
    cfg: ConstraintConfig,
) -> ConstrainedResult:
    """Maximize windowed discounted gain subject to a FaiRR floor.

    The top-``depth`` docs (by mean score) are re-permuted to maximize
    sum(gain / log2(pos+1)) subject to FaiRR@depth >= alpha_fairness times
    the pool's ideal FaiRR@depth; docs beyond the window keep their
    original order. Each lambda-subproblem is the exact assignment with
    benefit gain/log2(pos+1) + lambda*neutrality/pos. The search brackets
    the dual's breakpoint between the lambda = 0 gain order and the
    lambda = 1e6*max_gain solution, and solves next where the two
    bracketing orders' lines U + lambda*F cross, until a solve finds no
    order above them (at most 64 crossings). The last solve's lambda and
    benefit bound the utility of every feasible order; ``gap`` reports
    that bound minus the returned utility. Infeasible floors are flagged,
    not raised, and the fairest solution found is returned. The gains are
    the mean scores min-shifted to be nonnegative within the window.
    """
    depth = min(cfg.depth, len(query))
    neut_vec = query.column("neutrality")[:depth]
    gain_vec = query.mu[:depth] - min(query.mu[:depth].tolist())
    positions = np.arange(depth)
    discounts = 1.0 / np.log2(positions + 2)
    exposures = 1.0 / (positions + 1)
    floor = cfg.alpha_fairness * _pool_ideal_fairr(query, cfg.depth)
    # the least fairness that counts as feasible: every feasibility test,
    # the Lagrangian bound and the gap search's prune use it
    lowest = floor - _FEASIBILITY_TOL

    def finish(
        order: np.ndarray, feasible: bool, steps: list[BisectionStep], gap: float
    ) -> ConstrainedResult:
        full_order = np.concatenate((order, np.arange(depth, len(query))))
        return ConstrainedResult(
            ranking=_positional_ranking(query, full_order),
            feasible=feasible,
            floor=floor,
            steps=tuple(steps),
            gap=gap,
        )

    def step(lam: float, order: np.ndarray) -> BisectionStep:
        fairness = _window_fairness(neut_vec, order, exposures)
        utility = _window_utility(gain_vec, order, discounts)
        return BisectionStep(lam, fairness, utility, fairness >= lowest)

    # Gain-sorted window order solves the lambda = 0 subproblem with the
    # canonical tie-break; if it already meets the floor it is optimal.
    gain_order = np.argsort(-gain_vec, kind="stable")
    steps = [step(0.0, gain_order)]
    if steps[0].feasible:
        return finish(gain_order, True, steps, 0.0)

    max_gain = float(gain_vec.max())
    lam_max = 1e6 * (max_gain if max_gain > 0.0 else 1.0)

    # the two parts of every lambda-subproblem's benefit matrix
    gain_part = np.outer(gain_vec, discounts)
    fair_part = np.outer(neut_vec, exposures)

    def solve(lam: float) -> tuple[np.ndarray, float]:
        benefit = gain_part + lam * fair_part
        assigned = hungarian_assign(benefit)
        order = np.argsort(assigned)
        return order, float(benefit[np.arange(depth), assigned].sum())

    order_hi, total_hi = solve(lam_max)
    steps.append(step(lam_max, order_hi))
    if not steps[1].feasible:
        # neutrality-descending is the provably fairest window order; if
        # even it misses the floor, no feasible permutation exists
        fairest = np.argsort(-neut_vec, kind="stable")
        if _window_fairness(neut_vec, fairest, exposures) < lowest:
            return finish(order_hi, False, steps, math.nan)
        # finite lam_max fell short of the fairest order (near-degenerate
        # neutrality gaps); fall back to it rather than flag infeasibility
        gap = total_hi - lam_max * lowest - _window_utility(gain_vec, fairest, discounts)
        return finish(fairest, True, steps, gap)

    # Newton's cutting-plane search on the dual (Radzik 1992): lo is the
    # last infeasible solve, hi the last feasible one, each as (step,
    # benefit total, order). The next solve sits where their lines
    # U + lam*F cross; the search stops once a solve finds no order above
    # them by more than rounding (4 ulps: a relative tolerance hides true
    # hull vertices on windows with near-equal gains), and that solve is
    # the certificate. A crossing at a bracket end (or past it, by
    # rounding) was already solved there, so that end certifies.
    best_u, best_order = steps[1].utility, order_hi
    lo = (steps[0], steps[0].utility, gain_order)
    hi = cert = (steps[1], total_hi, order_hi)
    for _ in range(_MAX_CROSSING_SOLVES):
        a, b = lo[0], hi[0]
        lam = (a.utility - b.utility) / (b.fairness - a.fairness)
        if not a.lam < lam < b.lam:
            cert = lo if lam <= a.lam else hi
            break
        order, total = solve(lam)
        steps.append(step(lam, order))
        new = steps[-1]
        cert = (new, total, order)
        if new.feasible and new.utility > best_u:
            best_u, best_order = new.utility, order
        line = a.utility + lam * a.fairness
        if (
            np.array_equal(order, lo[2])
            or np.array_equal(order, hi[2])
            or new.utility + lam * new.fairness <= line + 4 * math.ulp(line)
        ):
            break
        if new.feasible:
            hi = cert
        else:
            lo = cert
    cert_lam, cert_total = cert[0].lam, cert[1]

    # Any feasible order satisfies U <= max_pi B_lam(pi) - lam*lowest; when
    # that bound already meets the incumbent the search's solution is
    # provably optimal, otherwise a bounded search closes the gap.
    bound = cert_total - cert_lam * lowest
    nodes, exhausted = 0, False
    if depth <= DEFAULT_EXACT_WINDOW and bound > best_u + 1e-12:
        best_order, nodes, exhausted = _close_gap(
            gain_part, fair_part, neut_vec, exposures, lowest, cert_lam, best_u, best_order
        )
    proved = nodes > 0 and not exhausted  # the gap search ran to the end
    gap = 0.0 if proved else bound - _window_utility(gain_vec, best_order, discounts)
    return replace(finish(best_order, True, steps, gap), nodes=nodes, exhausted=exhausted)


def _pool_ideal_fairr(query: QueryCandidates, depth: int) -> float:
    """The query's ideal FaiRR@depth; a row of a stack reads it from one
    ``ideal_fairr_at_k(stack, depth)`` column kept in the stack's memo, with
    the bits the row has alone (pads add +0.0)."""
    row = getattr(query, "_row", None)  # (weak ref to the stack, row) on a stack's row view
    stack = row and row[0]()
    if stack is None:
        return ideal_fairr_at_k(query, depth)
    key = ("ideal fairr column", depth)
    if key not in stack.memo:
        stack.memo[key] = ideal_fairr_at_k(stack, depth).tolist()
    return stack.memo[key][row[1]]


def _close_gap(
    gain_part: np.ndarray,
    fair_part: np.ndarray,
    neutrality: np.ndarray,
    exposures: np.ndarray,
    lowest: float,
    lam: float,
    incumbent_u: float,
    incumbent_order: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Depth-first search over prefix assignments with Lagrangian pruning.

    Bounds each node by prefix benefit plus the exact assignment optimum
    of the remaining docs over the remaining positions (minus
    lam*lowest), which upper-bounds the utility of any completion whose
    fairness reaches ``lowest``, the least that counts as feasible.
    ``gain_part`` and ``fair_part`` are the outer products of gains and
    neutrality with the discounts and exposures. Returns the order, the
    nodes visited and whether the node budget cut the search; within it
    the order is utility-optimal among feasible permutations.
    """
    from scipy.optimize import linear_sum_assignment
    n = len(neutrality)
    benefit = gain_part + lam * fair_part
    best_u = incumbent_u
    best_order = np.array(incumbent_order)
    nodes, exhausted = 0, False

    def search(prefix: list[int], used: set[int], u_pre: float, f_pre: float, b_pre: float) -> None:
        nonlocal best_u, best_order, nodes, exhausted
        if nodes >= DEFAULT_MAX_NODES:
            exhausted = True
            return
        nodes += 1
        k = len(prefix)
        if k == n:
            if f_pre >= lowest and u_pre > best_u + 1e-12:
                best_u = u_pre
                best_order = np.array(prefix)
            return
        rest = [i for i in range(n) if i not in used]
        # the fairest possible completion puts remaining docs in
        # neutrality order; prune if even that misses the floor
        rest_neut = np.sort(neutrality[rest])[::-1]
        if f_pre + float(rest_neut @ exposures[k : k + len(rest)]) < lowest:
            return
        sub = benefit[np.ix_(rest, np.arange(k, n))]
        # cheap column-max bound first, exact assignment bound only if needed
        if b_pre + float(sub.max(axis=0).sum()) - lam * lowest > best_u + 1e-12:
            rows, cols = linear_sum_assignment(-sub)
            if b_pre + float(sub[rows, cols].sum()) - lam * lowest <= best_u + 1e-12:
                return
        else:
            return
        for i in sorted(rest, key=lambda i: -benefit[i, k]):
            prefix.append(i)
            used.add(i)
            search(
                prefix,
                used,
                u_pre + gain_part[i, k],
                f_pre + fair_part[i, k],
                b_pre + benefit[i, k],
            )
            prefix.pop()
            used.remove(i)

    search([], set(), 0.0, 0.0, 0.0)
    return best_order, nodes, exhausted
